"""Timing and counting wrappers around translie's public calls.

A Tracer patches functions and methods of the loaded translie modules in
place.  Each timed call records one span (name, start, end, parent span,
job id) in memory; the hot basis-level calls (bracket, product and
operator `terms`, Scalar arithmetic, Element construction) are only
counted, because a span per call would cost more than the call.
`remove()` restores every original object.  Nothing under src/ knows
about any of this.

A span's name is "<layer>.<call>".  A layer's busy time is the sum of the
self times of its spans: span duration minus the part of it covered by
child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import gcd

LAYERS = ("cli", "checks", "solver", "linalg", "tp")

# checkers (check_<law>) whose cases per second are reported per law
RATE_LAWS = (
    "fundamental_identity",
    "one_third_derivation",
    "skew_symmetry",
    "tp_compatibility",
    "commutative_associative",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patches = []  # (owner, attribute, original), in patch order

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def timed(self, original, name, sites, after=None):
        """Replace `original` at every (owner, attribute) site by a span.

        `after(counts, result, *args)` runs once the span has closed, inside
        a "bench.hook" span, so that its cost is not charged to the layer.
        """

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                with self.span("bench.hook"):
                    after(self.counts, result, *args)
            return result

        for owner, attr in sites:
            self.patch(owner, attr, wrapper)

    def counted(self, cls, attr, key):
        original = vars(cls)[attr]
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        self.patch(cls, attr, wrapper)


def self_times(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, job) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


# ---------------------------------------------------------------------------
# wrappers for the translie layers


def _sites(modules, obj):
    """Every module-level name, across the translie modules, bound to obj."""
    return [
        (mod, name)
        for mod in modules.values()
        for name, value in vars(mod).items()
        if value is obj
    ]


def _count_scalar_ops(tracer, scalar_cls):
    counts = tracer.counts

    def binary(original):
        @functools.wraps(original)
        def wrapper(a, b):
            counts["scalars.ops"] += 1
            if a.im or b.im:
                counts["scalars.gaussian_ops"] += 1
            return original(a, b)

        return wrapper

    def unary(original):
        @functools.wraps(original)
        def wrapper(a, *rest):
            counts["scalars.ops"] += 1
            if a.im:
                counts["scalars.gaussian_ops"] += 1
            return original(a, *rest)

        return wrapper

    for attr in ("__add__", "__sub__", "__mul__", "__truediv__"):
        tracer.patch(scalar_cls, attr, binary(vars(scalar_cls)[attr]))
    for attr in ("__neg__", "scale_int"):
        tracer.patch(scalar_cls, attr, unary(vars(scalar_cls)[attr]))


def _primitive_key(row):
    """A row divided by its leading coefficient, as exact (num, den) pairs:
    equal keys mean rows equal up to a nonzero scalar factor."""
    cols = sorted(row)
    values = [row[c] for c in cols]
    out = []
    if all(not v.im and v.re.denominator == 1 for v in values):
        lead = values[0].re.numerator
        for col, v in zip(cols, values):
            g = gcd(v.re.numerator, lead)
            num, den = v.re.numerator // g, lead // g
            if den < 0:
                num, den = -num, -den
            out.append((col, num, den, 0, 1))
        return tuple(out)
    c, d = values[0].re, values[0].im
    norm = c * c + d * d
    for col, v in zip(cols, values):
        re = (v.re * c + v.im * d) / norm
        im = (v.im * c - v.re * d) / norm
        out.append((col, re.numerator, re.denominator, im.numerator, im.denominator))
    return tuple(out)


def _after_assemble(counts, system, *args):
    counts["solver.rows"] += len(system.rows)
    counts["solver.distinct_rows"] += len({_primitive_key(r) for r in system.rows})
    counts["solver.unknowns"] += system.num_unknowns


def _after_nullspace(counts, space, system, *args):
    counts["linalg.rank"] += system.num_unknowns - space.dimension
    counts["linalg.full_dim"] += space.dimension
    if any(v.im for row in system.rows for v in row.values()):
        counts["linalg.gaussian_systems"] += 1


def _after_project(counts, space, *args):
    counts["linalg.core_dim"] += space.dimension


def _after_check(law):
    def hook(counts, report, *args):
        counts["checks.cases"] += report.cases_run
        counts[f"checks.{law}.cases"] += report.cases_run

    return hook


def _after_closure_window(counts, w, *args):
    counts["tp.closure_size"] += w.size


def _after_to_json(counts, text, *args):
    counts["cli.report_bytes"] += len(text.encode())


def install(tracer, m):
    """Wrap the public calls of every layer; m maps short names to modules."""

    def timed(layer, name, after=None):
        obj = vars(m[layer])[name]
        tracer.timed(obj, f"{layer}.{name}", _sites(m, obj), after)

    def timed_method(layer, cls, name, after=None):
        obj = vars(cls)[name]
        tracer.timed(obj, f"{layer}.{name}", [(cls, name)], after)

    timed("cli", "parse_config")
    timed("cli", "run")
    timed_method("cli", m["cli"].RunReport, "to_json", _after_to_json)
    for name, obj in list(vars(m["checks"]).items()):
        if name.startswith("check_") and callable(obj):
            timed("checks", name, _after_check(name[len("check_"):]))
    timed("checks", "generator_closure")
    timed("solver", "solve_and_classify")
    timed("solver", "assemble_system", _after_assemble)
    timed("solver", "tp_triviality_system")
    timed("linalg", "nullspace", _after_nullspace)
    timed("linalg", "project_solution", _after_project)
    timed_method("linalg", m["linalg"].SolutionSpace, "verify_against")
    timed("tp", "validate_params")
    timed("tp", "tp_product")
    timed("tp", "classify_poisson")
    timed("tp", "build_example_family")
    timed("tp", "support_closure_window", _after_closure_window)
    timed("tp", "poisson_violation_witness")

    _count_scalar_ops(tracer, m["scalars"].Scalar)
    tracer.counted(m["elements"].Element, "__init__", "elements.built")
    tracer.counted(m["algebras"].BracketDef, "terms", "algebras.bracket_terms_calls")
    tracer.counted(m["algebras"].ProductDef, "terms", "algebras.product_terms_calls")
    tracer.counted(m["algebras"].LinearOperator, "terms", "algebras.operator_terms_calls")


# ---------------------------------------------------------------------------
# per-layer metrics


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def summarize(tracer):
    """Per-layer metrics from the spans and counts of one traced pass."""
    selfs = self_times(tracer.spans)
    by_name = Counter()
    inclusive = Counter()
    by_layer = Counter()
    for (name, start, end, parent, job), own in zip(tracer.spans, selfs):
        by_name[name] += own
        inclusive[name] += end - start
        by_layer[name.split(".", 1)[0]] += own
    c = tracer.counts

    check_s = sum(t for n, t in by_name.items() if n.startswith("checks.check_"))
    out = {
        "cli.parse_s": inclusive["cli.parse_config"],
        "cli.report_s": inclusive["cli.to_json"],
        "cli.run_self_s": by_name["cli.run"],
        "cli.report_bytes": c["cli.report_bytes"],
        "scalars.ops": c["scalars.ops"],
        "scalars.gaussian_ops": c["scalars.gaussian_ops"],
        "elements.built": c["elements.built"],
        "algebras.bracket_terms_calls": c["algebras.bracket_terms_calls"],
        "algebras.product_terms_calls": c["algebras.product_terms_calls"],
        "algebras.operator_terms_calls": c["algebras.operator_terms_calls"],
        "checks.cases": c["checks.cases"],
        "checks.cases_per_s": _rate(c["checks.cases"], check_s),
        "checks.closure_s": by_name["checks.generator_closure"],
        "solver.assemble_s": inclusive["solver.assemble_system"],
        "solver.rows": c["solver.rows"],
        "solver.distinct_rows": c["solver.distinct_rows"],
        "solver.distinct_ratio": c["solver.distinct_rows"] / c["solver.rows"] if c["solver.rows"] else 0.0,
        "solver.unknowns": c["solver.unknowns"],
        "solver.rows_per_s": _rate(c["solver.rows"], inclusive["solver.assemble_system"]),
        "solver.classify_s": by_name["solver.solve_and_classify"],
        "linalg.eliminate_s": by_name["linalg.nullspace"],
        "linalg.verify_s": inclusive["linalg.verify_against"],
        "linalg.project_s": inclusive["linalg.project_solution"],
        "linalg.rank": c["linalg.rank"],
        "linalg.full_dim": c["linalg.full_dim"],
        "linalg.core_dim": c["linalg.core_dim"],
        "linalg.gaussian_systems": c["linalg.gaussian_systems"],
        "tp.validate_s": inclusive["tp.validate_params"],
        "tp.validate_calls": sum(1 for s in tracer.spans if s[0] == "tp.validate_params"),
        "tp.witness_s": inclusive["tp.poisson_violation_witness"],
        "tp.closure_size": c["tp.closure_size"],
    }
    for law in RATE_LAWS:
        out[f"checks.{law}.cases_per_s"] = _rate(c[f"checks.{law}.cases"], by_name[f"checks.check_{law}"])
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = by_layer[layer]
    out["trace.attributed_s"] = sum(by_layer[layer] for layer in LAYERS)
    return out

"""Command-line driver: structured run configs in, deterministic reports out.

Config documents are JSON.  Exact scalars travel as strings ("-3/4",
"1/2+5i") so round-trips stay lossless.  Reports are canonical: given the
same config, seed, and tool version the serialized report is
byte-identical across runs (wall-clock timing is only included on
request, since it would break that guarantee).

Exit codes: 0 all checks passed, 1 at least one violation or mismatch,
2 configuration or domain errors, an unwritable report path and a config
key or window the command does not read among them, refused before a run.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .algebras import (
    AFK,
    A_OMEGA_DELTA,
    OMEGA_FORM,
    a_omega_delta,
    afk,
    algebra_a,
    family_swap,
    functional,
    index_scaling,
    omega_form,
    scaled_l_shift,
)
from .checks import (
    LAWS,
    CheckReport,
    check_commutative_associative,
    check_derivation,
    check_fundamental_identity,
    check_involutive_morphism,
    check_poisson_compatibility,
    check_relabel_intertwining,
    check_skew_symmetry,
    check_tp_compatibility,
    generator_closure,
    window,
)
from .elements import BasisSymbol, Element
from .errors import ConfigParseError, ConfigSchemaError, TransLieError
from .linalg import nullspace
from .scalars import Scalar
from .solver import solve_and_classify, tp_triviality_system
from .tp import (
    POISSON_AND_TRANSPOSED,
    TPParams,
    build_example_family,
    classify_poisson,
    poisson_violation_witness,
    support_closure_window,
    tp_product,
    validate_params,
)

# samples of a randomized pass whose config sets no budget
DEFAULT_SAMPLES = 10_000

# anchors of the report entries that are not law checks; a law's anchor
# is on its LawSpec in checks.LAWS
ANCHORS = {
    "derivation-classification": "core solution space matches the closed-form derivation family",
    "tp-triviality": "commutativity forces every induced-product coefficient to vanish",
    "tp-params-valid": "symmetry, weighted-sum, and exchange constraints all hold",
    "tp-params-built": "rank-one array construction satisfies its constraints",
    "poisson-dichotomy": "classical Leibniz law holds exactly when alpha = 0 and c = 0",
    "generator-closure": "every window basis symbol lies in the bracket closure of the generators",
}


@dataclass
class RunConfig:
    command: str
    algebra: object = None  # BracketDef
    windows: dict = field(default_factory=dict)
    mode: str = "exhaustive"
    budget: int | None = None
    seed: int = 0
    degree: int = 0
    tp_params: TPParams | None = None
    generators: list = field(default_factory=list)
    max_rounds: int = 16
    echo: dict = field(default_factory=dict)


@dataclass
class RunReport:
    command: str
    config: dict
    entries: list
    timing_ms: int | None = None
    version: str = __version__

    @property
    def verdict(self):
        return "pass" if all(e["passed"] for e in self.entries) else "fail"

    def to_json(self, include_timing=False):
        doc = {
            "command": self.command,
            "config": self.config,
            "entries": self.entries,
            "timing_ms": self.timing_ms if include_timing else None,
            "verdict": self.verdict,
            "version": self.version,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# config parsing


# integer config fields: the least value allowed (None: no bound) and the
# message for any other value
_INT_FIELDS = {
    "budget": (1, "budget must be a positive integer"),
    "seed": (None, "seed must be an integer"),
    "degree": (None, "degree must be an integer"),
    "max_rounds": (0, "max_rounds must be a non-negative integer"),
}


# the keys every command reads, and what each command reads beside them:
# its windows and its other keys (a command reading budget, the sample
# count, has a randomized pass)
_COMMON = ("command", "windows", "mode", "seed")
_READS = {
    "check-laws": (("domain", "equation"), ("algebra", "budget")),
    "solve-derivations": (("domain", "equation", "core", "image"), ("algebra", "degree")),
    "tp-triviality": (("index", "basis", "domain"), ()),
    "build-tp": ((), ("algebra", "tp_params")),
    "verify-tp": ((), ("algebra", "tp_params", "budget")),
    "generators": (("domain",), ("algebra", "generators", "max_rounds")),
}


def _require(cond, message):
    if not cond:
        raise ConfigSchemaError(message)


def _check_keys(obj, allowed, where):
    """Reject every key of a config object outside allowed, naming its path."""
    for key in obj:
        _require(key in allowed, f"{where}: unknown key {key!r}")


def _unique_keys(pairs):
    """A JSON object, refused when it repeats a key: json would keep only
    the last value, so {"0": "1", "0": "2"} would drop f(M_0) = 1."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigParseError(f"config repeats the key {key!r} in one object")
        obj[key] = value
    return obj


def _is_int(value):
    """JSON integers only: bool is an int subclass, but true is not 1 here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_scalar(value, where):
    try:
        if isinstance(value, str):
            return Scalar.parse(value)
        if _is_int(value):
            return Scalar(value)
    except ValueError as exc:
        raise ConfigSchemaError(f"{where}: {exc}") from None
    raise ConfigSchemaError(f"{where}: scalars must be strings like '3/4' or '1+2i'")


def _parse_scalar_map(obj, where):
    _require(isinstance(obj, dict), f"{where}: expected an object of index -> scalar")
    out = {}
    for key, val in obj.items():
        # only canonical decimals: int() would read "01", " 1" and "0_1" as 1
        try:
            canonical = str(int(key)) == key
        except ValueError:
            canonical = False
        _require(canonical, f"{where}: bad integer index {key!r}")
        out[int(key)] = _parse_scalar(val, f"{where}[{key}]")
    return out


def _parse_window(value, where):
    _require(
        isinstance(value, list) and len(value) == 2 and all(_is_int(v) for v in value),
        f"{where}: a window is a two-element list [lo, hi]",
    )
    lo, hi = value
    _require(lo <= hi, f"{where}: window lower bound {lo} exceeds upper bound {hi}")
    return window(lo, hi)


def _parse_algebra(obj):
    _require(isinstance(obj, dict), "algebra: expected an object")
    kind = obj.get("kind")
    _require(
        kind in (A_OMEGA_DELTA, OMEGA_FORM, AFK),
        f"algebra.kind must be one of '{A_OMEGA_DELTA}', '{OMEGA_FORM}', '{AFK}'",
    )
    _check_keys(obj, ("kind", "k", "f") if kind == AFK else ("kind",), "algebra")
    if kind == A_OMEGA_DELTA:
        return a_omega_delta()
    if kind == OMEGA_FORM:
        return omega_form()
    k = obj.get("k", 0)
    _require(_is_int(k), "algebra.k must be an integer")
    f = functional(_parse_scalar_map(obj.get("f", {}), "algebra.f"))
    _require(not f.is_zero(), "algebra.f must be nonzero for the functional bracket")
    return afk(k, f)


def _parse_tp_params(obj, bdef):
    _require(isinstance(obj, dict), "tp_params: expected an object")
    _require(bdef is not None and bdef.kind == AFK, "tp_params requires an a-f-k algebra")
    if "example_family" in obj:
        _check_keys(obj, ("example_family",), "tp_params with example_family")
        fam = obj["example_family"]
        _require(isinstance(fam, dict), "tp_params.example_family: expected an object")
        _check_keys(fam, ("d_seq", "c"), "tp_params.example_family")
        d_seq = _parse_scalar_map(fam.get("d_seq", {}), "tp_params.example_family.d_seq")
        c = _parse_scalar_map(fam.get("c", {}), "tp_params.example_family.c")
        return build_example_family(bdef.f, d_seq, c, bdef.k)
    _check_keys(obj, ("alpha", "c", "d"), "tp_params")
    alpha = _parse_scalar(obj.get("alpha", "0"), "tp_params.alpha")
    c = _parse_scalar_map(obj.get("c", {}), "tp_params.c")
    d_list = obj.get("d", [])
    _require(isinstance(d_list, list), "tp_params.d: expected a list of [i, j, q, scalar]")
    d = {}
    for pos, item in enumerate(d_list):
        _require(
            isinstance(item, list)
            and len(item) == 4
            and all(_is_int(v) for v in item[:3]),
            f"tp_params.d[{pos}]: expected [i, j, q, scalar]",
        )
        triple = tuple(item[:3])
        _require(triple not in d, f"tp_params.d[{pos}]: repeated index triple {list(triple)}")
        d[triple] = _parse_scalar(item[3], f"tp_params.d[{pos}]")
    return TPParams(alpha=alpha, c=c, d=d, f=bdef.f, k=bdef.k)


def parse_config(text, command=None):
    """Parse and validate a JSON run configuration.

    `command` (from the command line) wins; a `command` key in the
    document, when present, must agree with it.
    """
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    _require(isinstance(data, dict), "config root must be a JSON object")

    doc_command = data.get("command")
    if command is None:
        command = doc_command
    _require(command in COMMANDS, f"command must be one of {', '.join(COMMANDS)}")
    _require(
        doc_command is None or doc_command == command,
        f"config command {doc_command!r} does not match requested {command!r}",
    )

    windows_read, keys_read = _READS[command]
    for key in data:
        _require(key in _COMMON + keys_read, f"config: {command} does not read the key {key!r}")

    cfg = RunConfig(command=command)

    if "algebra" in data:
        cfg.algebra = _parse_algebra(data["algebra"])
    _require(
        cfg.algebra is not None or "algebra" not in keys_read,
        f"{command} requires an 'algebra' section",
    )

    windows_obj = data.get("windows", {})
    _require(isinstance(windows_obj, dict), "windows: expected an object")
    for name, value in windows_obj.items():
        _require(name in windows_read, f"windows.{name}: {command} does not read this window")
        cfg.windows[name] = _parse_window(value, f"windows.{name}")

    cfg.mode = data.get("mode", "exhaustive")
    _require(cfg.mode in ("exhaustive", "randomized"), "mode must be exhaustive or randomized")
    _require(
        cfg.mode == "exhaustive" or "budget" in keys_read,
        f"mode: {command} has no randomized pass",
    )
    for name, (least, message) in _INT_FIELDS.items():
        if name in data:
            value = data[name]
            _require(_is_int(value) and (least is None or value >= least), message)
            setattr(cfg, name, value)
    _require(
        cfg.budget is None or cfg.mode == "randomized",
        "budget is the sample count of a randomized pass; it needs \"mode\": \"randomized\"",
    )

    if "tp_params" in data:
        cfg.tp_params = _parse_tp_params(data["tp_params"], cfg.algebra)
    _require(
        cfg.tp_params is not None or "tp_params" not in keys_read,
        f"{command} requires a 'tp_params' section",
    )

    gens = data.get("generators")
    if gens is not None:
        _require(isinstance(gens, list) and gens, "generators: expected a non-empty list")
        for pos, item in enumerate(gens):
            _require(
                isinstance(item, list)
                and len(item) == 2
                and item[0] in ("L", "M")
                and _is_int(item[1]),
                f"generators[{pos}]: expected [\"L\"|\"M\", index]",
            )
            cfg.generators.append(BasisSymbol(item[0], item[1]))

    cfg.echo = _normalize_echo(cfg, data)
    return cfg


def _normalize_echo(cfg, data):
    echo = {"command": cfg.command, "mode": cfg.mode, "seed": cfg.seed}
    if cfg.budget is not None:
        echo["budget"] = cfg.budget
    if cfg.algebra is not None:
        alg = {"kind": cfg.algebra.kind}
        if cfg.algebra.kind == AFK:
            alg["k"] = cfg.algebra.k
            alg["f"] = {str(i): str(v) for i, v in cfg.algebra.f.values}
        echo["algebra"] = alg
    if cfg.windows:
        echo["windows"] = {k: [w.lo, w.hi] for k, w in sorted(cfg.windows.items())}
    if cfg.command == "solve-derivations":
        echo["degree"] = cfg.degree
    if cfg.tp_params is not None:
        echo["tp_params"] = _tp_params_json(cfg.tp_params)
    if cfg.generators:
        echo["generators"] = [[s.family, s.index] for s in cfg.generators]
    if "max_rounds" in data:
        echo["max_rounds"] = cfg.max_rounds
    return echo


def _tp_params_json(p):
    return {
        "alpha": str(p.alpha),
        "c": {str(i): str(v) for i, v in sorted(p.c.items())},
        "d": [[i, j, q, str(v)] for (i, j, q), v in sorted(p.d.items())],
        "f": {str(i): str(v) for i, v in p.f.values},
        "k": p.k,
    }


# ---------------------------------------------------------------------------
# report assembly


def _element_json(element):
    return {str(sym): str(coeff) for sym, coeff in element.sorted_terms()}


def _violation_json(v):
    return {
        "inputs": [str(s) for s in v.inputs],
        "lhs": _element_json(v.lhs),
        "rhs": _element_json(v.rhs),
        "residual": _element_json(v.residual),
    }


def _entry(outcome, details=None, passed=None, mode=None, cases_run=None):
    """One report entry: a name, its anchor, the verdict and its witnesses,
    the counts that are set (mode, cases_run, seed), and details when there
    are any.  `outcome` is a law's CheckReport, which gives all but the
    details, or the name of an entry that is not a law check, given its
    verdict and counts, with no witnesses and no seed."""
    if isinstance(outcome, CheckReport):
        name, passed, violations = outcome.law, outcome.passed, outcome.violations
        anchor, mode, cases_run = LAWS[name].anchor, outcome.mode, outcome.cases_run
        seed = outcome.seed
    else:
        name, anchor, violations, seed = outcome, ANCHORS[outcome], (), None
    out = {
        "law": name,
        "anchor": anchor,
        "passed": passed,
        "violations": [_violation_json(v) for v in violations],
    }
    for key, value in (("mode", mode), ("cases_run", cases_run), ("seed", seed)):
        if value is not None:
            out[key] = value
    if details:
        out["details"] = details
    return out


# ---------------------------------------------------------------------------
# command implementations


def _run_check_laws(cfg):
    domain = cfg.windows.get("domain", window(-4, 4))
    equation = cfg.windows.get("equation", window(-2, 2))
    entries = [
        _entry(check_skew_symmetry(cfg.algebra, domain)),
        _entry(check_fundamental_identity(cfg.algebra, equation)),
    ]
    if cfg.mode == "randomized":
        samples = cfg.budget or DEFAULT_SAMPLES
        law_report = check_fundamental_identity(
            cfg.algebra, equation, samples=samples, seed=cfg.seed
        )
        entries.append(_entry(law_report))
    if cfg.algebra.kind == A_OMEGA_DELTA:
        entries.append(_entry(check_relabel_intertwining(domain)))
        entries.append(_entry(check_commutative_associative(algebra_a(), domain)))
        derivations = [("index-scaling", index_scaling())] + [
            (f"scaled-l-shift({k})", scaled_l_shift(k)) for k in range(-3, 4)
        ]
        for name, op in derivations:
            entries.append(_entry(check_derivation(op, domain), details={"operator": name}))
        entries.append(_entry(check_involutive_morphism(family_swap(), domain)))
    return entries


def _run_solve_derivations(cfg):
    domain = cfg.windows.get("domain", window(-10, 10))
    equation = cfg.windows.get("equation", domain)
    # the core defaults to the domain's middle index, rounded toward 0,
    # +- |domain| // 4, which keeps the margin solve_and_classify requires
    ends = domain.lo + domain.hi
    middle = -(-ends // 2) if ends < 0 else ends // 2
    radius = domain.size // 4
    core = cfg.windows.get("core", window(middle - radius, middle + radius))
    verdict = solve_and_classify(
        cfg.algebra, domain, equation, core, cfg.degree, cfg.windows.get("image")
    )
    details = {
        "expected_description": verdict.expected_description,
        "core_dimension": verdict.core_dimension,
        "expected_core_dimension": verdict.expected_core_dimension,
        "full_dimension": verdict.full_dimension,
        "offending_vectors": verdict.offending_vectors,
    }
    return [_entry("derivation-classification", details, verdict.matches)]


def _run_tp_triviality(cfg):
    w_index = cfg.windows.get("index", cfg.windows.get("domain", window(-3, 3)))
    w_basis = cfg.windows.get("basis", cfg.windows.get("domain", window(-3, 3)))
    system = tp_triviality_system(w_index, w_basis)
    space = nullspace(system)
    details = {
        "dimension": space.dimension,
        "num_unknowns": system.num_unknowns,
        "num_rows": len(system.provenance),
        "nonzero_solutions": [
            {str(uid): str(v) for uid, v in space.vector_as_dict(i).items()}
            for i in range(space.dimension)
        ],
    }
    return [_entry("tp-triviality", details, space.dimension == 0)]


def _run_build_tp(cfg):
    report = validate_params(cfg.tp_params)
    details = {
        "params": _tp_params_json(cfg.tp_params),
        "classification": classify_poisson(cfg.tp_params) if report.is_valid else None,
    }
    return [_entry("tp-params-built", details, report.is_valid)]


def _run_verify_tp(cfg):
    params = cfg.tp_params
    report = validate_params(params)
    details = {"params": _tp_params_json(params)}
    for law in ("symmetry", "weighted_sum", "exchange"):
        violations = getattr(report, f"eq_{law}_violations")
        details[f"{law}_violations"] = [[list(t), str(r)] for t, r in violations]
    entries = [_entry("tp-params-valid", details, report.is_valid)]
    if not report.is_valid:
        return entries

    prod = tp_product(params)
    bdef = cfg.algebra
    closure = support_closure_window(params)
    for law_report in (check_commutative_associative(prod, closure),
                       check_tp_compatibility(bdef, prod, closure)):
        entries.append(_entry(law_report, details={"window": [closure.lo, closure.hi]}))
    if cfg.mode == "randomized":
        samples = cfg.budget or DEFAULT_SAMPLES
        law_report = check_tp_compatibility(bdef, prod, closure, samples=samples, seed=cfg.seed)
        entries.append(_entry(law_report))

    # the classical Leibniz law must hold exactly on the poisson-and-transposed side
    classification = classify_poisson(params)
    witness = cases_run = None
    if classification == POISSON_AND_TRANSPOSED:
        poisson = check_poisson_compatibility(bdef, prod, closure)
        law_passed, cases_run = poisson.passed, poisson.cases_run
    else:
        witness = poisson_violation_witness(bdef, prod, closure)
        law_passed = witness is None
    details = {
        "classification": classification,
        "poisson_law_passed": law_passed,
        "witness": _violation_json(witness) if witness else None,
    }
    passed = law_passed == (classification == POISSON_AND_TRANSPOSED)
    entries.append(_entry("poisson-dichotomy", details, passed, "exhaustive", cases_run))
    return entries


def _run_generators(cfg):
    domain = cfg.windows.get("domain", window(-6, 6))
    gens = cfg.generators or [BasisSymbol(fam, i) for fam in ("L", "M") for i in (-1, 0, 1)]
    result = generator_closure(
        cfg.algebra, [Element.basis(s) for s in gens], domain, max_rounds=cfg.max_rounds
    )
    details = {
        "spanned": result.spanned,
        "rounds_used": result.rounds_used,
        "missing": [str(s) for s in result.missing],
        "generators": [str(s) for s in gens],
    }
    return [_entry("generator-closure", details, result.spanned)]


_RUNNERS = {
    "check-laws": _run_check_laws,
    "solve-derivations": _run_solve_derivations,
    "tp-triviality": _run_tp_triviality,
    "build-tp": _run_build_tp,
    "verify-tp": _run_verify_tp,
    "generators": _run_generators,
}
COMMANDS = tuple(_RUNNERS)


def run(config):
    """Execute a parsed RunConfig and return its RunReport."""
    start = time.monotonic()
    entries = _RUNNERS[config.command](config)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return RunReport(
        command=config.command,
        config=config.echo,
        entries=entries,
        timing_ms=elapsed_ms,
    )


# ---------------------------------------------------------------------------
# entry point


def _print_summary(report, stream, timing=False):
    print(f"translie {report.version} — {report.command}: {report.verdict}", file=stream)
    for entry in report.entries:
        status = "pass" if entry["passed"] else "FAIL"
        cases = entry.get("cases_run")
        suffix = f" ({cases} cases)" if cases is not None else ""
        print(f"  [{status}] {entry['law']}{suffix}", file=stream)
        if not entry["passed"] and entry["violations"]:
            first = entry["violations"][0]
            print(f"         first witness: {first['inputs']}", file=stream)
    if timing:
        print(f"  elapsed: {report.timing_ms} ms", file=stream)


def _report_path_refusal(path):
    """The OSError opening path to write would raise when it is a directory,
    or its directory is missing or not one, else None; path is not opened."""
    dirname = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(dirname):
        code = errno.ENOTDIR if os.path.exists(dirname) else errno.ENOENT
    else:
        return None
    return OSError(code, os.strerror(code), path)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="translie",
        description="Exact verification workbench for two ternary bracket algebras.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--quiet", action="store_true", help="suppress the console summary")
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock timing in the JSON report and the console summary "
        "(breaks byte-for-byte reproducibility)",
    )
    args = parser.parse_args(argv)

    refusal = args.out and _report_path_refusal(args.out)
    if refusal:
        print(f"error: cannot write report: {refusal}", file=sys.stderr)
        return 2
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        config = parse_config(text, command=args.command)
        if args.seed is not None:
            config.seed = args.seed
            config.echo["seed"] = args.seed
        report = run(config)
    except (TransLieError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json(include_timing=args.timing))
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    if not args.quiet:
        _print_summary(report, sys.stdout, timing=args.timing)
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded job lists for the three benchmark workloads, and their oracle.

A job is either one CLI run (`parse_config -> run -> RunReport.to_json`)
or one acceptance-criterion call through the library API.  Every job
carries the answer it must produce, derived here from closed forms and
never from translie output:

* exhaustive checks run (2*|window|)**arity cases, randomized ones run
  exactly their budget, and every law passes;
* graded solves of the shifted bracket have core dimension 1 at every
  degree;
* full-window solves of the functional bracket have core dimension
  1 + |core|**2;
* the induced-product system has dimension 0, with 2*|basis|*|index|
  unknowns and 2*|basis|**2*|index| rows;
* a rank-one product family is on the Poisson side of the dichotomy
  exactly when alpha = sum_q f(M_q) d_q and c both vanish.

This module imports nothing from translie, so job lists can be built and
tested without the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("laws", "derive-graded", "derive-wide")

# Window sizes: the same on every seed, so that the amount of work in a job
# list does not depend on the seed; the seed picks the sampled tuples,
# coefficients, shifts and the job order.
LAWS_DOMAIN = (-3, 3)
LAWS_EQUATION = (-2, 2)
C05_WINDOW = (-4, 4)
GENERATORS_DOMAIN = (-16, 16)
GRADED_DOMAIN = (-10, 10)
GRADED_CORE = (-5, 5)
TRIVIALITY_WINDOW = (-12, 12)
WIDE_WINDOWS = (((-4, 4), (-2, 2)), ((-5, 5), (-3, 3)))

GAUSSIAN_F = (Fraction(1), Fraction(1))  # the functional value "1+i"


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work and the answer it must give.

    kind "cli": `text` is a JSON run configuration.
    kind "uniform-shift": `text` is JSON {"k": shift, "window": [lo, hi]}
    for the c05 check of the uniform shift as a 1/3-derivation.
    `expect["entries"]` lists [law, mode, cases_run] per report entry, in
    order (cases_run None where the entry carries none);
    `expect["details"]` maps a law to detail values its entries must have.
    """

    id: int
    name: str
    kind: str
    text: str
    expect: dict


def _size(w):
    return w[1] - w[0] + 1


def _symbols(w):
    return 2 * _size(w)


def _scalar_text(value):
    re, im = value
    if not im:
        return str(re)
    imag = "i" if im == 1 else ("-i" if im == -1 else f"{im}i")
    if not re:
        return imag
    return f"{re}{imag}" if imag.startswith("-") else f"{re}+{imag}"


def _nonzero(rng, lo=-5, hi=5):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return Fraction(v)


def _cli_job(jobs, name, command, body, entries, details=None):
    text = json.dumps({"command": command, **body}, sort_keys=True)
    expect = {"entries": entries, "details": details or {}}
    jobs.append(Job(len(jobs), name, "cli", text, expect))


# ---------------------------------------------------------------------------
# laws: checker-heavy


def _check_laws(jobs, rng, name, algebra):
    d, e = _symbols(LAWS_DOMAIN), _symbols(LAWS_EQUATION)
    budget = rng.randint(1900, 2100)
    body = {
        "algebra": algebra,
        "windows": {"domain": list(LAWS_DOMAIN), "equation": list(LAWS_EQUATION)},
        "mode": "randomized",
        "budget": budget,
        "seed": rng.randrange(2**31),
    }
    entries = [
        ["skew-symmetry", "exhaustive", d**3],
        ["fundamental-identity", "exhaustive", e**5],
        ["fundamental-identity", "randomized", budget],
    ]
    if algebra["kind"] == "a-omega-delta":
        entries += [
            ["relabel-intertwining", "exhaustive", d**3],
            ["commutative-associative", "exhaustive", d**2 + d**3],
        ]
        # index scaling, then the scaled L shifts k = -3..3
        entries += [["product-derivation-rule", "exhaustive", d**2]] * 8
        entries.append(["involutive-morphism", "exhaustive", d + d**2])
    _cli_job(jobs, name, "check-laws", body, entries)


def _closure_window(f_support, c_support, d_support, k):
    """The support closure of a rank-one family, padded by the shift."""
    base = set(f_support) | set(c_support) | set(d_support)
    sums = {a + b for a in base for b in base}
    closure = base | sums | {s + k for s in sums}
    return (min(closure) - abs(k), max(closure) + abs(k))


def _verify_tp(jobs, rng, name, f_value, poisson_side):
    """verify-tp on a rank-one family f = {0: f_value}, shift 1.

    The Poisson side puts d on an index where f vanishes and leaves c
    empty; the other side puts d on the support of f and adds c.
    """
    k = 1
    f = {0: f_value}
    d_seq = {1: (_nonzero(rng), Fraction(0))} if poisson_side else {0: (_nonzero(rng), Fraction(0))}
    c = {} if poisson_side else {1: (_nonzero(rng), Fraction(0))}
    alpha = [Fraction(0), Fraction(0)]
    for q, (dre, dim) in d_seq.items():
        fre, fim = f.get(q, (Fraction(0), Fraction(0)))
        alpha[0] += fre * dre - fim * dim
        alpha[1] += fre * dim + fim * dre
    classification = (
        "poisson-and-transposed" if not any(alpha) and not c else "transposed-only"
    )
    budget = rng.randint(450, 550)
    body = {
        "algebra": {"kind": "a-f-k", "k": k, "f": {str(i): _scalar_text(v) for i, v in f.items()}},
        "tp_params": {
            "example_family": {
                "d_seq": {str(i): _scalar_text(v) for i, v in d_seq.items()},
                "c": {str(i): _scalar_text(v) for i, v in c.items()},
            }
        },
        "mode": "randomized",
        "budget": budget,
        "seed": rng.randrange(2**31),
    }
    closure = _closure_window(f, c, d_seq, k)
    n = _symbols(closure)
    poisson_cases = n**4 if classification == "poisson-and-transposed" else None
    entries = [
        ["tp-params-valid", None, None],
        ["commutative-associative", "exhaustive", n**2 + n**3],
        ["transposed-leibniz", "exhaustive", n**4],
        ["transposed-leibniz", "randomized", budget],
        ["poisson-dichotomy", "exhaustive", poisson_cases],
    ]
    details = {
        "commutative-associative": {"window": list(closure)},
        "poisson-dichotomy": {"classification": classification},
    }
    _cli_job(jobs, name, "verify-tp", body, entries, details)


def _laws(rng):
    jobs = []
    _check_laws(jobs, rng, "check-laws a-omega-delta", {"kind": "a-omega-delta"})
    _check_laws(jobs, rng, "check-laws omega-form", {"kind": "a-omega-delta-omega-form"})
    functionals = (
        ("real", {"0": _scalar_text((_nonzero(rng), Fraction(0)))}),
        ("gaussian", {"0": _scalar_text(GAUSSIAN_F)}),
        ("two-point", {"0": _scalar_text((_nonzero(rng), Fraction(0))),
                       "1": _scalar_text((_nonzero(rng), Fraction(0)))}),
    )
    for label, f in functionals:
        algebra = {"kind": "a-f-k", "k": rng.randint(-2, 2), "f": f}
        _check_laws(jobs, rng, f"check-laws a-f-k {label}", algebra)
    for label, f_value in (("real", (_nonzero(rng), Fraction(0))), ("gaussian", GAUSSIAN_F)):
        for side in (True, False):
            side_name = "poisson" if side else "transposed-only"
            _verify_tp(jobs, rng, f"verify-tp {label} {side_name}", f_value, side)
    _cli_job(
        jobs,
        "generators",
        "generators",
        {"algebra": {"kind": "a-omega-delta"}, "windows": {"domain": list(GENERATORS_DOMAIN)}},
        [["generator-closure", None, None]],
        {"generator-closure": {"spanned": True}},
    )
    for k in range(-4, 5):
        text = json.dumps({"k": k, "window": list(C05_WINDOW)})
        expect = {
            "entries": [["one-third-derivation", "exhaustive", _symbols(C05_WINDOW) ** 3]],
            "details": {},
        }
        jobs.append(Job(len(jobs), f"uniform-shift {k}", "uniform-shift", text, expect))
    return jobs


# ---------------------------------------------------------------------------
# derive-graded: tall integer systems


def _derive_graded(rng):
    jobs = []
    for degree in range(-3, 4):
        body = {
            "algebra": {"kind": "a-omega-delta"},
            "windows": {
                "domain": list(GRADED_DOMAIN),
                "equation": list(GRADED_DOMAIN),
                "core": list(GRADED_CORE),
            },
            "degree": degree,
        }
        _cli_job(
            jobs,
            f"graded degree {degree}",
            "solve-derivations",
            body,
            [["derivation-classification", None, None]],
            {"derivation-classification": {"core_dimension": 1, "expected_core_dimension": 1}},
        )
    n = _size(TRIVIALITY_WINDOW)
    _cli_job(
        jobs,
        "tp-triviality",
        "tp-triviality",
        {"windows": {"index": list(TRIVIALITY_WINDOW), "basis": list(TRIVIALITY_WINDOW)}},
        [["tp-triviality", None, None]],
        {"tp-triviality": {"dimension": 0, "num_unknowns": 2 * n * n, "num_rows": 2 * n**3}},
    )
    return jobs


# ---------------------------------------------------------------------------
# derive-wide: short wide systems, half of them Gaussian


def _derive_wide(rng):
    jobs = []
    for domain, core in WIDE_WINDOWS:
        real = {"0": _scalar_text((_nonzero(rng), Fraction(0))),
                "1": _scalar_text((_nonzero(rng), Fraction(0)))}
        gaussian = {"0": _scalar_text(GAUSSIAN_F), "1": "2"}
        for label, f in (("real", real), ("gaussian", gaussian)):
            body = {
                "algebra": {"kind": "a-f-k", "k": 1, "f": f},
                "windows": {
                    "domain": list(domain),
                    "equation": list(domain),
                    "core": list(core),
                    "image": list(domain),
                },
            }
            dim = 1 + _size(core) ** 2
            _cli_job(
                jobs,
                f"full-window {domain} {label}",
                "solve-derivations",
                body,
                [["derivation-classification", None, None]],
                {"derivation-classification": {"core_dimension": dim, "expected_core_dimension": dim}},
            )
    return jobs


_JOB_LISTS = {"laws": _laws, "derive-graded": _derive_graded, "derive-wide": _derive_wide}


def job_list(workload, seed):
    """The workload's jobs for a seed, in a seeded order, numbered 0..n-1."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _JOB_LISTS[workload](rng)
    rng.shuffle(jobs)
    return [Job(i, j.name, j.kind, j.text, j.expect) for i, j in enumerate(jobs)]


# ---------------------------------------------------------------------------
# oracle


def problems(job, report):
    """Differences between a job's parsed report and its known answer."""
    out = []
    if report.get("verdict") != "pass":
        out.append(f"verdict {report.get('verdict')!r}, expected 'pass'")
    entries = report.get("entries", [])
    got = [[e.get("law"), e.get("mode"), e.get("cases_run")] for e in entries]
    if got != job.expect["entries"]:
        out.append(f"entries {got} differ from expected {job.expect['entries']}")
    for entry in entries:
        if not entry.get("passed"):
            out.append(f"law {entry.get('law')!r} did not pass")
        for key, value in job.expect["details"].get(entry.get("law"), {}).items():
            have = entry.get("details", {}).get(key)
            if have != value:
                out.append(f"{entry.get('law')}.{key} is {have!r}, expected {value!r}")
    return out

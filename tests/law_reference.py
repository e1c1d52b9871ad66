"""Law drivers that evaluate every tuple of their stream on memoized
kernels: the oracles for `checks.run_law`, which evaluates one tuple per
orbit of a law's alternating slot groups when the brackets are
antisymmetric, and runs randomized checks on unmemoized kernels with
symbols drawn from prebuilt lists."""

import itertools
import random

from translie.algebras import kernels
from translie.checks import (
    DEFAULT_RANDOM_WINDOW,
    CheckReport,
    _memoized,
    _violation,
    _witness,
    window_symbols,
)
from translie.elements import BasisSymbol


def random_symbol_randint(rng):
    """A family with even odds, then rng.randint over DEFAULT_RANDOM_WINDOW."""
    fam = "L" if rng.random() < 0.5 else "M"
    return BasisSymbol(fam, rng.randint(DEFAULT_RANDOM_WINDOW.lo, DEFAULT_RANDOM_WINDOW.hi))


def _run_streams(spec, defs, report, streams, stop_at_first):
    """One case per tuple of each part's stream, every law of the part
    evaluated on it; with `stop_at_first` the run ends at the first
    violation, unsorted."""
    k = _memoized(kernels(defs))
    for laws in spec.parts:
        for tup in streams(laws[0].arity):
            report.cases_run += 1
            for law in laws:
                lhs, rhs = law.sides(k, *tup)
                if lhs != rhs:
                    report.violations.append(_violation(law, tup, _witness(law, lhs, rhs)))
                    if stop_at_first:
                        return report
    return report.sort_violations()


def run_law_ordered(spec, defs, w, stop_at_first=False):
    """Every ordered tuple of the window, in product order, one case each."""
    report = CheckReport(law=spec.name, mode="exhaustive", cases_run=0)

    def streams(arity):
        return itertools.product(window_symbols(w), repeat=arity)

    return _run_streams(spec, defs, report, streams, stop_at_first)


def run_law_sampled(spec, defs, samples, seed=0, stop_at_first=False):
    """`samples` seeded tuples per part, each symbol drawn with
    random_symbol_randint."""
    report = CheckReport(law=spec.name, mode="randomized", cases_run=0, seed=seed)
    rng = random.Random(seed)

    def streams(arity):
        for _ in range(samples):
            yield tuple(random_symbol_randint(rng) for _ in range(arity))

    return _run_streams(spec, defs, report, streams, stop_at_first)

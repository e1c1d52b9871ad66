"""The exhaustive law driver that evaluates every ordered tuple: the oracle
for `checks.run_law`, which evaluates one tuple per orbit of a law's
alternating slot groups when the brackets are antisymmetric."""

import itertools

from translie.algebras import kernels
from translie.checks import CheckReport, _memoized, _violation, _witness, window_symbols


def run_law_ordered(spec, defs, w, stop_at_first=False):
    """Every ordered tuple of the window, in product order, one case each;
    with `stop_at_first` the run ends at the first violation, unsorted."""
    report = CheckReport(law=spec.name, mode="exhaustive", cases_run=0)
    k = _memoized(kernels(defs))
    for laws in spec.parts:
        for tup in itertools.product(window_symbols(w), repeat=laws[0].arity):
            report.cases_run += 1
            for law in laws:
                lhs, rhs = law.sides(k, *tup)
                if lhs != rhs:
                    report.violations.append(_violation(law, tup, _witness(law, lhs, rhs)))
                    if stop_at_first:
                        return report
    return report.sort_violations()

"""The generator closure that tests every target after each whole round:
the oracle for `checks.generator_closure`, which returns as soon as an
insert spans the last target."""

import itertools
from math import comb

from translie.algebras import kernels
from translie.checks import ClosureResult, Window, window_symbols
from translie.elements import extend
from translie.errors import BudgetExceededError, require_budget
from translie.linalg import LeadSpan


def generator_closure_full_rounds(bdef, gens, w, max_rounds=16, margin=None):
    """Bracket every triple of each round, then test every target symbol;
    the same budgets and errors, except that with `max_rounds` 0 it says
    the closure is still growing after 0 rounds."""
    if not gens:
        raise ValueError("generator_closure requires at least one generator")
    if margin is None:
        margin = w.size
    extended = Window(w.lo - margin, w.hi + margin)
    require_budget(2 * w.size, f"generator closure needs {2 * w.size} target symbols")
    targets = window_symbols(w)
    kernel = kernels({"bracket": bdef}).bracket
    span = LeadSpan()

    def missing():
        return [t for t in targets if span.reduce({t: 1})]

    for g in gens:
        if g:
            span.insert(dict(g.terms))
    if not missing():
        return ClosureResult(True, 0, [])

    old_start = 0
    for round_no in range(1, max_rounds + 1):
        snapshot = list(span.rows.values())
        n = len(snapshot)
        triples = comb(n, 3) - comb(old_start, 3)
        require_budget(triples, f"closure round {round_no} needs {triples} bracket triples")
        grew = False
        for i, j in itertools.combinations(range(n), 2):
            for k in range(max(j + 1, old_start), n):
                br = extend(kernel, snapshot[i], snapshot[j], snapshot[k])
                if br and all(extended.contains(sym.index) for sym in br):
                    grew = span.insert(br) or grew
        old_start = n
        left = missing()
        if not left:
            return ClosureResult(True, round_no, [])
        if not grew:
            return ClosureResult(False, round_no, left)
    raise BudgetExceededError(
        f"generator closure still growing after {max_rounds} rounds"
    )

"""The nullspace basis read off the reduced row echelon form: the oracle
for `linalg.nullspace`'s column elimination, which must give the same
vectors in the same order; and a fault injected into that elimination."""

from translie import linalg
from translie.linalg import ConstraintSystem, SolutionSpace, _gcd, _normal_form, _rref

from spaces import rank


def reference_basis(system):
    """The basis of the system's nullspace, one normal-form vector per free
    column of the RREF of its rows' distinct normal forms, in ascending free
    column.

    The free column j gets m, the lcm of the leads b of the pivots it
    appears in, and each such pivot's lead column gets -v * (m // b), v
    being the pivot's value at j: the pivot is zero in every other lead
    column, so the vector leaves it zero.
    """
    n = system.num_unknowns
    pivots = _rref(list(dict.fromkeys(_normal_form(row) for row in system._rows)))
    scale = {j: 1 for j in range(n) if j not in pivots}
    for lead, prow in pivots.items():
        b = prow[lead]
        for col in prow:
            if col != lead:
                m = scale[col]
                scale[col] = m * b // _gcd(m, b)
    free = {j: {j: m} for j, m in scale.items()}
    for lead, prow in pivots.items():
        b = prow[lead]
        for col, v in prow.items():
            if col != lead:
                free[col][lead] = -v * (scale[col] // b)
    return SolutionSpace(list(system.unknowns), list(free.values())).basis


def eliminate_before_last_cutting_row(monkeypatch):
    """Make nullspace eliminate only the rows before the system's last
    cutting row, the row that brings the rows before it to full rank: a
    fault that drops one pivot, so the basis it verifies misses a row."""
    eliminate = linalg._nullspace_basis

    def faulty(system):
        rows = system._rows
        full, lo, hi = rank(rows), 0, len(rows)
        while lo < hi:  # the least prefix length of full rank
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if rank(rows[:mid]) == full else (mid + 1, hi)
        prefix = ConstraintSystem(list(system.unknowns))
        for row in rows[:max(lo - 1, 0)]:
            prefix.add_columns(row)
        return eliminate(prefix)

    monkeypatch.setattr(linalg, "_nullspace_basis", faulty)

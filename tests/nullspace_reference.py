"""The reduced row echelon form by incremental elimination, and the
nullspace basis read off it: the oracles for `linalg.LeadSpan.rref` and for
`linalg.nullspace`'s column elimination, which must give the same pivots,
and the same vectors in the same order; and a fault injected into that
elimination."""

from translie import linalg
from translie.linalg import (
    ConstraintSystem,
    SolutionSpace,
    _gcd,
    _make_primitive,
    _normal_form,
    _subtract,
)

from spaces import rank


def _rref(forms):
    """Reduced row echelon form of the span of the forms, each a map or
    (column, value) pairs of ints and GaussInts: {lead column: row}.

    Each pivot row's smallest column is its lead, and it is zero in every
    other pivot's lead column.  Pivots are primitive over Z, or over Z[i]
    when they have a GaussInt, with a canonical lead (the RREF row is the
    pivot divided by its lead); a row's content is divided out when it
    becomes a pivot and after each clear of a later pivot out of it.
    """
    pivots = {}
    for form in forms:
        row = dict(form)
        for col in [c for c in row if c in pivots]:
            _subtract(row, row[col], pivots[col][col], pivots[col])
        if not row:
            continue
        lead = min(row)
        _make_primitive(row, lead)
        for prow in pivots.values():
            if lead in prow:
                _subtract(prow, prow[lead], row[lead], row)
                _make_primitive(prow, min(prow))
        pivots[lead] = row
    return pivots


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

"""Exact nullspace computation for sparse homogeneous systems.

Rows are sparse maps column -> coefficient over an ordered list of named
unknowns.  A system keeps each row once, in its own coefficient type, plus
a Scalar view of them, and the distinct normal forms of its rows: a real
row becomes the primitive integer row with a positive leading coefficient,
a row with an imaginary coefficient becomes monic.  Rows are homogeneous,
so rows with one normal form impose one constraint; elimination and
verification run on the distinct forms only.  Verification indexes the
basis vectors by column and streams the distinct forms once, so each form
is dotted only with the vectors that share a column with it: a vector that
shares none leaves the form exactly zero.

Elimination is one incremental reduced row echelon form: each incoming row
is cleared against the pivots, becomes a pivot at its smallest column, and
is cleared out of the earlier pivots, so the pivots stay fully reduced as
rows arrive.  Integer rows stay fraction-free (Bareiss, Math. Comp. 1968):
clearing keeps a row's content, which is divided out once per reduced row,
so every pivot is a primitive integer row.  When any row is Gaussian, all
rows are lifted to monic rows over the Gaussian rationals.  The RREF is
unique, so the output does not depend on row order: the nullspace basis has
one sparse vector per free column, normalized so its first nonzero
coordinate is 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import UnknownNotFoundError, VerificationError, require_budget
from .scalars import Scalar, ONE, from_int


class UnknownId(NamedTuple):
    name: str
    subs: tuple

    def __str__(self):
        return f"{self.name}[{','.join(str(s) for s in self.subs)}]"


def unknown(name, *subs):
    if not 1 <= len(subs) <= 3:
        raise ValueError("unknowns carry between one and three subscripts")
    return UnknownId(name, tuple(int(s) for s in subs))


@dataclass
class ConstraintSystem:
    """Homogeneous linear system, rhs = 0.

    Each row is kept once, as added, in its own coefficient type: a map
    column -> int, or column -> Scalar, duplicates included; rows gives them
    all as maps column -> Scalar, built on access.  provenance holds one
    tuple (name, *indices, symbol) or None per row; distinct maps each
    distinct normal form (a tuple of (column, value) pairs sorted by column)
    to the index of its first row.  Rows are added through add_columns only,
    which keeps the three in step; add_row is its UnknownId form.
    """

    unknowns: list = field(default_factory=list)
    provenance: list = field(default_factory=list)
    distinct: dict = field(default_factory=dict)
    _rows: list = field(default_factory=list, repr=False)
    _index: dict = field(default_factory=dict, repr=False)

    def register(self, uid):
        idx = self._index.get(uid)
        if idx is None:
            idx = len(self.unknowns)
            self._index[uid] = idx
            self.unknowns.append(uid)
        return idx

    def column_of(self, uid):
        try:
            return self._index[uid]
        except KeyError:
            raise UnknownNotFoundError(f"unregistered unknown {uid}") from None

    @property
    def rows(self):
        """Every row as added, as a new map column -> Scalar."""
        return [
            {col: from_int(v) if type(v) is int else v for col, v in row.items()}
            for row in self._rows
        ]

    def add_columns(self, row, provenance=None):
        """row: map column -> nonzero coefficient, all ints or all Scalars,
        kept as given (the caller gives it up); an empty row adds nothing."""
        if row:
            self._rows.append(row)
            self.provenance.append(provenance)
            self.distinct.setdefault(_normal_form(row), len(self._rows) - 1)
        return row

    def add_row(self, coeffs, provenance=None):
        """coeffs: map UnknownId -> int or Scalar; zero coefficients are
        dropped, and ints are lifted when the row has a Scalar."""
        try:
            row = {self._index[uid]: coeff for uid, coeff in coeffs.items() if coeff}
        except KeyError as exc:
            raise UnknownNotFoundError(f"unregistered unknown {exc.args[0]}") from None
        if any(type(v) is not int for v in row.values()):
            row = {col: from_int(v) if type(v) is int else v for col, v in row.items()}
        return self.add_columns(row, provenance)

    def describe(self, index):
        """A row's provenance as text, e.g. "LLM(-1,1,0)@L_1"."""
        prov = self.provenance[index]
        if prov is None:
            return f"row {index}"
        name, *args, sym = prov
        return f"{name}({','.join(map(str, args))})@{sym}"

    @property
    def num_unknowns(self):
        return len(self.unknowns)

    def rank(self):
        """Rank of the system, read off its distinct normal forms."""
        return len(_rref(*_lifted(list(self.distinct))))


@dataclass
class SolutionSpace:
    """Exact basis of a nullspace: sparse maps column -> Scalar, a column
    being a position in unknowns, storing no zeros; nullspace and
    project_solution return vectors that are 1 at their smallest column."""

    unknowns: list
    basis: list  # list[dict[int, Scalar]]

    @property
    def dimension(self):
        return len(self.basis)

    def vector_as_dict(self, vector_index):
        """One basis vector by unknown, in column order."""
        vec = self.basis[vector_index]
        return {self.unknowns[col]: vec[col] for col in sorted(vec)}

    def verify_against(self, system):
        """Substitute every basis vector into every row; exact zero required."""
        return self.first_residual(system) is None

    def first_residual(self, system):
        """(basis vector index, row index) of the first row left nonzero, or None."""
        for idx, row in enumerate(self.residuals(system)):
            if row is not None:
                return idx, row
        return None

    def residuals(self, system):
        """For each basis vector, the index of the first row it leaves
        nonzero, or None; the system must register every unknown.

        Only the distinct normal forms are substituted: every row is a
        nonzero multiple of one of them, so this checks every row.  The
        vectors are indexed by column and the forms streamed once, in
        order: a form meets only the vectors that share a column with it,
        as the others leave it exactly zero.  Integer forms are checked in
        integers against the real and the imaginary part of each vector,
        each scaled to integers; Gaussian forms against the vector itself.
        """
        col_map = [system.column_of(uid) for uid in self.unknowns]
        integer = _column_index(self.basis, col_map, True)
        gaussian = _column_index(self.basis, col_map, False)
        first = [None] * len(self.basis)
        for form, row in system.distinct.items():
            by_column, owner = integer if type(form[0][1]) is int else gaussian
            totals = {}
            for col, coeff in form:
                for key, v in by_column.get(col, ()):
                    total = totals.get(key)
                    totals[key] = coeff * v if total is None else total + coeff * v
            for key, total in totals.items():
                if total and first[owner[key]] is None:
                    first[owner[key]] = row
        return first


def _column_index(vectors, col_map, integer):
    """Sparse vectors by column col_map[c] for each of their columns c:
    ({column: [(key, value), ...]}, owner), owner[key] being the index of
    the vector the entry belongs to.  With integer, each vector's nonzero
    real and imaginary parts, scaled to integers, get a key of their own;
    else a key is a vector index and the values are the vector's Scalars."""
    by_column = {}
    owner = []
    for idx, vec in enumerate(vectors):
        parts = [_int_part(vec, "re"), _int_part(vec, "im")] if integer else [vec]
        for part in parts:
            if part:
                key = len(owner)
                owner.append(idx)
                for col, v in part.items():
                    by_column.setdefault(col_map[col], []).append((key, v))
    return by_column, owner


def _int_part(vec, attr):
    """Real or imaginary part of a sparse Scalar vector, times the lcm of
    its denominators."""
    part = {col: getattr(v, attr) for col, v in vec.items()}
    den = lcm(*[q.denominator for q in part.values()])
    return {col: q.numerator * (den // q.denominator) for col, q in part.items() if q}


# ---------------------------------------------------------------------------
# normal forms and elimination


def _normal_form(row):
    """The canonical multiple of a nonzero row, as (column, value) pairs:
    primitive integers with a positive lead when the row is real, monic
    Scalars otherwise."""
    items = sorted(row.items())
    lead = items[0][1]
    if type(lead) is int:
        g = gcd(*row.values())
        if lead < 0:
            g = -g
        return tuple(items) if g == 1 else tuple([(c, v // g) for c, v in items])
    if any(v.im for _, v in items):
        return ((items[0][0], ONE),) + tuple((c, v / lead) for c, v in items[1:])
    den = lcm(*[v.re.denominator for _, v in items])
    return _normal_form({c: v.re.numerator * (den // v.re.denominator) for c, v in items})


def _lifted(forms):
    """Normal forms ready for one elimination, and whether they are integer.

    When any form is Gaussian, the integer forms are lifted to monic Scalar
    forms and the result is deduplicated again.
    """
    if all(type(form[0][1]) is int for form in forms):
        return forms, True
    return list(dict.fromkeys(_monic(form) for form in forms)), False


def _monic(form):
    """A normal form as a monic Scalar form."""
    lead = form[0][1]
    if type(lead) is not int:
        return form
    return tuple((col, Scalar(Fraction(v, lead))) for col, v in form)


def _rref(forms, integer):
    """Reduced row echelon form of the span of the forms: {lead column: row}.

    Each pivot row's smallest column is its lead, and it is zero in every
    other pivot's lead column.  Integer pivots are primitive with a positive
    lead (the RREF row is the pivot divided by its lead); Scalar pivots are
    monic; an integer row's content is divided out when it becomes a pivot
    and after each clear of a later pivot out of it.
    """
    pivots = {}
    for form in forms:
        row = dict(form)
        for col in [c for c in row if c in pivots]:
            _clear(row, col, pivots[col], integer)
        if not row:
            continue
        lead = min(row)
        a = row[lead]
        if integer:
            _make_primitive(row, a)
        elif a != ONE:
            for col in row:
                row[col] = row[col] / a
        for prow in pivots.values():
            if lead in prow:
                _clear(prow, lead, row, integer)
                if integer:
                    _make_primitive(prow, 1)
        pivots[lead] = row
    return pivots


def _make_primitive(row, lead_value):
    """Divide an integer row in place by its content, signed like lead_value."""
    g = gcd(*row.values())
    if lead_value < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


def _clear(row, col, pivot, integer):
    """Zero row[col] in place by subtracting a multiple of pivot, whose lead
    is col; an integer row is first scaled by the pivot's lead value over
    their gcd, and keeps its content."""
    a = row[col]
    if integer:
        b = pivot[col]
        g = gcd(a, b)
        a //= g
        b //= g
        if b != 1:
            for c in row:
                row[c] *= b
    for c, v in pivot.items():
        cur = row.get(c)
        if cur is None:
            row[c] = -(a * v)
        else:
            cur = cur - a * v
            if cur:
                row[c] = cur
            else:
                del row[c]


class LeadSpan:
    """Rows kept one per leading column, in normal form (primitive ints when
    `integer`, else monic Scalars), reduced by leading column only: the
    generator closure brackets the kept rows and drops results that leave
    its window, so its result depends on this basis."""

    def __init__(self, integer):
        self.integer = integer
        self.rows = {}  # lead column -> row, a map column -> coefficient

    def normalized(self, row):
        """A nonzero row's normal form in this span's coefficient type."""
        form = _normal_form(row)
        return dict(form if self.integer else _monic(form))

    def reduce(self, row):
        """Reduce a row of this span's type in place; empty when in the span."""
        rows, integer = self.rows, self.integer
        while row and min(row) in rows:
            lead = min(row)
            _clear(row, lead, rows[lead], integer)
        return row

    def insert(self, row):
        """Reduce a row and keep its normal form; False when it was in the span."""
        if self.reduce(row):
            self.rows[min(row)] = self.normalized(row)
        return bool(row)


def _monic_vector(vec, integer):
    """A sparse vector of ints, Fractions or Scalars as Scalars, divided by
    its value at its smallest column."""
    first = vec[min(vec)]
    if integer:
        return {col: Scalar(Fraction(v, first)) for col, v in vec.items()}
    return {col: v / first for col, v in vec.items()}


def rank(rows):
    """Rank of a list of sparse Scalar rows (non-destructive)."""
    return len(_rref(*_lifted([_normal_form(row) for row in rows if row])))


def nullspace(system):
    """Exact basis of {v : Av = 0} for a homogeneous ConstraintSystem.

    dimension = num_unknowns - rank(A) by construction; every basis vector
    is substituted back into every row, and a residual raises
    VerificationError naming the row's provenance.  The budget bounds
    dimension × num_unknowns, the size of the basis that is verified and
    reported: a lower bound is checked before eliminating, the count itself
    before any vector is built.
    """
    space = SolutionSpace(unknowns=list(system.unknowns), basis=_nullspace_basis(system))
    if not space.verify_against(system):
        idx, row = space.first_residual(system)
        raise VerificationError(
            f"nullspace verification failed: basis vector {idx} leaves row "
            f"{system.describe(row)} nonzero"
        )
    return space


def _nullspace_basis(system):
    """One sparse vector per free column of the RREF, 1 at its smallest
    column; the elimination's rows are released on return, before the
    basis is verified.  The rank is at most the number of distinct forms,
    which bounds the basis size from below before eliminating."""
    n = system.num_unknowns
    least = (n - len(system.distinct)) * n
    require_budget(
        least,
        f"nullspace basis needs at least {least} entries "
        f"({n} unknowns, {len(system.distinct)} distinct rows)",
    )
    forms, integer = _lifted(list(system.distinct))
    pivots = _rref(forms, integer)
    vectors = n - len(pivots)
    entries = vectors * n
    require_budget(
        entries, f"nullspace basis needs {entries} entries ({vectors} vectors of {n} unknowns)"
    )
    one = 1 if integer else ONE
    free = {j: {j: one} for j in range(n) if j not in pivots}
    for lead, prow in pivots.items():
        b = prow[lead]
        for col, v in prow.items():
            if col != lead:
                free[col][lead] = Fraction(-v, b) if integer else -v
    return [_monic_vector(vec, integer) for vec in free.values()]


def project_solution(space, keep):
    """Coordinate projection of a solution space, re-reduced to a basis.

    keep: iterable of UnknownId; must be a subset of space.unknowns.  The
    kept coordinates stay in their original order, and each vector is
    restricted to them before the re-reduction.
    """
    keep = set(keep)
    missing = keep.difference(space.unknowns)
    if missing:
        raise UnknownNotFoundError(f"unknowns not in space: {sorted(map(str, missing))}")
    cols = [i for i, uid in enumerate(space.unknowns) if uid in keep]
    position = {col: j for j, col in enumerate(cols)}
    rows = [{position[c]: v for c, v in vec.items() if c in position} for vec in space.basis]
    forms, integer = _lifted([_normal_form(row) for row in rows if row])
    pivots = _rref(forms, integer)
    return SolutionSpace(
        unknowns=[space.unknowns[i] for i in cols],
        basis=[_monic_vector(pivots[lead], integer) for lead in sorted(pivots)],
    )

"""Exact nullspace computation for sparse homogeneous systems.

Rows are sparse maps column -> coefficient over an ordered list of named
unknowns.  A system keeps each row once, in its own coefficient type, plus
a Scalar view of them, and the distinct normal forms of its rows: the row
scaled to a primitive row over the integers, or over the Gaussian integers
Z[i] when it has an imaginary part, whose lead is in canonical form (see
scalars.unit): a positive int, or re > 0 and im >= 0.  So a row, its
multiples by i and 1+i and its rational multiples all have one form, and an
integer row's form is the same primitive integer row whichever of them it
came as.  Rows are homogeneous, so rows with one normal form impose one
constraint; elimination and verification run on the distinct forms only.
Verification indexes the basis vectors by column and streams the distinct
forms once, so each form is dotted only with the vectors that share a
column with it: a vector that shares none leaves the form exactly zero.

Elimination is one incremental reduced row echelon form: each incoming row
is cleared against the pivots, becomes a pivot at its smallest column, and
is cleared out of the earlier pivots, so the pivots stay fully reduced as
rows arrive.  It is fraction-free over Z, and over Z[i] where a Gaussian
integer enters (Bareiss, Math. Comp. 1968; Z[i] is Euclidean too): clearing
keeps a row's content, which is divided out once per reduced row, so every
pivot is primitive with a canonical lead.  The values say which ring they
are in: each gcd is math.gcd, or scalars.ggcd when math.gcd refuses a
GaussInt.  The RREF is unique, so the output does not depend on row
order: the nullspace basis has one sparse vector per free column, built in
Z[i] and kept, like every basis vector of a SolutionSpace, as its normal
form, the one rows get.  A projection re-reduces those vectors with the
same elimination, and verification dots them with the forms exactly in
Z[i]; Scalars appear only when a vector is reported, divided by its value
at its smallest column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import NamedTuple

from .errors import UnknownNotFoundError, VerificationError, require_budget
from .scalars import Scalar, gauss, ggcd, lift, ratio, unit


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
    """Homogeneous linear system, rhs = 0, over a list of distinct unknowns,
    column j being unknowns[j]; a repeated unknown raises ValueError.

    Each row is kept once, as added, in its own coefficient types: a map
    column -> int, GaussInt or Scalar, duplicates included; rows gives them
    all as maps column -> Scalar, built on access.  provenance holds one
    tuple (name, *indices, symbol) or None per row; distinct maps each
    distinct normal form (a tuple of (column, value) pairs sorted by column,
    the values ints or GaussInts) to the index of its first row.  Rows are
    added through add_columns only, which keeps them in step; add_row is
    its UnknownId form.
    """

    unknowns: list = field(default_factory=list)
    provenance: list = field(default_factory=list)
    distinct: dict = field(default_factory=dict)
    _rows: list = field(default_factory=list, repr=False)
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {}
        for col, uid in enumerate(self.unknowns):
            if self._index.setdefault(uid, col) != col:
                raise ValueError(f"unknown {uid} is repeated")

    def column_of(self, uid):
        try:
            return self._index[uid]
        except KeyError:
            raise UnknownNotFoundError(f"unknown {uid} is not in the system") from None

    @property
    def rows(self):
        """Every row as added, as a new map column -> Scalar."""
        return [{col: lift(v) for col, v in row.items()} for row in self._rows]

    def add_columns(self, row, provenance=None):
        """row: map column -> nonzero int, GaussInt or Scalar, kept as given
        (the caller gives it up); an empty row adds nothing."""
        if row:
            self._rows.append(row)
            self.provenance.append(provenance)
            self.distinct.setdefault(_normal_form(row), len(self._rows) - 1)
        return row

    def add_row(self, coeffs, provenance=None):
        """coeffs: map UnknownId -> int, GaussInt or Scalar; zero
        coefficients are dropped."""
        try:
            row = {self._index[uid]: coeff for uid, coeff in coeffs.items() if coeff}
        except KeyError as exc:
            raise UnknownNotFoundError(f"unknown {exc.args[0]} is not in the system") from None
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
        return len(_rref(list(self.distinct)))


@dataclass
class SolutionSpace:
    """Exact basis of a nullspace: sparse maps column -> int or GaussInt, a
    column being a position in unknowns, storing no zeros.  Each nonzero
    vector is kept as its normal form, the one rows get: primitive over Z,
    or over Z[i] when it has an imaginary part, canonical at its smallest
    column.  A vector given with Scalar entries is scaled to it, and zero
    entries are dropped, so equal bases span equal lines vector by vector;
    vector_as_dict gives a vector as Scalars, 1 at its smallest column."""

    unknowns: list
    basis: list  # list[dict[int, int | GaussInt]]

    def __post_init__(self):
        nonzero = ({c: v for c, v in vec.items() if v} for vec in self.basis)
        self.basis = [dict(_normal_form(vec)) if vec else {} for vec in nonzero]

    @property
    def dimension(self):
        return len(self.basis)

    def vector_as_dict(self, vector_index):
        """One basis vector by unknown, in column order, as Scalars divided
        by its value at its smallest column."""
        vec = self.basis[vector_index]
        cols = sorted(vec)
        return {self.unknowns[col]: ratio(vec[col], vec[cols[0]]) for col in cols}

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
        nonzero, or None; the system must have every unknown.

        Only the distinct normal forms are substituted: every row is a
        nonzero multiple of one of them, so this checks every row.  The
        vectors are indexed by column and the forms streamed once, in
        order: a form meets only the vectors that share a column with it,
        as the others leave it exactly zero.  Forms and vectors are both in
        Z[i], so every product is exact.
        """
        col_map = [system.column_of(uid) for uid in self.unknowns]
        by_column = {}
        for idx, vec in enumerate(self.basis):
            for col, v in vec.items():
                by_column.setdefault(col_map[col], []).append((idx, v))
        first = [None] * len(self.basis)
        for form, row in system.distinct.items():
            totals = {}
            for col, coeff in form:
                for idx, v in by_column.get(col, ()):
                    total = totals.get(idx)
                    totals[idx] = coeff * v if total is None else total + coeff * v
            for idx, total in totals.items():
                if total and first[idx] is None:
                    first[idx] = row
        return first


def _ring_part(vec):
    """A sparse Scalar vector times the lcm of its denominators, in Z[i]."""
    den = lcm(*[q.denominator for v in vec.values() for q in (v.re, v.im)])
    return {
        col: gauss(v.re.numerator * (den // v.re.denominator),
                    v.im.numerator * (den // v.im.denominator))
        for col, v in vec.items()
    }


# ---------------------------------------------------------------------------
# normal forms and elimination


def _int_form(row):
    """The normal form of a row of ints: the primitive row with a positive
    lead, as (column, value) pairs; TypeError on any other value."""
    items = sorted(row.items())
    g = gcd(*row.values())
    if items[0][1] < 0:
        g = -g
    return tuple(items) if g == 1 else tuple([(c, v // g) for c, v in items])


def _ring_form(row):
    """The normal form of a row of ints, GaussInts and Scalars: scaled by
    the lcm of its denominators to Z[i], then made primitive over Z[i]."""
    if any(type(v) is Scalar for v in row.values()):
        row = _ring_part({c: lift(v) for c, v in row.items()})
    else:
        row = dict(row)
    _make_primitive(row, min(row))
    return tuple(sorted(row.items()))


def _normal_form(row):
    """The canonical multiple of a nonzero row, as (column, value) pairs:
    primitive over Z or Z[i], its lead a positive int or canonical."""
    try:
        return _int_form(row)
    except TypeError:  # a GaussInt or a Scalar
        return _ring_form(row)


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
            _clear(row, col, pivots[col])
        if not row:
            continue
        lead = min(row)
        _make_primitive(row, lead)
        for prow in pivots.values():
            if lead in prow:
                _clear(prow, lead, row)
                _make_primitive(prow, min(prow))
        pivots[lead] = row
    return pivots


def _gcd(*values):
    """math.gcd of the values, or scalars.ggcd when one is a GaussInt."""
    try:
        return gcd(*values)
    except TypeError:  # a GaussInt, which math.gcd refuses
        return ggcd(*values)


def _make_primitive(row, lead):
    """Divide a row in place by its content, times the unit that leaves
    its value at column lead canonical: its sign over Z."""
    g = _gcd(*row.values())
    g *= unit(row[lead] // g)
    if g != 1:
        for c in row:
            row[c] //= g


def _clear(row, col, pivot):
    """Zero row[col] in place by subtracting a multiple of pivot, whose lead
    is col: the row is first scaled by the pivot's lead value over their
    gcd, and keeps its content."""
    a = row[col]
    b = pivot[col]
    g = _gcd(a, b)
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
    """Rows kept one per leading column, each in normal form (primitive
    over Z or Z[i]), reduced by leading column only with _rref's _clear:
    the generator closure brackets the kept rows and drops results that
    leave its window, so its result depends on this basis."""

    def __init__(self):
        self.rows = {}  # lead column -> row, a map column -> int or GaussInt

    def reduce(self, row):
        """Reduce a row of ints and GaussInts in place; empty when in the span."""
        rows = self.rows
        while row and min(row) in rows:
            lead = min(row)
            _clear(row, lead, rows[lead])
        return row

    def insert(self, row):
        """Reduce a row and keep its normal form; False when it was in the
        span.  A row with Scalar values, as a bracket with a rational value
        of f gives, is replaced by its normal form once a Scalar reaches its
        lead: the clears before only rescale it along its line mod the span."""
        try:
            self.reduce(row)
        except TypeError:  # a Scalar
            row = self.reduce(dict(_normal_form(row)))
        if row:
            self.rows[min(row)] = dict(_normal_form(row))
        return bool(row)


def rank(rows):
    """Rank of a list of sparse rows of ints, GaussInts or Scalars
    (non-destructive)."""
    system = ConstraintSystem()
    for row in rows:
        system.add_columns(row)
    return system.rank()


def nullspace(system):
    """Exact basis of {v : Av = 0} for a homogeneous ConstraintSystem, one
    normal-form vector per free column of the RREF.

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
    """One sparse vector in Z[i] per free column of the RREF; the
    elimination's rows are released on return, before the basis is
    verified.  The rank is at most the number of distinct forms, which
    bounds the basis size from below before eliminating.

    The free column j gets m, the lcm of the leads b of the pivots it
    appears in, and each such pivot's lead column gets -v * (m // b), v
    being the pivot's value at j: the pivot is zero in every other lead
    column, so the vector leaves it zero.
    """
    n = system.num_unknowns
    least = (n - len(system.distinct)) * n
    require_budget(
        least,
        f"nullspace basis needs at least {least} entries "
        f"({n} unknowns, {len(system.distinct)} distinct rows)",
    )
    pivots = _rref(list(system.distinct))
    vectors = n - len(pivots)
    entries = vectors * n
    require_budget(
        entries, f"nullspace basis needs {entries} entries ({vectors} vectors of {n} unknowns)"
    )
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
    return list(free.values())


def project_solution(space, keep):
    """Coordinate projection of a solution space, re-reduced to a basis:
    the RREF pivots of the restricted vectors, which are normal forms.

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
    pivots = _rref(rows)
    return SolutionSpace(
        unknowns=[space.unknowns[i] for i in cols],
        basis=[pivots[lead] for lead in sorted(pivots)],
    )

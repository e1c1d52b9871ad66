"""Exact nullspace computation for sparse homogeneous systems.

Rows are sparse maps column -> coefficient over an ordered list of named
unknowns.  A system keeps each row once, as given, in its own coefficient
type (int, GaussInt or Scalar), plus a Scalar view of them.  A row's normal
form is the row scaled to a primitive row over the integers, or over the
Gaussian integers Z[i] when it has an imaginary part, whose lead is in
canonical form (see scalars.unit): a positive int, or re > 0 and im >= 0.
So a row, its multiples by i and 1+i and its rational multiples all have
one form; basis vectors are kept as theirs.

The nullspace is found by column elimination, the transpose of an
incremental reduced row echelon form: the basis is updated and the rows are
not.  It starts from the unit vectors, each with an identity column on
which every other vector is zero, and dots each row with the vectors that
share a column with it.  A row that every vector leaves zero lies in the
span of the rows before it and costs that one sparse dot.  Otherwise the
row is taken in its normal form, the vector of least identity column j with
a nonzero dot d_j is removed, and every other vector i with d_i != 0
becomes the primitive d_j v_i - d_i v_j.  Column j is the lead the RREF
gives the row reduced by the rows before it, so the vectors left, in
ascending identity column, are those of the RREF's free columns, and the
basis does not depend on row order.  It is fraction-free over Z, and over
Z[i] where a Gaussian integer enters (Bareiss, Math. Comp. 1968; Z[i] is
Euclidean too).  The values say which ring they are in: each gcd is
math.gcd, or scalars.ggcd when math.gcd refuses a GaussInt.  Verification
indexes the basis vectors by column and streams the rows as given once,
exactly; Scalars appear only when a vector is reported, divided by its
value at its smallest column.  A LeadSpan, rows kept one per lead, gives
a system's rank and, back-substituted, a projection's basis.
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
    tuple (name, *indices, symbol) or None per row.  Rows are added through
    add_columns only, which keeps them in step; add_row is its UnknownId
    form.
    """

    unknowns: list = field(default_factory=list)
    provenance: list = field(default_factory=list)
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
        """Rank of the system: the rows a LeadSpan of them keeps."""
        return len(LeadSpan(dict(row) for row in self._rows).rows)


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

        The vectors are indexed by column and the rows, as given, streamed
        once, in order: a row meets only the vectors that share a column
        with it, as the others leave it exactly zero.  Vectors are in Z[i]
        and rows in Z[i] or Scalars, so every product is exact.
        """
        if not self.basis:
            return []
        col_map = [system.column_of(uid) for uid in self.unknowns]
        by_column = {}
        for idx, vec in enumerate(self.basis):
            for col, v in vec.items():
                by_column.setdefault(col_map[col], []).append((idx, v))
        first = [None] * len(self.basis)
        for index, row in enumerate(system._rows):
            totals = {}
            for col, coeff in row.items():
                for idx, v in by_column.get(col, ()):
                    totals[idx] = totals.get(idx, 0) + coeff * v
            for idx, total in totals.items():
                if total and first[idx] is None:
                    first[idx] = index
        return first


# ---------------------------------------------------------------------------
# normal forms and elimination


def _normal_form(row):
    """The canonical multiple of a nonzero row, as (column, value) pairs:
    primitive over Z or, if math.gcd refuses a value, over Z[i] after its
    Scalars' denominators are cleared; its lead a positive int or canonical."""
    try:
        g = gcd(*row.values())
    except TypeError:  # a GaussInt or a Scalar
        if any(type(v) is Scalar for v in row.values()):
            row = {c: lift(v) for c, v in row.items()}
            den = lcm(*[q.denominator for v in row.values() for q in (v.re, v.im)])
            row = {c: gauss(v.re.numerator * (den // v.re.denominator),
                            v.im.numerator * (den // v.im.denominator)) for c, v in row.items()}
        else:
            row = dict(row)
        _make_primitive(row, min(row))
        return tuple(sorted(row.items()))
    items = sorted(row.items())
    if items[0][1] < 0:
        g = -g
    return tuple(items) if g == 1 else tuple([(c, v // g) for c, v in items])


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


def _subtract(row, a, b, pivot):
    """row * b - pivot * a in place, a and b first divided by their gcd;
    entries that cancel are deleted."""
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
    """Rows kept one per leading column, each in normal form, reduced by
    leading column only: the generator closure brackets the kept rows and
    drops results that leave its window, so its result depends on this
    basis.  rref() back-substitutes them."""

    def __init__(self, rows=()):
        self.rows = {}  # lead column -> row, a map column -> int or GaussInt
        for row in rows:
            self.insert(row)

    def reduce(self, row):
        """Reduce a row of ints and GaussInts in place; empty when in the span."""
        rows = self.rows
        while row:
            lead = min(row)
            pivot = rows.get(lead)
            if pivot is None:
                break
            _subtract(row, row[lead], pivot[lead], pivot)
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

    def rref(self):
        """The span's RREF {lead: row}, in place: each row, last lead first,
        cleared at the other leads and made primitive at its lead."""
        rows = self.rows
        for lead in sorted(rows, reverse=True):
            row = rows[lead]
            for col in [c for c in row if c != lead and c in rows]:
                pivot = rows[col]
                _subtract(row, row[col], pivot[col], pivot)
            _make_primitive(row, lead)
        return rows


def nullspace(system):
    """Exact basis of {v : Av = 0} for a homogeneous ConstraintSystem, one
    normal-form vector per free column of the RREF.

    dimension = num_unknowns - rank(A) by construction; every basis vector
    is substituted back into every row as given, and a residual raises
    VerificationError naming the row's provenance.  The budget bounds
    dimension × num_unknowns, the size of the basis that is verified and
    reported: the rank is at most the row count, so (num_unknowns - rows) ×
    num_unknowns is checked before eliminating, and the count itself before
    the free columns no cutting row met get vectors and before verification.
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
    """One vector in Z[i] per free column, in ascending order, by column
    elimination over the rows as given (see the module docstring); a unit
    vector is built only when a cutting row first meets its column."""
    n = system.num_unknowns
    rows = system._rows
    least = (n - len(rows)) * n
    require_budget(
        least, f"nullspace basis needs at least {least} entries ({n} unknowns, {len(rows)} rows)"
    )
    vectors = {}  # identity column -> vector, a map column -> int or GaussInt
    by_column = {}  # column a cutting row met -> {identity column: vector nonzero there}
    for row in rows:
        dots = _dots(row, by_column)
        if dots is not None and not any(dots.values()):
            continue
        row = dict(_normal_form(row))
        for col in row:
            if col not in by_column:
                vectors[col] = {col: 1}
                by_column[col] = {col: vectors[col]}
        dots = {p: d for p, d in _dots(row, by_column).items() if d}
        j = min(dots)
        pivot, b = vectors.pop(j), dots.pop(j)
        for col in pivot:
            del by_column[col][j]
        for p, a in dots.items():
            vec = vectors[p]
            _subtract(vec, a, b, pivot)
            _make_primitive(vec, p)
            for col in pivot:
                if col in vec:
                    by_column[col][p] = vec
                else:
                    by_column[col].pop(p, None)
    dimension = n - (len(by_column) - len(vectors))  # a vector per met column, less one per cut
    entries = dimension * n
    require_budget(
        entries, f"nullspace basis needs {entries} entries ({dimension} vectors of {n} unknowns)"
    )
    return [vectors.get(j) or {j: 1} for j in range(n) if j in vectors or j not in by_column]


def _dots(row, by_column):
    """{identity column: row . vector} over the vectors that share a column
    with the row; None when a column of the row has met no cutting row, as
    then its unit vector, on which the row is nonzero, has not been built."""
    totals = {}
    for col, coeff in row.items():
        vecs = by_column.get(col)
        if vecs is None:
            return None
        for p, vec in vecs.items():
            totals[p] = totals.get(p, 0) + coeff * vec[col]
    return totals


def project_solution(space, keep):
    """Coordinate projection of a solution space, re-reduced to a basis:
    the rref() of a LeadSpan of the restricted vectors, in normal form.

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
    pivots = LeadSpan(rows).rref()
    return SolutionSpace(
        unknowns=[space.unknowns[i] for i in cols],
        basis=[pivots[lead] for lead in sorted(pivots)],
    )

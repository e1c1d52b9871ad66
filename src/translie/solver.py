"""Windowed constraint assembly and exact classification of 1/3-derivations.

An ansatz declares, in its image table, for every basis symbol of a
source window, a formal image with named unknown coefficients.  The
one-third-derivation law is then imposed on every bracket relation whose
participating symbols are representable, each comparison of basis
coefficients becoming one homogeneous row (scaled by 3 to stay
fraction-free):

    3 phi([x,y,z]) - [phi(x),y,z] - [x,phi(y),z] - [x,y,phi(z)] = 0.

Only canonically ordered triples x < y < z are assembled.  Every bracket
is totally antisymmetric, so the law's defect is too: a permuted triple
gives the same rows times the permutation sign, which have the same
normal forms, and a triple with a repeated symbol gives the zero row.
Triples that would reference an image of a symbol outside the source
window are skipped entirely rather than truncated.

In a full-window ansatz every L_r has the same image symbols (the L_i and
M_j of the image window, in one order), and so does every M_r; only the
unknowns differ.  So a bracket with one slot varied over a symbol's images,
such as [phi(x),y,z] term by term, depends on the varied symbol's family
and the two fixed symbols, never on the varied symbol's index.  One
assembly computes each such bracket once, in a table that lives for that
call only and keeps the nonzero values alone, and reads each term's
unknown from the varied symbol's own image list.  The terms, and the order
they are added in, are those of bracketing every image again, so the rows
are the same.  A graded image list has 2 entries that move with the index,
so graded ansatze get no table.  The ansatz's image table is mapped to
(column, image symbol) pairs once per assembly, so each row is built on
columns for the column intake.

Solving happens over the full window; the classification is asserted only
on the projection to a core window kept away from the boundary, where the
finite system carries the same information as the infinite one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .algebras import AFK, A_OMEGA_DELTA
from .checks import Window
from .elements import BasisSymbol, L, M
from .errors import EmptySystemError, require_budget
from .linalg import ConstraintSystem, SolutionSpace, nullspace, project_solution, unknown

_PATTERNS = (
    ("LLM", ("L", "L", "M")),
    ("LMM", ("L", "M", "M")),
    ("LLL", ("L", "L", "L")),
    ("MMM", ("M", "M", "M")),
)


@dataclass(frozen=True)
class Ansatz:
    """Formal images of the symbols of the domain window.  Graded exactly
    when image is None: phi(L_r) = a[r] L_{r+degree} + b[r] M_{r+degree},
    phi(M_r) likewise with c and d.  Full window otherwise: phi(L_r) =
    sum_i a[r,i] L_i + sum_j b[r,j] M_j over the image window, phi(M_r)
    likewise with c and d."""

    domain: Window
    degree: int = 0
    image: Window | None = None

    def _targets(self, r):
        """(image index, unknown subscripts after r) of each image term of
        the symbols of index r, in image order."""
        if self.image is None:
            return [(r + self.degree, ())]
        return [(i, (i,)) for i in self.image.indices()]

    @property
    def num_unknowns(self):
        """len(unknown_ids()), without building them."""
        return 4 * self.domain.size * (1 if self.image is None else self.image.size)

    def unknown_ids(self):
        """Every unknown, in column order: by name a, b, c, d, then source
        index, then image index."""
        return [
            unknown(name, r, *subs)
            for name in "abcd"
            for r in self.domain.indices()
            for _, subs in self._targets(r)
        ]

    def images(self):
        """The image table: {symbol: [(unknown, image symbol)]} for every
        symbol of the domain, the L terms of its image before the M terms.
        A symbol outside the domain has no entry, which makes any equation
        triple that needs its image unusable."""
        table = {}
        for r in self.domain.indices():
            targets = self._targets(r)
            for fam, first, second in (("L", "a", "b"), ("M", "c", "d")):
                table[BasisSymbol(fam, r)] = [
                    (unknown(first, r, *subs), L(i)) for i, subs in targets
                ] + [(unknown(second, r, *subs), M(i)) for i, subs in targets]
        return table


def ansatz_for(bdef, domain, degree=0, image=None):
    """The ansatz classified for an algebra: graded for the shifted
    bracket, full window over the image (default: the domain) for a-f-k.
    An image window for the graded ansatz, or a nonzero degree for the full
    window, raises ValueError rather than being ignored."""
    if bdef.kind == A_OMEGA_DELTA:
        if image is not None:
            raise ValueError(f"{bdef.kind} has a graded ansatz, which takes no image window")
        return Ansatz(domain, degree)
    if bdef.kind == AFK:
        if degree:
            raise ValueError(
                f"{bdef.kind} has a full-window ansatz, which takes no degree (got {degree})"
            )
        return Ansatz(domain, image=domain if image is None else image)
    raise ValueError(f"no classification defined for bracket {bdef.kind!r}")


def assemble_system(bdef, ansatz, eq_window):
    """Impose the one-third-derivation law on all representable triples.

    Only canonically ordered triples are enumerated: r < s in LLM, s < t in
    LMM, r < s < t in LLL and MMM.  The law's defect is totally
    antisymmetric like the bracket, so any other triple repeats one of
    these rows up to sign or gives none.  The triple count, then the
    ansatz's unknown count, is checked against the budget before anything
    is enumerated.

    Each basis-symbol coordinate of each qualifying relation instance
    contributes one homogeneous row, with provenance (pattern, r, s, t,
    coordinate symbol), in the coefficients of the bracket's terms: in Z[i]
    (ints and GaussInts) where every structure constant is a Gaussian
    integer as given, f = 1+i included, with Scalars where a rational or
    Gaussian-rational value of f enters.

    When the ansatz is full window, so that every symbol of a family has
    one image-symbol list, the varied-slot brackets come from a SlotTable
    made for this call: the bracket of the image at position p with the two
    other symbols fixed is the same for every varied symbol of the family,
    so it is computed once, only nonzero values are kept, and the unknown
    at position p of the varied symbol's own image list takes it.  Graded
    ansatze bracket each image directly.  Either way the same (column,
    terms) pairs reach one accumulation loop in the same order, and each
    row goes to ConstraintSystem.add_columns.  The ansatz's image table is
    mapped to columns once, after both budget checks.
    """
    n = eq_window.size
    triples = 2 * comb(n, 2) * n + 2 * comb(n, 3)
    require_budget(triples, f"assembly needs {triples} equation triples")
    require_budget(ansatz.num_unknowns, f"ansatz needs {ansatz.num_unknowns} unknowns")
    system = ConstraintSystem(ansatz.unknown_ids())
    images = {
        sym: [(system.column_of(uid), img) for uid, img in pairs]
        for sym, pairs in ansatz.images().items()
    }
    bracket = bdef.terms
    table = None if ansatz.image is None else SlotTable(bracket)
    # the representable symbols of the equation window, by family, in index
    # order; a triple with an unrepresentable symbol gives no equation
    representable = {}
    for fam in "LM":
        syms = [BasisSymbol(fam, i) for i in eq_window.indices()]
        representable[fam] = [(sym, images[sym]) for sym in syms if sym in images]
    qualifying = 0
    for pattern_name, (fx, fy, fz) in _PATTERNS:
        xs, ys, zs = representable[fx], representable[fy], representable[fz]
        for px, (x, img_x) in enumerate(xs):
            for py in range(px + 1 if fy == fx else 0, len(ys)):
                y, img_y = ys[py]
                for z, img_z in zs[py + 1:] if fz == fy else zs:
                    lhs_images = []
                    ok = True
                    for coeff, out in bracket(x, y, z):
                        img_out = images.get(out)
                        if img_out is None:
                            ok = False
                            break
                        lhs_images.append((3 * coeff, img_out))
                    if not ok:
                        continue
                    qualifying += 1

                    form = {}
                    for coeff, img_out in lhs_images:
                        for col, img in img_out:
                            _form_add(form, img, col, coeff)
                    if table is None:
                        varied = _direct(bracket, x, y, z, img_x, img_y, img_z)
                    else:
                        varied = (
                            table.pairs(0, fx, (y, z), img_x)
                            + table.pairs(1, fy, (x, z), img_y)
                            + table.pairs(2, fz, (x, y), img_z)
                        )
                    for col, terms in varied:
                        for c2, out2 in terms:
                            _form_add(form, out2, col, -c2)
                    for out_sym in sorted(form):
                        system.add_columns(
                            form[out_sym], (pattern_name, x.index, y.index, z.index, out_sym)
                        )
    if qualifying == 0:
        raise EmptySystemError("no triple of distinct symbols is representable in the ansatz")
    return system


def _direct(bracket, x, y, z, img_x, img_y, img_z):
    """(column, terms) of each varied-slot bracket, bracketing every image."""
    return (
        [(col, bracket(img, y, z)) for col, img in img_x]
        + [(col, bracket(x, img, z)) for col, img in img_y]
        + [(col, bracket(x, y, img)) for col, img in img_z]
    )


class SlotTable:
    """Nonzero kernel values with one argument varied over a family's
    shared image symbols, filled lazily; one table serves one assembly.

    The key is (slot, family of the varied symbol, the fixed arguments in
    order); the entry lists (position in the family's image list, terms)
    for each image symbol whose value is nonzero.  The entry depends on the
    varied symbol's family only, never on its index, so it is exact only
    for an ansatz whose symbols of one family share one image-symbol list
    (a full-window one); the unknowns are read from the varied symbol's
    own image list, of (column, image symbol) pairs, at each position.
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self._entries = {}

    def pairs(self, slot, family, fixed, images):
        """(column, terms) for each image of the varied symbol whose value
        is nonzero, in image-list order."""
        key = (slot, family, fixed)
        entry = self._entries.get(key)
        if entry is None:
            head, tail = fixed[:slot], fixed[slot:]
            entry = []
            for pos, (_, img) in enumerate(images):
                terms = self._kernel(*head, img, *tail)
                if terms:
                    entry.append((pos, terms))
            self._entries[key] = entry
        return [(images[pos][0], terms) for pos, terms in entry]


def _form_add(form, out_sym, col, value):
    if not value:
        return
    row = form.get(out_sym)
    if row is None:
        form[out_sym] = {col: value}
        return
    cur = row.get(col)
    if cur is None:
        row[col] = value
    else:
        cur = cur + value
        if cur:
            row[col] = cur
        else:
            del row[col]


@dataclass
class ClassificationVerdict:
    matches: bool
    expected_description: str
    core_dimension: int
    offending_vectors: list = field(default_factory=list)
    expected_core_dimension: int | None = None
    full_dimension: int = 0
    core_space: SolutionSpace | None = None


def solve_and_classify(bdef, domain, eq_window, core, degree=0, image=None):
    """Assemble, solve exactly, project to the core, and classify.

    The ansatz over the domain and the core ansatz both come from
    ansatz_for, so `degree` and `image` are read as ansatz_for
    reads them; the expected core is the uniform shift (graded) or the
    family of _family_relations (full window).  The windows are checked
    before anything is assembled: the core keeps the margin from the domain
    boundary, lies inside a full-window ansatz's image and contains the
    functional's support.
    """
    ansatz = ansatz_for(bdef, domain, degree, image)
    margin = (domain.hi - domain.lo) // 4  # half the domain radius, rounded down
    if core.lo < domain.lo + margin or core.hi > domain.hi - margin:
        raise ValueError(
            f"core {core} too close to the domain boundary {domain} (margin {margin})"
        )
    image = ansatz.image
    if image is not None and (core.lo < image.lo or core.hi > image.hi):
        raise ValueError(f"core {core} is not inside the image window {image}")
    if bdef.kind == AFK and any(not core.contains(j) for j in bdef.f.support):
        raise ValueError(
            f"the functional's support {bdef.f.support} is not inside the core {core}"
        )
    core_ansatz = ansatz_for(bdef, core, degree)

    space = nullspace(assemble_system(bdef, ansatz, eq_window))
    core_space = project_solution(space, core_ansatz.unknown_ids())
    return _classify(core_space, bdef, core_ansatz, space.dimension)


def _family_relations(bdef, core_ansatz):
    """The expected core family as the nullspace of its defining relations,
    on the core ansatz's unknowns.

    Graded: a[r] = a[lo] and d[r] = a[lo], b = c = 0.  Full window, with h =
    a[lo,lo]: a[r,i] = h when r = i and 0 otherwise, b = 0, each c column
    proportional to f (f(t0) c[r,i] = f(r) c[t0,i] for one support index t0,
    which is enough because f(t0) is nonzero and the support lies in the
    core), and sum_j f(j) d[r,j] = h f(r).  The rows take f's stored
    values, so an f in Z[i] gives rows in Z[i].
    """
    relations = ConstraintSystem(core_ansatz.unknown_ids())
    core = core_ansatz.domain
    lo = core.lo
    if core_ansatz.image is None:
        a0 = unknown("a", lo)
        for r in core.indices():
            if r != lo:
                relations.add_row({unknown("a", r): 1, a0: -1})
            relations.add_row({unknown("d", r): 1, a0: -1})
            relations.add_row({unknown("b", r): 1})
            relations.add_row({unknown("c", r): 1})
        return relations
    f = bdef.f.by_index
    h = unknown("a", lo, lo)
    t0 = bdef.f.support[0]
    for r in core.indices():
        for i in core.indices():
            if (r, i) != (lo, lo):
                relations.add_row({unknown("a", r, i): 1, h: -1 if r == i else 0})
            relations.add_row({unknown("b", r, i): 1})
            if r != t0:
                relations.add_row({unknown("c", r, i): f[t0], unknown("c", t0, i): -f.get(r, 0)})
        weighted = {unknown("d", r, j): fj for j, fj in f.items()}
        relations.add_row({**weighted, h: -f.get(r, 0)})
    return relations


def _classify(core_space, bdef, core_ansatz, full_dim):
    """The core space matches the family when no basis vector leaves a
    defining relation nonzero (containment) and the dimensions agree."""
    relations = _family_relations(bdef, core_ansatz)
    expected_dim = relations.num_unknowns - relations.rank()
    if core_ansatz.image is None:
        expected = (
            f"core dimension {expected_dim}; basis vector is the uniform shift by "
            f"{core_ansatz.degree}: a and d constant and equal, b and c zero"
        )
    else:
        expected = (
            "b block zero; a block h*identity; c columns proportional to the "
            "functional values; weighted d-row sums equal to h times the "
            f"functional value; core dimension {expected_dim}"
        )
    offending = [
        {str(uid): str(val) for uid, val in core_space.vector_as_dict(idx).items()}
        for idx, row in enumerate(core_space.residuals(relations))
        if row is not None
    ]
    return ClassificationVerdict(
        matches=not offending and core_space.dimension == expected_dim,
        expected_description=expected,
        core_dimension=core_space.dimension,
        offending_vectors=offending,
        expected_core_dimension=expected_dim,
        full_dimension=full_dim,
        core_space=core_space,
    )


# ---------------------------------------------------------------------------
# triviality of induced products on the shifted-bracket algebra


def tp_triviality_system(w_index, w_basis):
    """Commutativity constraints on products induced by shift coefficients.

    For each mixed basis pair, the L-side product expands over the M family
    with coefficients alpha[i,k] while the M-side expands over the L family
    with coefficients beta[j,k]; equality of the two forces every
    coefficient to vanish.
    """
    rows = 2 * w_basis.size ** 2 * w_index.size
    require_budget(rows, f"tp-triviality system needs {rows} rows")
    system = ConstraintSystem([
        unknown(name, i, k)
        for name in ("alpha", "beta")
        for i in w_basis.indices()
        for k in w_index.indices()
    ])
    column = {(name, *subs): col for col, (name, subs) in enumerate(system.unknowns)}

    for i in w_basis.indices():
        for j in w_basis.indices():
            for k in w_index.indices():
                system.add_columns({column["alpha", i, k]: 1}, ("pair", i, j, M(k + j)))
                system.add_columns({column["beta", j, k]: 1}, ("pair", i, j, L(k + i)))
    return system

"""Closed-form family members and operators used as test fixtures.

Each builds a known solution of a law from its closed form, so the tests
can check the solver's and the checkers' answers against it: members of
the a-f-k 1/3-derivation family as operators and as assignments to a
full-window ansatz, the truncated uniform shift as a graded assignment, a
solution vector as an operator, and left multiplication by a fixed
element of a product; the scalar-multiple and table-given operators the
kernels and checkers are tested on; and a proxy that counts the kernel
calls made to a definition.

The two operators are duck-typed: `terms` and `apply`, with Scalar
coefficients.
"""

from fractions import Fraction

from translie.algebras import product_eval
from translie.elements import Element, L, M, extend
from translie.linalg import unknown
from translie.scalars import ONE, ZERO, Scalar, lift


def scalar_value(f, index):
    """f(M_index) as a Scalar, 0 off the support: the fixtures and oracles
    compute in Scalars, whatever type f stores its values in."""
    return lift(f.by_index.get(index, 0))


class Counting:
    """A definition that counts the calls made to its terms.  It does not
    declare itself antisymmetric, so a law check evaluates every ordered
    tuple on it."""

    def __init__(self, definition):
        self.definition = definition
        self.calls = 0

    def terms(self, *symbols):
        self.calls += 1
        return self.definition.terms(*symbols)


class _Operator:
    def apply(self, element):
        return Element(extend(self.terms, element.terms))


class ScalarMultiple(_Operator):
    """x -> c x for a fixed scalar c."""

    def __init__(self, c):
        self.factor = c if isinstance(c, Scalar) else Scalar(c)

    def terms(self, sym):
        return [(self.factor, sym)] if self.factor else []


class TableOperator(_Operator):
    """Operator given by an explicit symbol -> Element table; applying it
    outside the table's key set raises KeyError."""

    def __init__(self, table):
        self.table = dict(table)

    def terms(self, sym):
        image = self.table.get(sym)
        if image is None:
            raise KeyError(f"operator not defined at {sym}")
        return [(coeff, s) for s, coeff in image.terms.items()]


def afk_family_operator(f, h, c, d_rows, domain):
    """Custom operator for the functional-bracket derivation family.

    L_r -> h L_r;  M_r -> f(M_r) * sum_i c[i] L_i  +  sum_j d_rows[r][j] M_j.
    Rows of d not listed default to h at the diagonal, which satisfies the
    weighted row-sum condition automatically; explicit rows are validated.
    """
    if not isinstance(h, Scalar):
        h = Scalar(h)
    c = {int(i): v if isinstance(v, Scalar) else Scalar(v) for i, v in c.items()}
    rows = {}
    for r, row in d_rows.items():
        rows[int(r)] = {
            int(j): v if isinstance(v, Scalar) else Scalar(v) for j, v in row.items()
        }
    for r, row in rows.items():
        total = ZERO
        for j, val in row.items():
            total = total + scalar_value(f, j) * val
        if total != h * scalar_value(f, r):
            raise ValueError(
                f"d row {r} violates the weighted row-sum condition"
            )
    table = {}
    for r in domain.indices():
        table[L(r)] = Element({L(r): h}) if h else Element()
        fr = scalar_value(f, r)
        terms = {}
        if fr:
            for i, ci in c.items():
                val = fr * ci
                if val:
                    terms[L(i)] = val
        row = rows.get(r)
        if row is None:
            if h:
                terms[M(r)] = h
        else:
            for j, val in row.items():
                if val:
                    terms[M(j)] = terms.get(M(j), ZERO) + val
        table[M(r)] = Element(terms)
    return TableOperator(table)


def solution_operator(space, vector_index, ansatz, window_):
    """Materialize a solution vector as a custom operator on a window.

    The table covers every basis symbol of the window whose unknowns are
    present in the (possibly projected) solution space.
    """
    have = set(space.unknowns)
    vec = space.vector_as_dict(vector_index)
    ansatz_images = ansatz.images()
    table = {}
    for r in window_.indices():
        for sym in (L(r), M(r)):
            images = ansatz_images.get(sym)
            if images is None or any(uid not in have for uid, _ in images):
                continue
            terms = {}
            for uid, img in images:
                val = vec.get(uid)
                if val:
                    terms[img] = terms.get(img, ZERO) + val
            table[sym] = Element(terms)
    return TableOperator(table)


def graded_family_assignment(ansatz):
    """Unknown assignment for the truncated uniform shift on a graded ansatz."""
    asg = {}
    for r in ansatz.domain.indices():
        asg[unknown("a", r)] = ONE
        asg[unknown("d", r)] = ONE
    return asg


def full_window_family_assignment(ansatz, f, h, c, d_rows):
    """Unknown assignment for a functional-bracket family member.

    d_rows must cover every source index of the domain (use
    random_family_params to generate consistent data).
    """
    asg = {}
    for r in ansatz.domain.indices():
        if ansatz.image.contains(r) and h:
            asg[unknown("a", r, r)] = h
        fr = scalar_value(f, r)
        for i in ansatz.image.indices():
            if fr:
                ci = c.get(i)
                if ci:
                    asg[unknown("c", r, i)] = fr * ci
            dv = d_rows[r].get(i)
            if dv:
                asg[unknown("d", r, i)] = dv
    return asg


def random_family_params(f, domain, image, rng):
    """Random (h, c, d_rows) satisfying the weighted row-sum condition.

    One support index of the functional absorbs the correction that makes
    each d row sum correctly.
    """
    support = f.support
    t0 = support[0]
    if not image.contains(t0):
        raise ValueError("functional support must lie inside the image window")
    h = Scalar(rng.randint(-4, 4))
    c = {}
    for i in image.indices():
        if rng.random() < 0.3:
            val = Scalar(rng.randint(-3, 3))
            if val:
                c[i] = val
    d_rows = {}
    ft0 = scalar_value(f, t0)
    for r in domain.indices():
        row = {}
        for j in image.indices():
            if j != t0 and rng.random() < 0.25:
                val = Scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
                if val:
                    row[j] = val
        total = ZERO
        for j, val in row.items():
            total = total + scalar_value(f, j) * val
        row[t0] = (h * scalar_value(f, r) - total) / ft0
        if not row[t0]:
            del row[t0]
        d_rows[r] = row
    return h, c, d_rows


def left_multiplication_operator(pdef, element, index_window):
    """Multiplication by a fixed element, tabulated over a symbol window."""
    table = {}
    for i in index_window.indices():
        for sym in (L(i), M(i)):
            table[sym] = product_eval(pdef, element, Element.basis(sym))
    return TableOperator(table)

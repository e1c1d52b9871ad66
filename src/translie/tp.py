"""Induced commutative products on the functional-bracket algebra.

A product family is determined by a scalar alpha, a finitely supported
sequence c_p, and a finitely supported symmetric array d_{i,j,q}:

    L_i * L_j = 0
    L_i * M_j = alpha f(M_j) L_i
    M_i * M_j = f(M_i) f(M_j) sum_p c_p L_p  +  sum_q d_{i,j,q} M_q

Validation checks three constraint families over the finite closure of
the parameter supports: symmetry of d in its first two slots, weighted
q-sums of d matching alpha f(M_i) f(M_j), and the exchange identity that
makes the product associative.  Finite quantification is complete because
every term outside the support closure vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import ProductDef, TP_FAMILY, narrowed
from .checks import POISSON_LEIBNIZ, run_law, window
from .elements import L, M
from .errors import InvalidParamsError, require_budget
from .scalars import narrow

POISSON_AND_TRANSPOSED = "poisson-and-transposed"
TRANSPOSED_ONLY = "transposed-only"


class TPParams:
    """Product family parameters; immutable after construction.

    alpha and the values of c ({p: value}) and d ({(i, j, q): value}) are
    each narrowed once, here (scalars.narrow), zeros dropped; pairs holds
    d by (i, j) as {(i, j): {q: value}}, the form product_terms and
    validate_params join on.
    """

    __slots__ = ("alpha", "c", "d", "f", "k", "pairs")

    def __init__(self, alpha, c, d, f, k):
        d = narrowed(((int(i), int(j), int(q)), v) for (i, j, q), v in d.items())
        pairs = {}
        for (i, j, q), v in d.items():
            pairs.setdefault((i, j), {})[q] = v
        object.__setattr__(self, "alpha", narrow(alpha))
        object.__setattr__(self, "c", narrowed((int(p), v) for p, v in c.items()))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("TPParams is immutable")

    def support_indices(self):
        idx = set(self.f.support)
        idx.update(self.c)
        for i, j, q in self.d:
            idx.update((i, j, q))
        return sorted(idx) if idx else [0]

    def product_terms(self, x, y):
        """Product of two basis symbols as (coefficient, symbol) terms."""
        f_values = self.f.by_index
        if x.family == "L" and y.family == "L":
            return []
        if x.family == "M" and y.family == "M":
            out = []
            fx, fy = f_values.get(x.index), f_values.get(y.index)
            if fx and fy:
                cf = fx * fy
                out.extend((cf * cp, L(p)) for p, cp in self.c.items())
            row = self.pairs.get((x.index, y.index))
            if row:
                out.extend((dv, M(q)) for q, dv in row.items())
            return out
        if x.family == "M":
            x, y = y, x
        fy = f_values.get(y.index)
        if not fy or not self.alpha:
            return []
        return [(self.alpha * fy, x)]


@dataclass
class TPValidationReport:
    """Witnesses for each violated constraint family; valid when all empty."""

    eq_symmetry_violations: list = field(default_factory=list)
    eq_weighted_sum_violations: list = field(default_factory=list)
    eq_exchange_violations: list = field(default_factory=list)

    @property
    def is_valid(self):
        return not (
            self.eq_symmetry_violations
            or self.eq_weighted_sum_violations
            or self.eq_exchange_violations
        )


def validate_params(params):
    """Check symmetry, weighted-sum, and exchange laws over the support closure.

    Every term of the laws has a factor of d, or of alpha f(M_i) f(M_j), so
    each law is checked only where d's entries and f's support reach, by
    sparse joins listing witnesses in sorted index order, on the stored
    constants: a witness's residual is in Z[i] where they are Gaussian
    integers, a Scalar where a rational one enters.  The work of each join
    is checked against the budget before it runs: the weighted sums meet at
    most |supp f|^2 pairs beyond d's, and the exchange join makes one
    product per d entry (a,b,q) and entry of d(q,.,.), a count read off d
    in O(|d|).
    """
    report = TPValidationReport()
    support = params.f.support
    if params.alpha:
        weighted = len(support) ** 2
        require_budget(weighted, f"weighted-sum law needs {weighted} index pairs")
    entries_from = {}
    for q, _, _ in params.d:
        entries_from[q] = entries_from.get(q, 0) + 1
    products = sum(entries_from.get(q, 0) for _, _, q in params.d)
    require_budget(
        products,
        f"exchange identity needs {products} products of d entries over "
        f"{len(params.d)} entries",
    )
    alpha, pairs, f_values = params.alpha, params.pairs, params.f.by_index
    for i, j, q in sorted({(min(i, j), max(i, j), q) for i, j, q in params.d}):
        residual = pairs.get((i, j), {}).get(q, 0) - pairs.get((j, i), {}).get(q, 0)
        if residual:
            report.eq_symmetry_violations.append(((i, j, q), residual))

    candidates = set(pairs)
    if alpha:
        candidates.update((i, j) for i in support for j in support)
    for i, j in sorted(candidates):
        total = sum(f_values.get(q, 0) * v for q, v in pairs.get((i, j), {}).items())
        residual = total - alpha * f_values.get(i, 0) * f_values.get(j, 0)
        if residual:
            report.eq_weighted_sum_violations.append(((i, j), residual))

    # each product d(a,b,q) d(q,c,p) is the term + d(r,s,q) d(q,t,p) of the
    # tuple (r,s,t,p) = (a,b,c,p) and the term - d(s,t,q) d(q,r,p) of (c,a,b,p)
    by_first = {}
    for (q, c), row in pairs.items():
        by_first.setdefault(q, []).append((c, row))
    sums = {}
    for (a, b), row in pairs.items():
        for q, v in row.items():
            for c, out in by_first.get(q, ()):
                for p, w in out.items():
                    sums[a, b, c, p] = sums.get((a, b, c, p), 0) + v * w
                    sums[c, a, b, p] = sums.get((c, a, b, p), 0) - v * w
    report.eq_exchange_violations = [(key, v) for key, v in sorted(sums.items()) if v]
    return report


def build_example_family(f, d_seq, c, k):
    """Rank-one d array: d_{i,j,p} = d_p f(M_i) f(M_j), alpha = sum f(M_q) d_q,
    computed on the narrowed values, in Z[i] where they are Gaussian integers.

    Always passes validation: symmetry and the exchange identity hold
    because the array factors through the functional, and the weighted-sum
    law reduces to the definition of alpha.
    """
    f_values = f.by_index
    d_seq = narrowed((int(p), v) for p, v in d_seq.items())
    alpha = sum(f_values.get(q, 0) * dv for q, dv in d_seq.items())
    d = {}
    for i, fi in f_values.items():
        for j, fj in f_values.items():
            w = fi * fj
            for p, dv in d_seq.items():
                d[i, j, p] = dv * w
    return TPParams(alpha=alpha, c=c, d=d, f=f, k=k)


def tp_product(params):
    """ProductDef for validated parameters; invalid ones raise InvalidParamsError."""
    report = validate_params(params)
    if not report.is_valid:
        raise InvalidParamsError("product parameters failed validation", report)
    return ProductDef(TP_FAMILY, params=params)


def classify_poisson(params):
    """For valid parameters, the product also satisfies the classical
    Leibniz law iff alpha = 0 and c = 0; validity is not checked again."""
    if not params.alpha and not params.c:
        return POISSON_AND_TRANSPOSED
    return TRANSPOSED_ONLY


def support_closure_window(params):
    """Smallest window holding the supports, their pairwise product images,
    and their bracket images, padded by the bracket shift."""
    base = set(params.support_indices())
    sums = {a + b for a in base for b in base}
    shifted = {a + params.k for a in sums}
    closure = base | sums | shifted
    pad = abs(params.k)
    return window(min(closure) - pad, max(closure) + pad)


def poisson_violation_witness(bdef, pdef, w):
    """First basis 4-tuple violating the classical Leibniz law, or None.

    Stops at the first failing 4-tuple in canonical (product) order, so
    products that are far from the classical law stay cheap to refute.
    The law declares the group (x,y), so for an antisymmetric bracket the
    scan evaluates one tuple per orbit, x < y: the sorted member of an
    orbit is its least in that order, so the first failing representative
    is the first failing 4-tuple of all.
    """
    report = run_law(POISSON_LEIBNIZ, {"bracket": bdef, "product": pdef}, w, stop_at_first=True)
    return report.violations[0] if report.violations else None

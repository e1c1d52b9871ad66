"""Law checkers over finite index windows.

Every checker quantifies a law exhaustively over the basis symbols of a
window, or over a given number of seeded random samples from
DEFAULT_RANDOM_WINDOW, and returns a CheckReport with exact residual
witnesses for every violation.  Exhaustive runs refuse to start when the
case count exceeds the exhaustive cap instead of silently sampling;
randomized runs refuse a sample count over the same cap.

A law is a small function giving the two sides of one basis tuple from a
set of kernels: the term functions of the definitions it uses, gathered by
algebras.kernels.  Its integer constants are plain ints, and the sides are
in Z[i] where every constant the tuple meets is a Gaussian integer, with
Scalars where a rational one enters.  One driver, run_law, owns the
budget, the RNG and the Violation building for every checker, with one
loop per part of a law: over the seeded samples, or over the tuples of
the window.  In an exhaustive check each kernel remembers its recent results
for the length of the check, because it asks for the same basis-level
terms over and over; random samples seldom repeat one, so a randomized
check calls the kernels directly.  Each tuple is evaluated once, and a
violation lifts the sides that evaluation computed to Scalars.

A law may declare slot groups in which it is alternating: permuting a
group's arguments by sigma multiplies both sides by sgn sigma, because the
bracket is.  The fundamental identity declares (x,y) and (u,v,t), the
1/3-derivation law and relabel-intertwining (x,y,z), transposed Leibniz
(x,y,z) and Poisson-Leibniz (x,y); skew-symmetry declares none, since it
tests that premise.  When every bracket the law reads declares itself
antisymmetric, an exhaustive run lists one tuple per orbit, the one
increasing within each group, and replays a failure onto the orbit with
signed sides; otherwise it lists every ordered tuple, the orbits of no
groups.  Case counts and the budget still count ordered tuples, so
reports are the same as an evaluation of every tuple.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

from .algebras import Kernels, a_omega_delta, algebra_a, kernels, m_negation, omega_form
from .elements import Element, L, M, add_terms, extend
from .errors import BudgetExceededError, require_budget
from .linalg import LeadSpan
from .scalars import Scalar, lift

# entries each kernel memo of an exhaustive check keeps: more than the
# ~12,000 distinct calls of the largest exhaustive check the CLI and the
# benchmark run (the one-third derivation on [-4,4])
MEMO_SIZE = 2**14


class Window(NamedTuple):
    lo: int
    hi: int

    def __str__(self):
        return f"[{self.lo},{self.hi}]"

    def indices(self):
        return range(self.lo, self.hi + 1)

    def contains(self, index):
        return self.lo <= index <= self.hi

    @property
    def size(self):
        return self.hi - self.lo + 1


def window(lo, hi):
    if lo > hi:
        raise ValueError(f"window lower bound {lo} exceeds upper bound {hi}")
    return Window(int(lo), int(hi))


DEFAULT_RANDOM_WINDOW = Window(-20, 20)


def window_symbols(w):
    """All basis symbols of a window in canonical order (L family first)."""
    return [L(i) for i in w.indices()] + [M(i) for i in w.indices()]


# the L and the M symbols of DEFAULT_RANDOM_WINDOW, which _random_symbol
# draws from
_RANDOM_SYMBOLS = tuple(
    tuple(family(i) for i in DEFAULT_RANDOM_WINDOW.indices()) for family in (L, M)
)


@dataclass(frozen=True)
class Violation:
    inputs: tuple
    lhs: Element
    rhs: Element
    residual: Element


@dataclass
class CheckReport:
    law: str
    mode: str
    cases_run: int
    violations: list = field(default_factory=list)
    seed: int | None = None

    @property
    def passed(self):
        return not self.violations

    def sort_violations(self):
        self.violations.sort(key=lambda v: v.inputs)
        return self


def _random_symbol(rng):
    """L or M with even odds, then an index of DEFAULT_RANDOM_WINDOW: the
    draws of BasisSymbol(family, rng.randint(lo, hi)), since randint(lo,
    hi) and choice(seq) each take one _randbelow of the window's size."""
    return rng.choice(_RANDOM_SYMBOLS[rng.random() >= 0.5])


# ---------------------------------------------------------------------------
# the law driver


class Law(NamedTuple):
    """One comparison on basis tuples of a fixed arity.

    `sides(kernels, *tuple)` gives (lhs, rhs) as sparse maps, both `scale`
    times the sides the report shows; `inputs(tuple)`, when set, gives
    the tuple a violation reports.  `groups` are runs of consecutive
    slots in which the law is alternating when the bracket is: permuting
    a group's arguments by sigma multiplies both sides by sgn sigma.
    """

    sides: object
    arity: int
    scale: int = 1
    inputs: object = None
    groups: tuple = ()


class LawSpec(NamedTuple):
    """A reported law: its name, the anchor a report shows for it (the law
    as one line of text), and parts run one after another, each a group of
    Laws evaluated on every tuple of one stream (one case per tuple)."""

    name: str
    anchor: str
    parts: tuple


def _memoized(k):
    """The kernels, each remembering its results for one exhaustive check."""
    memo = functools.lru_cache(maxsize=MEMO_SIZE)
    return Kernels(*(fn and memo(fn) for fn in k))


def _witness(law, lhs, rhs, sign=1):
    """(lhs, rhs, residual) Elements of the sides a failing case computed,
    lifted to Scalars and multiplied by sign / the law's scale."""
    unit = Scalar(sign) / Scalar(law.scale)  # bench/layers.py reads both operands' parts
    lhs, rhs = ({s: lift(c) * unit for s, c in side.items()} for side in (lhs, rhs))
    residual = dict(lhs)
    add_terms(residual, -1, [(c, s) for s, c in rhs.items()])
    return Element(lhs), Element(rhs), Element(residual)


def _violation(law, tup, witness):
    """The Violation of a failing tuple with its _witness Elements."""
    return Violation(law.inputs(tup) if law.inputs else tup, *witness)


def _representatives(symbols, arity, groups):
    """The tuples increasing within each group, in product order: one
    block per group (its combinations) and per free slot, in slot order;
    every tuple when there are no groups."""
    if not groups:
        return itertools.product(symbols, repeat=arity)
    runs = {g[0]: len(g) for g in groups}
    blocks, slot = [], 0
    while slot < arity:
        size = runs.get(slot, 1)
        blocks.append(itertools.combinations(symbols, size))
        slot += size
    return (sum(parts, ()) for parts in itertools.product(*blocks))


def _orbit(tup, groups):
    """(sgn sigma, sigma tup) for every sigma permuting within the groups."""
    perms = [
        [(p, (-1) ** sum(a > b for a, b in itertools.combinations(p, 2)))
         for p in itertools.permutations(g)]
        for g in groups
    ]
    for choice in itertools.product(*perms):
        member, sign = list(tup), 1
        for g, (p, parity) in zip(groups, choice):
            sign *= parity
            for slot, source in zip(g, p):
                member[slot] = tup[source]
        yield sign, tuple(member)


def run_law(spec, defs, w, samples=None, seed=0, stop_at_first=False):
    """Check a law on basis tuples of a window.

    `defs` maps kernel names (bracket, product, op, source) to definitions,
    evaluated on algebras.kernels(defs); violations always carry Scalar
    witnesses.  With `samples` None the run is exhaustive over `w`, its
    case count is checked against the exhaustive cap, and the kernels are
    memoized; with `samples` N >= 1 it draws N seeded tuples from
    DEFAULT_RANDOM_WINDOW on the kernels as they are, `w` is not read, and
    N is checked against the same cap.  Both checks come before
    anything is enumerated.  With `stop_at_first` the run ends at the first
    violation, unsorted.

    Each part is one loop over its tuples, every law of the part evaluated
    on each.  An exhaustive part lists _representatives: of its one Law's
    `groups` when every bracket and source in `defs` declares itself
    `antisymmetric`, else of no groups, every ordered tuple.  Permuting a
    group by sigma multiplies both sides by sgn sigma, and a tuple repeating
    a symbol inside a group has a zero defect.  So a failing tuple yields
    one Violation per member of its _orbit, those of one sign sharing one
    lifted witness, and each part counts n**arity ordered tuples, or its
    samples: the report is the one an evaluation of every tuple gives.

    With `stop_at_first` the run ends at the product-order-first failing
    tuple, as an evaluation of every tuple would.  The failing tuples are
    the members of failing representatives' orbits.  Sorting within each
    group gives an orbit's lexicographic minimum, since the groups vary
    independently and a sorted group puts its least symbol first; and the
    representatives are listed in product order.  So if t is the first
    failing tuple in product order, its orbit's representative r fails
    and r <= t, hence r = t; every representative before t passes.  The
    part's case count is then t's place in the ordered stream, or the
    failing sample's number.
    """
    if samples is None:
        total = sum((2 * w.size) ** laws[0].arity for laws in spec.parts)
        require_budget(total, f"exhaustive run needs {total} cases")
    elif samples < 1:
        raise ValueError(f"a randomized run needs at least 1 sample, got {samples}")
    else:
        require_budget(samples, f"randomized run needs {samples} samples")
    rng = random.Random(seed)
    report = CheckReport(
        law=spec.name,
        mode="exhaustive" if samples is None else "randomized",
        cases_run=0,
        seed=None if samples is None else seed,
    )
    k = kernels(defs)
    if samples is None:
        k = _memoized(k)
    orbits = samples is None and all(
        getattr(d, "antisymmetric", False)
        for name, d in defs.items()
        if name in ("bracket", "source")
    )
    symbols = window_symbols(w) if samples is None else []
    n = len(symbols)
    for laws in spec.parts:
        arity = laws[0].arity
        groups = laws[0].groups if orbits and len(laws) == 1 else ()
        if samples is None:
            tuples = _representatives(symbols, arity, groups)
        else:
            tuples = (tuple(_random_symbol(rng) for _ in range(arity)) for _ in range(samples))
        for number, tup in enumerate(tuples, 1):
            for law in laws:
                lhs, rhs = law.sides(k, *tup)
                if lhs == rhs:
                    continue
                if stop_at_first:
                    if samples is None:
                        number = 1 + sum(
                            symbols.index(s) * n ** (arity - 1 - i) for i, s in enumerate(tup)
                        )
                    report.cases_run += number
                    report.violations.append(_violation(law, tup, _witness(law, lhs, rhs)))
                    return report
                orbit = list(_orbit(tup, groups))
                witnesses = {sign: _witness(law, lhs, rhs, sign) for sign in {s for s, _ in orbit}}
                for sign, member in orbit:
                    report.violations.append(_violation(law, member, witnesses[sign]))
        report.cases_run += n**arity if samples is None else samples
    return report.sort_violations()


# ---------------------------------------------------------------------------
# ternary bracket axioms


def _transposition(i, j):
    def swap(xyz):
        out = list(xyz)
        out[i], out[j] = xyz[j], xyz[i]
        return out

    def sides(k, *xyz):
        lhs = {}
        add_terms(lhs, 1, k.bracket(*xyz))
        rhs = {}
        add_terms(rhs, -1, k.bracket(*swap(xyz)))
        return lhs, rhs

    return Law(sides, 3, inputs=lambda xyz: (*xyz, *swap(xyz)))


def _fundamental_identity(k, x, y, u, v, t):
    br = k.bracket
    lhs = {}
    for c0, s0 in br(u, v, t):
        add_terms(lhs, c0, br(x, y, s0))
    rhs = {}
    for c0, s0 in br(x, y, u):
        add_terms(rhs, c0, br(s0, v, t))
    for c0, s0 in br(x, y, v):
        add_terms(rhs, c0, br(u, s0, t))
    for c0, s0 in br(x, y, t):
        add_terms(rhs, c0, br(u, v, s0))
    return lhs, rhs


SKEW_SYMMETRY = LawSpec(
    "skew-symmetry",
    "bracket changes sign under every transposition of its arguments",
    ((_transposition(0, 1), _transposition(0, 2), _transposition(1, 2)),),
)
FUNDAMENTAL_IDENTITY = LawSpec(
    "fundamental-identity",
    "[x,y,[u,v,w]] = [[x,y,u],v,w] + [u,[x,y,v],w] + [u,v,[x,y,w]]",
    ((Law(_fundamental_identity, 5, groups=((0, 1), (2, 3, 4))),),),
)


def check_skew_symmetry(bdef, w):
    """Each transposition of arguments negates the bracket, on all triples."""
    return run_law(SKEW_SYMMETRY, {"bracket": bdef}, w)


def check_fundamental_identity(bdef, w, samples=None, seed=0):
    """[x,y,[u,v,t]] = [[x,y,u],v,t] + [u,[x,y,v],t] + [u,v,[x,y,t]]."""
    return run_law(FUNDAMENTAL_IDENTITY, {"bracket": bdef}, w, samples, seed)


# ---------------------------------------------------------------------------
# operator laws


def _one_third_derivation(k, x, y, z):
    br, op = k.bracket, k.op
    lhs = {}
    for c0, s0 in br(x, y, z):
        add_terms(lhs, 3 * c0, op(s0))
    rhs = {}
    for c0, s0 in op(x):
        add_terms(rhs, c0, br(s0, y, z))
    for c0, s0 in op(y):
        add_terms(rhs, c0, br(x, s0, z))
    for c0, s0 in op(z):
        add_terms(rhs, c0, br(x, y, s0))
    return lhs, rhs


def _product_derivation(k, x, y):
    pr, op = k.product, k.op
    lhs = {}
    for c0, s0 in pr(x, y):
        add_terms(lhs, c0, op(s0))
    rhs = {}
    for c0, s0 in op(x):
        add_terms(rhs, c0, pr(s0, y))
    for c0, s0 in op(y):
        add_terms(rhs, c0, pr(x, s0))
    return lhs, rhs


def _involution(k, x):
    lhs = {}
    for c0, s0 in k.op(x):
        add_terms(lhs, c0, k.op(s0))
    return lhs, {x: 1}


def _morphism(k, x, y):
    pr, op = k.product, k.op
    lhs = {}
    for c0, s0 in pr(x, y):
        add_terms(lhs, c0, op(s0))
    rhs = {}
    for cx, sx in op(x):
        for cy, sy in op(y):
            add_terms(rhs, cx * cy, pr(sx, sy))
    return lhs, rhs


def _intertwining(k, x, y, z):
    op = k.op
    lhs = {}
    for c0, s0 in k.source(x, y, z):
        add_terms(lhs, c0, op(s0))
    rhs = {}
    for cx, sx in op(x):
        for cy, sy in op(y):
            for cz, sz in op(z):
                add_terms(rhs, cx * cy * cz, k.bracket(sx, sy, sz))
    return lhs, rhs


ONE_THIRD_DERIVATION = LawSpec(
    "one-third-derivation",
    "3 D([x,y,z]) = [D(x),y,z] + [x,D(y),z] + [x,y,D(z)]",
    ((Law(_one_third_derivation, 3, scale=3, groups=((0, 1, 2),)),),),
)
PRODUCT_DERIVATION = LawSpec(
    "product-derivation-rule",
    "D(x*y) = D(x)*y + x*D(y)",
    ((Law(_product_derivation, 2),),),
)
INVOLUTIVE_MORPHISM = LawSpec(
    "involutive-morphism",
    "W(W(x)) = x and W(x*y) = W(x)*W(y)",
    ((Law(_involution, 1),), (Law(_morphism, 2),)),
)
RELABEL_INTERTWINING = LawSpec(
    "relabel-intertwining",
    "relabel([x,y,z]) = [relabel(x),relabel(y),relabel(z)]",
    ((Law(_intertwining, 3, groups=((0, 1, 2),)),),),
)


def check_one_third_derivation(bdef, op, w):
    """3 op([x,y,z]) = [op(x),y,z] + [x,op(y),z] + [x,y,op(z)] on basis triples."""
    return run_law(ONE_THIRD_DERIVATION, {"bracket": bdef, "op": op}, w)


def check_derivation(op, w):
    """Product rule op(x*y) = op(x)*y + x*op(y) in the base algebra."""
    return run_law(PRODUCT_DERIVATION, {"product": algebra_a(), "op": op}, w)


def check_involutive_morphism(op, w):
    """op is a self-inverse algebra morphism: op(op(x)) = x, op(x*y) = op(x)*op(y)."""
    return run_law(INVOLUTIVE_MORPHISM, {"product": algebra_a(), "op": op}, w)


def check_relabel_intertwining(w):
    """M-index negation carries the unshifted bracket to the shifted one.

    relabel([x,y,z]_omega-form) = [relabel(x), relabel(y), relabel(z)]
    for all basis triples of the window.
    """
    defs = {"source": omega_form(), "bracket": a_omega_delta(), "op": m_negation()}
    return run_law(RELABEL_INTERTWINING, defs, w)


# ---------------------------------------------------------------------------
# bracket/product compatibility laws


def _transposed_leibniz(k, u, x, y, z):
    br, pr = k.bracket, k.product
    lhs = {}
    for cb, sb in br(x, y, z):
        add_terms(lhs, 3 * cb, pr(u, sb))
    rhs = {}
    for cp, sp in pr(x, u):
        add_terms(rhs, cp, br(sp, y, z))
    for cp, sp in pr(y, u):
        add_terms(rhs, cp, br(x, sp, z))
    for cp, sp in pr(z, u):
        add_terms(rhs, cp, br(x, y, sp))
    return lhs, rhs


def _poisson_leibniz(k, x, y, u, v):
    br, pr = k.bracket, k.product
    lhs = {}
    for cp, sp in pr(u, v):
        add_terms(lhs, cp, br(x, y, sp))
    rhs = {}
    for cb, sb in br(x, y, v):
        add_terms(rhs, cb, pr(u, sb))
    for cb, sb in br(x, y, u):
        add_terms(rhs, cb, pr(sb, v))
    return lhs, rhs


def _commutativity(k, x, y):
    lhs = {}
    add_terms(lhs, 1, k.product(x, y))
    rhs = {}
    add_terms(rhs, 1, k.product(y, x))
    return lhs, rhs


def _associativity(k, x, y, z):
    pr = k.product
    lhs = {}
    for c0, s0 in pr(x, y):
        add_terms(lhs, c0, pr(s0, z))
    rhs = {}
    for c0, s0 in pr(y, z):
        add_terms(rhs, c0, pr(x, s0))
    return lhs, rhs


TRANSPOSED_LEIBNIZ = LawSpec(
    "transposed-leibniz",
    "3 u*[x,y,z] = [x*u,y,z] + [x,y*u,z] + [x,y,z*u]",
    ((Law(_transposed_leibniz, 4, groups=((1, 2, 3),)),),),
)
POISSON_LEIBNIZ = LawSpec(
    "poisson-leibniz",
    "[x,y,u*v] = u*[x,y,v] + [x,y,u]*v",
    ((Law(_poisson_leibniz, 4, groups=((0, 1),)),),),
)
COMMUTATIVE_ASSOCIATIVE = LawSpec(
    "commutative-associative",
    "x*y = y*x and (x*y)*z = x*(y*z)",
    ((Law(_commutativity, 2),), (Law(_associativity, 3),)),
)

# every reported law, by name
LAWS = {
    spec.name: spec
    for spec in (
        SKEW_SYMMETRY, FUNDAMENTAL_IDENTITY, ONE_THIRD_DERIVATION, PRODUCT_DERIVATION,
        INVOLUTIVE_MORPHISM, RELABEL_INTERTWINING, TRANSPOSED_LEIBNIZ, POISSON_LEIBNIZ,
        COMMUTATIVE_ASSOCIATIVE,
    )
}


def check_tp_compatibility(bdef, pdef, w, samples=None, seed=0):
    """3 u*[x,y,z] = [x*u,y,z] + [x,y*u,z] + [x,y,z*u] on basis 4-tuples."""
    return run_law(TRANSPOSED_LEIBNIZ, {"bracket": bdef, "product": pdef}, w, samples, seed)


def check_poisson_compatibility(bdef, pdef, w):
    """[x,y,u*v] = u*[x,y,v] + [x,y,u]*v on basis 4-tuples."""
    return run_law(POISSON_LEIBNIZ, {"bracket": bdef, "product": pdef}, w)


def check_commutative_associative(pdef, w):
    """x*y = y*x on pairs and (x*y)*z = x*(y*z) on triples."""
    return run_law(COMMUTATIVE_ASSOCIATIVE, {"product": pdef}, w)


# ---------------------------------------------------------------------------
# generator closure


class ClosureResult(NamedTuple):
    spanned: bool
    rounds_used: int
    missing: list


def generator_closure(bdef, gens, w, max_rounds=16, margin=None):
    """Close the span of the generators under the bracket, round by round.

    Each round brackets triples of the current reduced span basis that
    touch at least one element added in the previous round.  Bracket
    results whose support escapes the window padded by `margin` (default:
    the window width) are dropped; everything else is kept for later
    bracketing even when it lies outside the target window.  `spanned` is
    true once every basis symbol of the window reduces to zero against the
    span, tested by exact row reduction.

    The span basis is a linalg LeadSpan of rows in Z[i]: each generator
    enters as its normal form, and bracket results come in Z[i] where the
    bracket's constants are Gaussian integers, with Scalars where a
    rational value of f enters, which the span scales to Z[i].  A kept row
    is a nonzero multiple of the monic row, so the result does not depend
    on the coefficient type.  A round brackets the rows it started with
    only, so each result is inserted as it comes.

    The closure returns at the insert that spans the last target: the
    targets still missing are kept in order with a front index, and each
    insert that grows the span reduces the front target, advancing while
    it reduces to zero.  The span only grows, so each target is dropped
    once and a round costs O(grows + targets) reductions; the rest of the
    list is filtered once at the end of the round, giving `missing`.  The
    result is the one a test of every target after each whole round gives.

    Raises BudgetExceededError before listing a window of more target
    symbols than the exhaustive budget, before a round that would bracket
    more triples than it (the whole round is counted, though it may stop
    early), when the generators alone do not span the window and
    max_rounds is 0, and when max_rounds elapse while the span is still
    growing short of the target.
    """
    if not gens:
        raise ValueError("generator_closure requires at least one generator")
    if margin is None:
        margin = w.size
    extended = Window(w.lo - margin, w.hi + margin)
    require_budget(2 * w.size, f"generator closure needs {2 * w.size} target symbols")
    kernel = bdef.terms
    span = LeadSpan()
    for g in gens:
        if g:
            span.insert(dict(g.terms))
    left = [t for t in window_symbols(w) if span.reduce({t: 1})]
    if not left:
        return ClosureResult(True, 0, [])
    if not max_rounds:
        raise BudgetExceededError(
            f"the generators alone do not span the window {w}, and max_rounds is 0"
        )

    old_start = 0
    for round_no in range(1, max_rounds + 1):
        snapshot = list(span.rows.values())
        n = len(snapshot)
        triples = comb(n, 3) - comb(old_start, 3)
        require_budget(triples, f"closure round {round_no} needs {triples} bracket triples")
        grew = False
        front = 0
        for i, j in itertools.combinations(range(n), 2):
            for k in range(max(j + 1, old_start), n):
                br = extend(kernel, snapshot[i], snapshot[j], snapshot[k])
                if br and all(extended.contains(sym.index) for sym in br) and span.insert(br):
                    grew = True
                    while not span.reduce({left[front]: 1}):
                        front += 1
                        if front == len(left):
                            return ClosureResult(True, round_no, [])
        old_start = n
        # never empty: the round's last grow stopped at a target still missing
        left = [t for t in left[front:] if span.reduce({t: 1})]
        if not grew:
            return ClosureResult(False, round_no, left)
    raise BudgetExceededError(
        f"generator closure still growing after {max_rounds} rounds"
    )

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translie.algebras import TP_FAMILY, ProductDef, afk, functional, product_eval
from translie.checks import (
    check_commutative_associative,
    check_one_third_derivation,
    check_poisson_compatibility,
    check_tp_compatibility,
    window,
)
from translie.elements import Element, L, M
from translie import errors
from translie.errors import BudgetExceededError, InvalidParamsError
from translie.scalars import ZERO, GaussInt, Scalar, lift, narrow
from translie.tp import (
    POISSON_AND_TRANSPOSED,
    TRANSPOSED_ONLY,
    TPParams,
    build_example_family,
    classify_poisson,
    poisson_violation_witness,
    support_closure_window,
    tp_product,
    validate_params,
)

from families import left_multiplication_operator, scalar_value

F01 = functional({0: 1})


def example_instance(alpha_shift=0, c=None):
    """The rank-one family instance used throughout: d_seq={0: 5}, k=2."""
    params = build_example_family(F01, {0: 5}, {1: 1} if c is None else c, 2)
    if alpha_shift:
        params = TPParams(
            alpha=params.alpha + Scalar(alpha_shift),
            c=params.c,
            d=params.d,
            f=params.f,
            k=params.k,
        )
    return params


def test_zero_params_valid():
    p = TPParams(alpha=0, c={}, d={}, f=F01, k=0)
    assert validate_params(p).is_valid


def test_example_family_instance_valid():
    p = example_instance()
    assert p.alpha == Scalar(5)
    assert p.d[0, 0, 0] == Scalar(5)
    assert validate_params(p).is_valid


def _dense_d(n):
    """d = 1 on every index triple of 0..n-1: n^3 entries, n^5 join products."""
    return {(i, j, q): 1 for i in range(n) for j in range(n) for q in range(n)}


def _join_products(d):
    """The exchange join's products counted pair by pair: each d entry
    (a,b,q) meets every d entry whose first index is q."""
    return sum(1 for _, _, q in d for first, _, _ in d if first == q)


def test_validation_budget_is_the_exchange_join_work(monkeypatch):
    """A dense d over 3 indices makes 3^5 join products, within a budget of
    3^5; over 4 indices it makes 4^5 and is refused before the join runs.
    The count is d's own: an uneven d is counted entry by entry."""
    monkeypatch.setattr(errors, "DEFAULT_EXHAUSTIVE_CAP", 3**5)
    within = TPParams(alpha=0, c={}, d=_dense_d(3), f=F01, k=0)
    assert _join_products(within.d) == 3**5
    assert not validate_params(within).is_valid  # runs; this d breaks the weighted sums
    over = TPParams(alpha=0, c={}, d=_dense_d(4), f=F01, k=0)
    with pytest.raises(BudgetExceededError) as exc:
        validate_params(over)
    assert str(exc.value) == (
        "exchange identity needs 1024 products of d entries over 64 entries, budget is 243"
    )
    uneven = {(0, 0, 1): 1, (0, 1, 1): 2, (1, 0, 1): 2, (1, 1, 0): 3, (1, 2, 2): 1, (2, 2, 5): 1}
    products = _join_products(uneven)
    assert products == 3 + 3 + 3 + 2 + 1 + 0
    monkeypatch.setattr(errors, "DEFAULT_EXHAUSTIVE_CAP", products - 1)
    with pytest.raises(BudgetExceededError) as exc:
        validate_params(TPParams(alpha=0, c={}, d=uneven, f=F01, k=0))
    assert str(exc.value) == (
        f"exchange identity needs {products} products of d entries over 6 entries, "
        f"budget is {products - 1}"
    )


def test_weighted_sum_budget_is_the_support_pairs(monkeypatch):
    """A nonzero alpha meets every pair of f's support: 3 points make 9."""
    monkeypatch.setattr(errors, "DEFAULT_EXHAUSTIVE_CAP", 8)
    f = functional({0: 1, 1: 1, 2: 1})
    assert not validate_params(TPParams(alpha=0, c={}, d={}, f=f, k=0)).eq_weighted_sum_violations
    with pytest.raises(BudgetExceededError) as exc:
        validate_params(TPParams(alpha=1, c={}, d={}, f=f, k=0))
    assert str(exc.value) == "weighted-sum law needs 9 index pairs, budget is 8"


def test_perturbed_alpha_breaks_weighted_sum():
    p = example_instance(alpha_shift=-1)  # alpha = 4
    report = validate_params(p)
    assert not report.is_valid
    assert ((0, 0), Scalar(1)) in report.eq_weighted_sum_violations


def test_build_example_family_values():
    p = build_example_family(F01, {0: 5}, {}, 0)
    assert p.alpha == Scalar(5)
    assert p.d == {(0, 0, 0): Scalar(5)}

    f2 = functional({0: 1, 2: 1})
    q = build_example_family(f2, {1: 1}, {}, 0)
    assert not q.alpha
    assert q.d == {
        (0, 0, 1): Scalar(1),
        (0, 2, 1): Scalar(1),
        (2, 0, 1): Scalar(1),
        (2, 2, 1): Scalar(1),
    }

    z = build_example_family(F01, {}, {}, 0)
    assert not z.alpha and not z.d


def test_build_example_family_always_valid_random():
    rng = random.Random(3)
    for _ in range(20):
        f = functional({i: rng.randint(-2, 2) for i in rng.sample(range(-3, 4), 2)})
        if f.is_zero():
            continue
        d_seq = {i: rng.randint(-3, 3) for i in rng.sample(range(-3, 4), 2)}
        c = {i: rng.randint(-2, 2) for i in rng.sample(range(-2, 3), 1)}
        p = build_example_family(f, d_seq, c, rng.randint(-2, 2))
        assert validate_params(p).is_valid


def test_product_table():
    prod = tp_product(example_instance())
    assert product_eval(prod, Element.basis(L(3)), Element.basis(M(0))) == Element({L(3): Scalar(5)})
    assert product_eval(prod, Element.basis(L(2)), Element.basis(L(7))).is_zero()
    assert product_eval(prod, Element.basis(M(0)), Element.basis(M(0))) == Element({L(1): Scalar(1), M(0): Scalar(5)})


def test_product_requires_valid_params():
    with pytest.raises(InvalidParamsError) as exc:
        tp_product(example_instance(alpha_shift=1))
    assert not exc.value.report.is_valid


def test_support_closure_window():
    assert support_closure_window(example_instance()) == window(-2, 6)


def test_validated_product_commutative_associative():
    prod = tp_product(example_instance())
    w = support_closure_window(example_instance())
    assert check_commutative_associative(prod, w).passed


def test_validated_product_transposed_leibniz():
    p = example_instance()
    prod = tp_product(p)
    bdef = afk(p.k, p.f)
    assert check_tp_compatibility(bdef, prod, window(-1, 4)).passed
    assert check_tp_compatibility(
        bdef, prod, window(-1, 4), samples=500, seed=9
    ).passed


def test_perturbed_alpha_fails_transposed_leibniz():
    p = example_instance(alpha_shift=-1)
    prod = ProductDef(TP_FAMILY, params=p)  # bypass validation deliberately
    bdef = afk(p.k, p.f)
    report = check_tp_compatibility(bdef, prod, window(0, 2))
    assert not report.passed


def test_classify_poisson_dichotomy():
    assert classify_poisson(example_instance()) == TRANSPOSED_ONLY

    # alpha = 0 with nonzero d: support of the sequence away from the functional
    p0 = build_example_family(F01, {1: 5}, {}, 2)
    assert not p0.alpha and p0.d
    assert classify_poisson(p0) == POISSON_AND_TRANSPOSED

    pc = build_example_family(F01, {1: 5}, {2: 1}, 2)
    assert classify_poisson(pc) == TRANSPOSED_ONLY


def test_poisson_law_dichotomy_witnesses():
    p = example_instance()
    bdef = afk(p.k, p.f)
    w = window(-1, 4)
    witness = poisson_violation_witness(bdef, tp_product(p), w)
    assert witness is not None
    assert not witness.residual.is_zero()

    p0 = build_example_family(F01, {1: 5}, {}, 2)
    assert check_poisson_compatibility(bdef, tp_product(p0), w).passed


def test_exchange_violation_breaks_associativity_on_m_triple():
    f = F01
    d = {(0, 0, 1): Scalar(1), (0, 1, 1): Scalar(1), (1, 0, 1): Scalar(1)}
    p = TPParams(alpha=0, c={}, d=d, f=f, k=0)
    report = validate_params(p)
    assert report.eq_exchange_violations
    assert not report.eq_symmetry_violations
    assert not report.eq_weighted_sum_violations

    prod = ProductDef(TP_FAMILY, params=p)
    assoc = check_commutative_associative(prod, window(0, 1))
    bad_inputs = [v.inputs for v in assoc.violations if len(v.inputs) == 3]
    assert (M(0), M(0), M(1)) in bad_inputs


def test_symmetry_violation_detected():
    p = TPParams(alpha=0, c={}, d={(0, 1, 0): Scalar(1)}, f=F01, k=0)
    report = validate_params(p)
    assert report.eq_symmetry_violations


def test_left_multiplication_is_one_third_derivation():
    p = example_instance()
    prod = tp_product(p)
    bdef = afk(p.k, p.f)
    for sym in (L(0), M(0), M(2)):
        op = left_multiplication_operator(prod, Element.basis(sym), window(-10, 10))
        assert check_one_third_derivation(bdef, op, window(-2, 2)).passed


def test_params_immutable_and_pruned():
    p = TPParams(alpha=0, c={1: 0}, d={(0, 0, 0): Scalar(0)}, f=F01, k=1)
    assert not p.c and not p.d
    with pytest.raises(AttributeError):
        p.alpha = Scalar(1)


# ---------------------------------------------------------------------------
# each constant stored once, narrowed


# integral, Gaussian-integer, rational and 1/2+i values, given as ints,
# GaussInts and Scalars: a Gaussian integer given as a Scalar is narrowed
VALUES = st.one_of(
    st.integers(-3, 3),
    st.builds(GaussInt, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(Scalar, st.fractions(-3, 3, max_denominator=4)),
    st.just(Scalar(Fraction(1, 2), 1)),
)
INDEX_MAPS = st.dictionaries(st.integers(-2, 2), VALUES, max_size=3)


def _stored_as(stored, given):
    """stored is narrow(given), in its type, and prints as given's Scalar."""
    expected = narrow(given)
    return (
        type(stored) is type(expected)
        and stored == expected
        and str(stored) == str(lift(stored)) == str(lift(given))
    )


def _scalar(v):
    v = lift(v)
    return v if isinstance(v, Scalar) else Scalar(v)


def _scalar_example_family(f, d_seq):
    """alpha and d of the rank-one family computed in Scalars, value by
    value, the loop build_example_family ran before it read the stored
    values: the oracle for its values."""
    d_seq = {int(p): _scalar(v) for p, v in d_seq.items() if _scalar(v)}
    alpha = ZERO
    for q, dv in d_seq.items():
        alpha = alpha + scalar_value(f, q) * dv
    d = {}
    for i in f.support:
        fi = scalar_value(f, i)
        for j in f.support:
            w = fi * scalar_value(f, j)
            for p, dv in d_seq.items():
                val = dv * w
                if val:
                    d[(i, j, p)] = val
    return alpha, d


@settings(max_examples=80, deadline=None)
@given(f_map=INDEX_MAPS, alpha=VALUES, c=INDEX_MAPS, d_map=INDEX_MAPS)
def test_functional_and_params_store_each_value_narrowed(f_map, alpha, c, d_map):
    f = functional(f_map)
    given_f = {i: v for i, v in f_map.items() if v}
    assert f.support == sorted(given_f)
    assert f.by_index == dict(f.values)
    assert all(_stored_as(v, given_f[i]) for i, v in f.values)

    d = {(i, -i, i + 1): v for i, v in d_map.items()}
    params = TPParams(alpha=alpha, c=c, d=d, f=f, k=0)
    assert _stored_as(params.alpha, alpha)
    assert params.c.keys() == {p for p, v in c.items() if v}
    assert all(_stored_as(v, c[p]) for p, v in params.c.items())
    assert params.d.keys() == {key for key, v in d.items() if v}
    assert all(_stored_as(v, d[key]) for key, v in params.d.items())
    assert params.pairs == {(i, j): {q: v} for (i, j, q), v in params.d.items()}


@settings(max_examples=80, deadline=None)
@given(f_map=INDEX_MAPS, d_seq=INDEX_MAPS)
def test_example_family_matches_the_scalar_loop(f_map, d_seq):
    """build_example_family on the stored values gives the Scalar loop's
    alpha and d, value for value, each stored narrowed and printed as the
    loop's Scalar."""
    f = functional(f_map)
    params = build_example_family(f, d_seq, {}, 0)
    alpha, d = _scalar_example_family(f, d_seq)
    assert _stored_as(params.alpha, alpha)
    assert list(params.d) == list(d)
    assert all(_stored_as(params.d[key], v) for key, v in d.items())


# ---------------------------------------------------------------------------
# the sparse joins of validate_params against the dense loops they replaced


def _dense_validation(params):
    """Every law at every index tuple of the support closure, in loop order:
    the reference the sparse joins must reproduce witness for witness."""
    idx = params.support_indices()
    f = params.f

    def d(i, j, q):
        return params.d.get((i, j, q), ZERO)

    symmetry, weighted, exchange = [], [], []
    for i in idx:
        for j in idx:
            if i > j:
                continue
            for q in idx:
                residual = d(i, j, q) - d(j, i, q)
                if residual:
                    symmetry.append(((i, j, q), residual))
    for i in idx:
        for j in idx:
            total = Scalar(0)
            for q in idx:
                fq = scalar_value(f, q)
                if fq:
                    total = total + fq * d(i, j, q)
            residual = total - params.alpha * scalar_value(f, i) * scalar_value(f, j)
            if residual:
                weighted.append(((i, j), residual))
    for r in idx:
        for s in idx:
            for t in idx:
                for p in idx:
                    total = Scalar(0)
                    for q in idx:
                        total = total + d(r, s, q) * d(q, t, p)
                        total = total - d(s, t, q) * d(q, r, p)
                    if total:
                        exchange.append(((r, s, t, p), total))
    return symmetry, weighted, exchange


def _random_value(rng, kind):
    """A small integer, Gaussian integer, or Gaussian rational (imaginary
    part in halves)."""
    if kind == "real":
        return Scalar(rng.randint(-2, 2))
    return Scalar(rng.randint(-2, 2), Fraction(rng.randint(-2, 2), 2 if kind == "rational" else 1))


def _random_params(rng):
    """A rank-one family (valid), then perturbed: alpha shifted, d dropped
    under a nonzero alpha, d made asymmetric, or extra d entries that break
    the exchange identity."""
    values = rng.choice(["real", "gaussian", "rational"])
    f = functional({i: _random_value(rng, values) or 1 for i in rng.sample(range(-2, 3), 2)})
    d_seq = {p: _random_value(rng, values) for p in rng.sample(range(-2, 3), 2)}
    params = build_example_family(f, d_seq, {rng.randint(-3, 3): 1}, 1)
    alpha, d = params.alpha, dict(params.d)
    kind = rng.choice(["valid", "alpha", "no d", "asymmetric", "exchange"])
    if kind == "alpha":
        alpha = alpha + _random_value(rng, values)
    elif kind == "no d":
        alpha, d = alpha or Scalar(1), {}
    elif kind == "asymmetric":
        i, j, q = rng.randint(-2, 2), rng.randint(3, 4), rng.randint(-2, 2)
        d[i, j, q] = _random_value(rng, values)
    elif kind == "exchange":
        for _ in range(3):
            d[tuple(rng.randint(-2, 2) for _ in range(3))] = _random_value(rng, values)
    return TPParams(alpha=alpha, c=params.c, d=d, f=f, k=params.k)


def test_sparse_validation_matches_the_dense_loops():
    """Witness for witness, each residual with the dense loops' text, on
    params whose constants are all Gaussian integers (joined in Z[i]: each
    residual an int or a GaussInt) and on ones with a Gaussian-rational
    constant (joined in Scalars where it enters)."""
    rng = random.Random(41)
    seen = [0, 0, 0]
    integral = [0, 0]
    for _ in range(60):
        params = _random_params(rng)
        report = validate_params(params)
        lists = (
            report.eq_symmetry_violations,
            report.eq_weighted_sum_violations,
            report.eq_exchange_violations,
        )
        dense = _dense_validation(params)
        assert lists == dense
        constants = [params.alpha, *params.c.values(), *params.f.by_index.values()]
        constants += params.d.values()
        in_ring = all(type(v) is not Scalar for v in constants)
        for found, expected in zip(lists, dense):
            assert all(type(v) is not Scalar for _, v in found) or not in_ring
            assert [(key, str(v)) for key, v in found] == [(key, str(v)) for key, v in expected]
        seen = [n + bool(violations) for n, violations in zip(seen, lists)]
        integral[in_ring] += not report.is_valid
    assert all(n >= 5 for n in seen), seen
    assert all(n >= 5 for n in integral), integral


def test_validation_of_an_empty_d_does_no_dense_work():
    """|S| = 60: the dense loops would do 60^6 products (18^6 took 31.8 s on
    2 vCPUs, CPython 3.11); the sparse joins have nothing to join, so the
    budget, which counts their work, lets it through."""
    params = TPParams(alpha=0, c={p: 1 for p in range(1, 60)}, d={}, f=F01, k=0)
    assert len(params.support_indices()) == 60
    start = time.perf_counter()
    assert validate_params(params).is_valid
    assert time.perf_counter() - start < 5

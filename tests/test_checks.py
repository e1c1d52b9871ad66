import pytest

from translie.algebras import (
    a_omega_delta,
    afk,
    algebra_a,
    bracket_eval,
    family_swap,
    functional,
    index_scaling,
    omega_form,
    scaled_l_shift,
    uniform_shift,
    zero_product,
)
from translie.checks import (
    ONE_THIRD_DERIVATION,
    check_commutative_associative,
    check_derivation,
    check_fundamental_identity,
    check_involutive_morphism,
    check_one_third_derivation,
    check_poisson_compatibility,
    check_relabel_intertwining,
    check_skew_symmetry,
    check_tp_compatibility,
    generator_closure,
    run_law,
    window,
)
from translie.elements import Element, L, M
from translie import errors
from translie.errors import BudgetExceededError
from translie.scalars import Scalar
from translie.tp import poisson_violation_witness

from families import Counting, ScalarMultiple
from kernel_reference import _sort3


class CorruptedLLM:
    """Shifted bracket with the two-L structure constant off by one."""

    kind = "corrupted-llm"

    def terms(self, x, y, z):
        if x == y or y == z or x == z:
            return []
        a, b, c, sign = _sort3(x, y, z)
        if a.family == "L" and b.family == "L" and c.family == "M":
            return [(Scalar(sign * (b.index - a.index + 1)), L(a.index + b.index + c.index))]
        return a_omega_delta().terms(x, y, z)


class AsymmetricTable:
    """Deliberately order-dependent bracket (not antisymmetric)."""

    kind = "asymmetric"

    def terms(self, x, y, z):
        if (x.family, y.family, z.family) == ("L", "L", "M"):
            return [(Scalar(1), L(x.index + y.index + z.index))]
        return []


def test_skew_symmetry_passes_for_both_algebras():
    w = window(-3, 3)
    assert check_skew_symmetry(a_omega_delta(), w).passed
    assert check_skew_symmetry(afk(0, functional({0: 1})), w).passed


def test_skew_symmetry_catches_asymmetric_table():
    report = check_skew_symmetry(AsymmetricTable(), window(-1, 1))
    assert not report.passed
    v = report.violations[0]
    assert not v.residual.is_zero()


def test_fundamental_identity_exhaustive_passes():
    w = window(-2, 2)
    assert check_fundamental_identity(a_omega_delta(), w).passed
    assert check_fundamental_identity(afk(0, functional({0: 1})), w).passed


def test_fundamental_identity_catches_corruption():
    report = check_fundamental_identity(CorruptedLLM(), window(-2, 2))
    assert not report.passed
    v = report.violations[0]
    assert v.residual == v.lhs - v.rhs
    assert not v.residual.is_zero()


def test_fundamental_identity_budget_guard(monkeypatch):
    monkeypatch.setattr(errors, "DEFAULT_EXHAUSTIVE_CAP", 99)
    with pytest.raises(BudgetExceededError) as exc:
        check_fundamental_identity(a_omega_delta(), window(-2, 2))
    assert str(exc.value) == "exhaustive run needs 100000 cases, budget is 99"


@pytest.mark.parametrize(
    "check, cases",
    [
        (lambda w: check_skew_symmetry(a_omega_delta(), w), 512384096008),
        (lambda w: check_relabel_intertwining(w), 512384096008),
        (lambda w: check_derivation(index_scaling(), w), 64032004),
        (lambda w: check_involutive_morphism(family_swap(), w), 64040006),
        (lambda w: poisson_violation_witness(afk(0, functional({0: 1})), algebra_a(), w),
         4100097536256016),
    ],
    ids=["skew-symmetry", "relabel-intertwining", "derivation", "involutive-morphism",
         "poisson-witness"],
)
def test_every_enumeration_is_budgeted(check, cases):
    with pytest.raises(BudgetExceededError) as exc:
        check(window(-2000, 2000))
    assert str(exc.value) == f"exhaustive run needs {cases} cases, budget is 2000000"


def test_randomized_mode_reproducible():
    kwargs = dict(samples=300, seed=42)
    r1 = check_fundamental_identity(CorruptedLLM(), window(-2, 2), **kwargs)
    r2 = check_fundamental_identity(CorruptedLLM(), window(-2, 2), **kwargs)
    assert r1.cases_run == r2.cases_run == 300
    assert [v.inputs for v in r1.violations] == [v.inputs for v in r2.violations]
    assert r1.seed == 42
    # samples come from DEFAULT_RANDOM_WINDOW: the window is not read
    assert check_fundamental_identity(CorruptedLLM(), window(-10**6, 10**6), **kwargs) == r1
    r3 = check_fundamental_identity(CorruptedLLM(), window(-2, 2), samples=300, seed=43)
    assert [v.inputs for v in r3.violations] != [v.inputs for v in r1.violations]


def test_one_third_derivation_uniform_shift_passes():
    report = check_one_third_derivation(a_omega_delta(), uniform_shift(1), window(-1, 1))
    assert report.passed
    assert report.cases_run == 6**3


def test_one_third_derivation_hand_instance():
    """Shift by 1 on (L_0, L_1, M_0): both sides equal L_2."""
    bdef = a_omega_delta()
    op = uniform_shift(1)
    x, y, z = Element.basis(L(0)), Element.basis(L(1)), Element.basis(M(0))
    lhs = op.apply(bracket_eval(bdef, x, y, z))
    rhs = (
        bracket_eval(bdef, op.apply(x), y, z)
        + bracket_eval(bdef, x, op.apply(y), z)
        + bracket_eval(bdef, x, y, op.apply(z))
    )
    assert lhs == Element.basis(L(2))
    assert rhs == lhs.scale(Scalar(3))


def test_one_third_derivation_scalar_multiple_passes():
    assert check_one_third_derivation(
        a_omega_delta(), ScalarMultiple(5), window(-2, 2)
    ).passed


def test_one_third_derivation_rejects_index_scaling():
    report = check_one_third_derivation(a_omega_delta(), index_scaling(), window(-2, 2))
    assert not report.passed


def test_derivation_rule_for_index_scaling_and_shifts():
    w = window(-5, 5)
    assert check_derivation(index_scaling(), w).passed
    assert check_derivation(scaled_l_shift(3), w).passed
    # instance: scaling(L_2 * L_3) = 5 L_5 = 2 L_5 + 3 L_5
    from translie.algebras import product_eval

    prod = algebra_a()
    op = index_scaling()
    x, y = Element.basis(L(2)), Element.basis(L(3))
    assert op.apply(product_eval(prod, x, y)) == Element({L(5): Scalar(5)})


def test_family_swap_is_not_a_derivation():
    report = check_derivation(family_swap(), window(-1, 1))
    assert not report.passed
    bad_inputs = {v.inputs for v in report.violations}
    assert (L(0), L(0)) in bad_inputs


def test_family_swap_is_involutive_morphism():
    assert check_involutive_morphism(family_swap(), window(-5, 5)).passed


def test_index_scaling_is_not_involutive():
    assert not check_involutive_morphism(index_scaling(), window(-2, 2)).passed


def test_relabel_intertwining():
    assert check_relabel_intertwining(window(-3, 3)).passed


def test_compatibility_checks_pass_on_zero_product():
    w = window(-2, 2)
    zp = zero_product()
    for bdef in (a_omega_delta(), afk(1, functional({0: 1}))):
        assert check_tp_compatibility(bdef, zp, w).passed
        assert check_poisson_compatibility(bdef, zp, w).passed


def test_commutative_associative_base_product():
    assert check_commutative_associative(algebra_a(), window(-4, 4)).passed


def test_each_failing_tuple_is_evaluated_once():
    """A violation is built from the sides its case computed, on the
    integer terms: no tuple's law is evaluated twice, and the witness is in
    Scalars all the same."""
    evaluated = []

    def sides(k, *xyz):
        evaluated.append(xyz)
        return ONE_THIRD_DERIVATION.parts[0][0].sides(k, *xyz)

    spec = ONE_THIRD_DERIVATION._replace(
        parts=((ONE_THIRD_DERIVATION.parts[0][0]._replace(sides=sides),),)
    )
    for bracket in (a_omega_delta(), Counting(a_omega_delta())):
        evaluated.clear()
        defs = {"bracket": bracket, "op": index_scaling()}
        report = run_law(spec, defs, window(-1, 1))
        assert len(report.violations) == 72
        assert len(evaluated) == len(set(evaluated)) > 0
        assert report == check_one_third_derivation(a_omega_delta(), index_scaling(), window(-1, 1))
    assert all(
        type(c) is Scalar
        for v in report.violations
        for side in (v.lhs, v.rhs, v.residual)
        for c in side.terms.values()
    )


def test_violation_residual_reproducible():
    report = check_fundamental_identity(CorruptedLLM(), window(-1, 1))
    assert not report.passed
    for v in report.violations[:20]:
        x, y, u, vv, t = (Element.basis(s) for s in v.inputs)
        bdef = CorruptedLLM()
        lhs = bracket_eval(bdef, x, y, bracket_eval(bdef, u, vv, t))
        rhs = (
            bracket_eval(bdef, bracket_eval(bdef, x, y, u), vv, t)
            + bracket_eval(bdef, u, bracket_eval(bdef, x, y, vv), t)
            + bracket_eval(bdef, u, vv, bracket_eval(bdef, x, y, t))
        )
        assert lhs == v.lhs
        assert rhs == v.rhs
        assert lhs - rhs == v.residual


# ---------------------------------------------------------------------------
# generator closure


STANDARD_GENS = [Element.basis(s) for s in (L(-1), L(0), L(1), M(-1), M(0), M(1))]


def test_generator_closure_standard_generators():
    result = generator_closure(a_omega_delta(), STANDARD_GENS, window(-6, 6))
    assert result.spanned
    assert result.missing == []


def test_generator_closure_single_generator_fixpoint():
    result = generator_closure(a_omega_delta(), [Element.basis(L(0))], window(-1, 1))
    assert not result.spanned
    assert M(0) in result.missing and L(1) in result.missing


def test_generator_closure_l_only_misses_every_m():
    gens = [Element.basis(s) for s in (L(-1), L(0), L(1))]
    result = generator_closure(a_omega_delta(), gens, window(-4, 4))
    assert not result.spanned
    missing = set(result.missing)
    for i in range(-4, 5):
        assert M(i) in missing


def test_generator_closure_monotone_in_generators():
    w = window(-4, 4)
    base = generator_closure(a_omega_delta(), STANDARD_GENS, w)
    assert base.spanned
    bigger = generator_closure(
        a_omega_delta(), STANDARD_GENS + [Element.basis(L(3))], w
    )
    assert bigger.spanned


def test_generator_closure_budget():
    with pytest.raises(BudgetExceededError):
        generator_closure(a_omega_delta(), STANDARD_GENS, window(-6, 6), max_rounds=1)


def test_generator_closure_round_budget():
    """A round that would bracket more triples than the budget raises
    before it brackets any: 230 rows give C(230,3) = 2,001,460 triples."""
    gens = [Element.basis(s) for i in range(115) for s in (L(i), M(i))]
    counting = Counting(a_omega_delta())
    with pytest.raises(BudgetExceededError) as exc:
        generator_closure(counting, gens, window(-1, 1))
    assert str(exc.value) == "closure round 1 needs 2001460 bracket triples, budget is 2000000"
    assert counting.calls == 0


# Closure results recorded with the Element-row closure this one replaced,
# which reduced monic Fraction rows: (spanned, rounds_used, missing).
CLOSURE_BRACKETS = {
    "a-omega-delta": a_omega_delta(),
    "omega-form": omega_form(),
    "afk-int": afk(1, functional({0: 2, 1: -3})),
    "afk-half": afk(1, functional({0: Scalar.parse("1/2")})),
    "afk-gauss": afk(1, functional({0: Scalar.parse("1+i"), 1: 2})),
}
FRACTIONAL_GEN = Element({L(0): Scalar(1), M(1): Scalar.parse("1/2")})
GAUSSIAN_GEN = Element({M(0): Scalar(1), L(1): Scalar.parse("1+i")})
CLOSURE_GENS = {
    "standard": STANDARD_GENS,
    "fractional": [STANDARD_GENS[0], FRACTIONAL_GEN, *STANDARD_GENS[2:]],
    "gaussian": [*STANDARD_GENS[:4], GAUSSIAN_GEN, STANDARD_GENS[5]],
    "sparse-fractional": [FRACTIONAL_GEN, Element.basis(L(1)), Element.basis(M(-1))],
    "sparse-gaussian": [GAUSSIAN_GEN, Element.basis(L(-1)), Element.basis(M(1))],
}
CLOSURE_WINDOWS = {"[-3,3]": window(-3, 3), "[-6,6]": window(-6, 6)}
CLOSURE_EXPECTED = {
    ("a-omega-delta", "standard", "[-3,3]"): (True, 2, ""),
    ("a-omega-delta", "standard", "[-6,6]"): (True, 3, ""),
    ("a-omega-delta", "fractional", "[-3,3]"): (True, 2, ""),
    ("a-omega-delta", "fractional", "[-6,6]"): (True, 3, ""),
    ("a-omega-delta", "gaussian", "[-3,3]"): (True, 2, ""),
    ("a-omega-delta", "gaussian", "[-6,6]"): (True, 3, ""),
    ("a-omega-delta", "sparse-fractional", "[-3,3]"): (False, 6,
        "L_-3 L_-2 L_-1 M_-3 M_-2"
    ),
    ("a-omega-delta", "sparse-fractional", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 L_-1 M_-6 M_-5 M_-4 M_-3 M_-2"
    ),
    ("a-omega-delta", "sparse-gaussian", "[-3,3]"): (False, 6, "L_-3 L_-2 M_-3 M_-2 M_-1"),
    ("a-omega-delta", "sparse-gaussian", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_-1"
    ),
    ("omega-form", "standard", "[-3,3]"): (True, 2, ""),
    ("omega-form", "standard", "[-6,6]"): (True, 3, ""),
    ("omega-form", "fractional", "[-3,3]"): (True, 2, ""),
    ("omega-form", "fractional", "[-6,6]"): (True, 3, ""),
    ("omega-form", "gaussian", "[-3,3]"): (True, 2, ""),
    ("omega-form", "gaussian", "[-6,6]"): (True, 3, ""),
    ("omega-form", "sparse-fractional", "[-3,3]"): (False, 5,
        "L_-3 L_-2 L_-1 L_0 L_3 M_-2 M_0 M_1 M_2 M_3"
    ),
    ("omega-form", "sparse-fractional", "[-6,6]"): (False, 5,
        "L_-6 L_-5 L_-4 L_-3 L_-2 L_-1 L_0 L_3 M_-2 M_0 M_1 M_2 M_3 M_4 M_5 M_6"
    ),
    ("omega-form", "sparse-gaussian", "[-3,3]"): (False, 5,
        "L_-2 L_0 L_1 L_2 L_3 M_-3 M_-2 M_-1 M_0 M_3"
    ),
    ("omega-form", "sparse-gaussian", "[-6,6]"): (False, 5,
        "L_-2 L_0 L_1 L_2 L_3 L_4 L_5 L_6 M_-6 M_-5 M_-4 M_-3 M_-2 M_-1 M_0 M_3"
    ),
    ("afk-int", "standard", "[-3,3]"): (False, 5, "L_-3 L_-2 M_-3 M_-2 M_2 M_3"),
    ("afk-int", "standard", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-int", "fractional", "[-3,3]"): (False, 5, "L_-3 L_-2 M_-3 M_-2 M_2 M_3"),
    ("afk-int", "fractional", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-int", "gaussian", "[-3,3]"): (False, 5, "L_-3 L_-2 M_-3 M_-2 M_2 M_3"),
    ("afk-int", "gaussian", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-int", "sparse-fractional", "[-3,3]"): (False, 1,
        "L_-3 L_-2 L_-1 L_0 L_2 L_3 M_-3 M_-2 M_0 M_1 M_2 M_3"
    ),
    ("afk-int", "sparse-fractional", "[-6,6]"): (False, 1,
        "L_-6 L_-5 L_-4 L_-3 L_-2 L_-1 L_0 L_2 L_3 L_4 L_5 L_6 M_-6 M_-5 M_-4 "
        "M_-3 M_-2 M_0 M_1 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-int", "sparse-gaussian", "[-3,3]"): (False, 2,
        "L_-3 L_-2 L_0 L_2 L_3 M_-3 M_-2 M_-1 M_2 M_3"
    ),
    ("afk-int", "sparse-gaussian", "[-6,6]"): (False, 2,
        "L_-6 L_-5 L_-4 L_-3 L_-2 L_0 L_2 L_3 L_4 L_5 L_6 M_-6 M_-5 M_-4 M_-3 "
        "M_-2 M_-1 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-half", "standard", "[-3,3]"): (False, 5, "L_-3 L_-2 M_-3 M_-2 M_2 M_3"),
    ("afk-half", "standard", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-half", "fractional", "[-3,3]"): (False, 5, "L_-3 L_-2 M_-3 M_-2 M_2 M_3"),
    ("afk-half", "fractional", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-half", "gaussian", "[-3,3]"): (False, 5, "L_-3 L_-2 M_-3 M_-2 M_2 M_3"),
    ("afk-half", "gaussian", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-half", "sparse-fractional", "[-3,3]"): (False, 1,
        "L_-3 L_-2 L_-1 L_0 L_2 L_3 M_-3 M_-2 M_0 M_1 M_2 M_3"
    ),
    ("afk-half", "sparse-fractional", "[-6,6]"): (False, 1,
        "L_-6 L_-5 L_-4 L_-3 L_-2 L_-1 L_0 L_2 L_3 L_4 L_5 L_6 M_-6 M_-5 M_-4 "
        "M_-3 M_-2 M_0 M_1 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-half", "sparse-gaussian", "[-3,3]"): (False, 1,
        "L_-3 L_-2 L_0 L_1 L_2 L_3 M_-3 M_-2 M_-1 M_0 M_2 M_3"
    ),
    ("afk-half", "sparse-gaussian", "[-6,6]"): (False, 1,
        "L_-6 L_-5 L_-4 L_-3 L_-2 L_0 L_1 L_2 L_3 L_4 L_5 L_6 M_-6 M_-5 M_-4 M_-3 "
        "M_-2 M_-1 M_0 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-gauss", "standard", "[-3,3]"): (False, 5, "L_-3 L_-2 M_-3 M_-2 M_2 M_3"),
    ("afk-gauss", "standard", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-gauss", "fractional", "[-3,3]"): (False, 5, "L_-3 L_-2 M_-3 M_-2 M_2 M_3"),
    ("afk-gauss", "fractional", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-gauss", "gaussian", "[-3,3]"): (False, 5, "L_-3 L_-2 M_-3 M_-2 M_2 M_3"),
    ("afk-gauss", "gaussian", "[-6,6]"): (False, 6,
        "L_-6 L_-5 L_-4 L_-3 L_-2 M_-6 M_-5 M_-4 M_-3 M_-2 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-gauss", "sparse-fractional", "[-3,3]"): (False, 1,
        "L_-3 L_-2 L_-1 L_0 L_2 L_3 M_-3 M_-2 M_0 M_1 M_2 M_3"
    ),
    ("afk-gauss", "sparse-fractional", "[-6,6]"): (False, 1,
        "L_-6 L_-5 L_-4 L_-3 L_-2 L_-1 L_0 L_2 L_3 L_4 L_5 L_6 M_-6 M_-5 M_-4 "
        "M_-3 M_-2 M_0 M_1 M_2 M_3 M_4 M_5 M_6"
    ),
    ("afk-gauss", "sparse-gaussian", "[-3,3]"): (False, 2,
        "L_-3 L_-2 L_0 L_2 L_3 M_-3 M_-2 M_-1 M_2 M_3"
    ),
    ("afk-gauss", "sparse-gaussian", "[-6,6]"): (False, 2,
        "L_-6 L_-5 L_-4 L_-3 L_-2 L_0 L_2 L_3 L_4 L_5 L_6 M_-6 M_-5 M_-4 M_-3 "
        "M_-2 M_-1 M_2 M_3 M_4 M_5 M_6"
    ),
}


@pytest.mark.parametrize("case", list(CLOSURE_EXPECTED), ids="|".join)
def test_generator_closure_matches_recorded_results(case):
    bracket, gens, w = case
    result = generator_closure(
        CLOSURE_BRACKETS[bracket], CLOSURE_GENS[gens], CLOSURE_WINDOWS[w], max_rounds=6
    )
    spanned, rounds_used, missing = CLOSURE_EXPECTED[case]
    assert result == (spanned, rounds_used, [_symbol(t) for t in missing.split()])


def _symbol(text):
    """The basis symbol a report prints as "L_3" or "M_-2"."""
    fam, _, idx = text.partition("_")
    return {"L": L, "M": M}[fam](int(idx))


def _element(terms):
    return Element({_symbol(s): Scalar.parse(c) for s, c in terms.items()})


# Narrow margins and mixed generators, where the rows kept (not only their
# span) decide which brackets stay inside the extended window: reducing
# earlier rows against each new pivot changes all four results.  Recorded
# with the Element-row closure: (bracket, generators, window, max_rounds,
# margin) -> (spanned, rounds_used, missing).
BASIS_DEPENDENT_CASES = [
    (
        (omega_form(), [{"L_-2": "1"}, {"M_0": "1/2", "L_-1": "-2"}, {"M_-1": "1"},
                        {"M_0": "-2", "M_2": "-2"}], (-3, 1), 3, 0),
        (False, 2, "L_-3 L_-1 L_0 L_1 M_-3 M_-2 M_0"),
    ),
    (
        (a_omega_delta(), [{"M_1": "1", "M_-2": "1"}, {"M_-2": "-2", "L_-2": "-2", "L_2": "1/2"},
                           {"M_1": "1", "L_2": "-2"}, {"L_1": "-3/4", "M_2": "-2", "M_-2": "1/2"},
                           {"L_2": "2i", "M_-2": "1"}], (-3, 2), 4, 0),
        (False, 3, "L_-3 L_-1 L_0"),
    ),
    (
        (afk(1, functional({-1: Scalar.parse("1/2")})),
         [{"L_-1": "1/2"}, {"M_0": "1"}, {"L_1": "1/2", "L_0": "1/2", "M_0": "1"},
          {"L_1": "1", "L_-2": "1/2", "L_2": "-3/4"}, {"M_2": "1/2", "M_0": "1", "M_-1": "1/2"}],
         (-1, 2), 2, 1),
        (False, 2, "M_-1 M_1 M_2"),
    ),
    (
        (afk(2, functional({-1: -2})),
         [{"M_-1": "1+i"}, {"L_0": "2i", "L_-1": "-2", "M_1": "1"},
          {"L_-1": "1/2", "L_0": "1+i", "M_-2": "-2"}], (-1, 3), 3, 1),
        (False, 3, "L_-1 L_0 M_0 M_1 M_2 M_3"),
    ),
]


@pytest.mark.parametrize("case, expected", BASIS_DEPENDENT_CASES)
def test_generator_closure_basis_dependent_cases(case, expected):
    bdef, gens, (lo, hi), max_rounds, margin = case
    result = generator_closure(
        bdef, [_element(g) for g in gens], window(lo, hi), max_rounds=max_rounds, margin=margin
    )
    spanned, rounds_used, missing = expected
    assert result == (spanned, rounds_used, [_symbol(t) for t in missing.split()])

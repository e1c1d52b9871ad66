import pytest

from translie.algebras import (
    _sort3,
    a_omega_delta,
    afk,
    algebra_a,
    bracket_eval,
    family_swap,
    functional,
    index_scaling,
    scalar_multiple,
    scaled_l_shift,
    uniform_shift,
    zero_product,
)
from translie.checks import (
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
    window,
)
from translie.elements import Element, L, M
from translie.errors import BudgetExceededError
from translie.scalars import from_int
from translie.tp import poisson_violation_witness


class CorruptedLLM:
    """Shifted bracket with the two-L structure constant off by one."""

    kind = "corrupted-llm"

    def terms(self, x, y, z):
        if x == y or y == z or x == z:
            return []
        a, b, c, sign = _sort3(x, y, z)
        if a.family == "L" and b.family == "L" and c.family == "M":
            return [(from_int(sign * (b.index - a.index + 1)), L(a.index + b.index + c.index))]
        return a_omega_delta().terms(x, y, z)


class AsymmetricTable:
    """Deliberately order-dependent bracket (not antisymmetric)."""

    kind = "asymmetric"

    def terms(self, x, y, z):
        if (x.family, y.family, z.family) == ("L", "L", "M"):
            return [(from_int(1), L(x.index + y.index + z.index))]
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


def test_fundamental_identity_budget_guard():
    with pytest.raises(BudgetExceededError):
        check_fundamental_identity(a_omega_delta(), window(-2, 2), budget=99)


@pytest.mark.parametrize(
    "check",
    [
        lambda w: check_skew_symmetry(a_omega_delta(), w),
        lambda w: check_relabel_intertwining(w),
        lambda w: check_derivation(index_scaling(), w),
        lambda w: check_involutive_morphism(family_swap(), w),
        lambda w: poisson_violation_witness(afk(0, functional({0: 1})), algebra_a(), w),
    ],
    ids=["skew-symmetry", "relabel-intertwining", "derivation", "involutive-morphism",
         "poisson-witness"],
)
def test_every_enumeration_is_budgeted(check):
    with pytest.raises(BudgetExceededError, match="budget is 2000000"):
        check(window(-2000, 2000))


def test_randomized_mode_reproducible():
    kwargs = dict(mode="randomized", budget=300, seed=42)
    r1 = check_fundamental_identity(CorruptedLLM(), window(-2, 2), **kwargs)
    r2 = check_fundamental_identity(CorruptedLLM(), window(-2, 2), **kwargs)
    assert r1.cases_run == r2.cases_run == 300
    assert [v.inputs for v in r1.violations] == [v.inputs for v in r2.violations]
    assert r1.seed == 42
    r3 = check_fundamental_identity(CorruptedLLM(), window(-2, 2), mode="randomized", budget=300, seed=43)
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
    assert rhs == lhs.scale(from_int(3))


def test_one_third_derivation_scalar_multiple_passes():
    assert check_one_third_derivation(
        a_omega_delta(), scalar_multiple(5), window(-2, 2)
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
    assert op.apply(product_eval(prod, x, y)) == Element.from_terms((L(5), 5))


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

"""The law driver against the every-ordered-tuple driver.

An exhaustive law with alternating slot groups is evaluated on one tuple
per orbit when every bracket is declared antisymmetric, and each failing
orbit is replayed with signed sides; any other exhaustive part lists every
ordered tuple.  These tests compare run_law with
law_reference.run_law_ordered field by field (cases_run and every
Violation, in order) on every grouped law, with integer, rational and
1+i functionals, on passing and violating inputs, and with stop_at_first;
and on every law of checks.LAWS, with a definition that passes it and one
that fails it, stop_at_first both ways.
"""

from fractions import Fraction

import pytest

from translie.algebras import (
    a_omega_delta,
    afk,
    algebra_a,
    family_swap,
    functional,
    index_scaling,
    m_negation,
    omega_form,
    scaled_l_shift,
    uniform_shift,
    zero_product,
)
from translie.checks import (
    FUNDAMENTAL_IDENTITY,
    LAWS,
    ONE_THIRD_DERIVATION,
    POISSON_LEIBNIZ,
    RELABEL_INTERTWINING,
    SKEW_SYMMETRY,
    TRANSPOSED_LEIBNIZ,
    check_fundamental_identity,
    run_law,
    window,
)
from translie.elements import L
from translie.scalars import Scalar
from translie.tp import build_example_family, poisson_violation_witness, tp_product

from law_reference import run_law_ordered
from test_checks import CorruptedLLM

FUNCTIONALS = {
    "int": functional({0: 2, 1: -3}),
    "rational": functional({0: Fraction(1, 2), 1: Fraction(-2, 3)}),
    "gaussian": functional({0: Scalar.parse("1+i")}),
}
BRACKETS = {
    "a-omega-delta": a_omega_delta(),
    "omega-form": omega_form(),
    **{f"afk-{name}": afk(1, f) for name, f in FUNCTIONALS.items()},
}
# per functional, a family on each side of the Poisson dichotomy: alpha = 0
# and c = 0 when d's sequence lives off f's support
FAMILIES = {
    (name, side): tp_product(build_example_family(f, d_seq, c, 1))
    for name, f in FUNCTIONALS.items()
    for side, d_seq, c in (("transposed", {0: 5}, {1: 1}), ("poisson", {3: 2}, {}))
}


class SortedCorrupted(CorruptedLLM):
    """A corrupted bracket stated on sorted triples: antisymmetric, so it
    declares so."""

    antisymmetric = True


class Unsorted:
    """The a-omega-delta bracket on sorted triples, and the same value
    without the permutation sign on every other order: not antisymmetric,
    and duck-typed, so it declares nothing."""

    def terms(self, x, y, z):
        return a_omega_delta().terms(*sorted((x, y, z)))


class DeclaredUnsorted(Unsorted):
    """The same bracket, falsely declared antisymmetric."""

    antisymmetric = True


def assert_orbits_match(spec, defs, w, stop_at_first=False):
    """run_law equals the ordered driver field by field; returns the report."""
    report = run_law(spec, defs, w, stop_at_first=stop_at_first)
    assert report == run_law_ordered(spec, defs, w, stop_at_first=stop_at_first)
    return report


def _cases():
    for name, b in BRACKETS.items():
        yield f"fi-{name}", FUNDAMENTAL_IDENTITY, {"bracket": b}, window(-1, 1)
        for op_name, op in (("index", index_scaling()), ("shift", uniform_shift(1)),
                            ("l-shift", scaled_l_shift(1))):
            yield (f"third-{name}-{op_name}", ONE_THIRD_DERIVATION,
                   {"bracket": b, "op": op}, window(-1, 1))
        yield (f"relabel-{name}", RELABEL_INTERTWINING,
               {"source": b, "bracket": b, "op": m_negation()}, window(-1, 1))
        for pr_name, pr in (("algebra-a", algebra_a()), ("zero", zero_product())):
            for spec in (TRANSPOSED_LEIBNIZ, POISSON_LEIBNIZ):
                yield (f"{spec.name}-{name}-{pr_name}", spec,
                       {"bracket": b, "product": pr}, window(-1, 0))
    yield ("relabel-omega-form-to-a-omega-delta", RELABEL_INTERTWINING,
           {"source": omega_form(), "bracket": a_omega_delta(), "op": m_negation()}, window(-1, 1))
    for (name, side), pr in FAMILIES.items():
        b = BRACKETS[f"afk-{name}"]
        for spec in (TRANSPOSED_LEIBNIZ, POISSON_LEIBNIZ):
            yield (f"{spec.name}-afk-{name}-{side}", spec,
                   {"bracket": b, "product": pr}, window(-1, 1))
    yield "fi-sorted-corrupted", FUNDAMENTAL_IDENTITY, {"bracket": SortedCorrupted()}, window(-1, 1)
    yield ("third-sorted-corrupted", ONE_THIRD_DERIVATION,
           {"bracket": SortedCorrupted(), "op": uniform_shift(1)}, window(-1, 1))


CASES = list(_cases())


@pytest.mark.parametrize("spec, defs, w", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_orbit_path_matches_every_ordered_tuple(spec, defs, w):
    assert_orbits_match(spec, defs, w)


@pytest.mark.parametrize(
    "spec, defs, w, failures",
    [
        (ONE_THIRD_DERIVATION, {"bracket": a_omega_delta(), "op": index_scaling()},
         window(-1, 1), 72),
        (TRANSPOSED_LEIBNIZ, {"bracket": a_omega_delta(), "product": algebra_a()},
         window(-1, 1), 648),
        (POISSON_LEIBNIZ, {"bracket": a_omega_delta(), "product": algebra_a()},
         window(-1, 1), 540),
        (FUNDAMENTAL_IDENTITY, {"bracket": SortedCorrupted()}, window(-1, 1), None),
        (POISSON_LEIBNIZ, {"bracket": BRACKETS["afk-gaussian"],
                           "product": FAMILIES["gaussian", "transposed"]}, window(-1, 1), None),
    ],
    ids=["third-index-scaling", "transposed-algebra-a", "poisson-algebra-a", "fi-corrupted",
         "poisson-gaussian-family"],
)
def test_violating_inputs_replay_every_orbit_member(spec, defs, w, failures):
    report = assert_orbits_match(spec, defs, w)
    assert not report.passed
    if failures is not None:
        assert len(report.violations) == failures


def test_orbit_members_share_their_lifted_sides():
    """A failing representative's sides are lifted to Scalars once per
    sign: the 72 violations, 12 orbits of 6 members, carry 24 Elements on
    each side and as many residuals."""
    report = run_law(
        ONE_THIRD_DERIVATION, {"bracket": a_omega_delta(), "op": index_scaling()}, window(-1, 1)
    )
    assert len(report.violations) == 72
    for side in ("lhs", "rhs", "residual"):
        assert len({id(getattr(v, side)) for v in report.violations}) == 24


WITNESS_CASES = [
    (b_name, pr_name, w)
    for b_name, pr_name in (
        ("a-omega-delta", "algebra-a"),
        ("omega-form", "algebra-a"),
        ("afk-int", "algebra-a"),
        ("afk-int", "transposed"),
        ("afk-rational", "transposed"),
        ("afk-gaussian", "transposed"),
        ("afk-gaussian", "poisson"),
    )
    for w in (window(-1, 1), window(-2, 1), window(0, 2), window(-1, 4))
]


@pytest.mark.parametrize("b_name, pr_name, w", WITNESS_CASES,
                         ids=[f"{b}-{p}-{w}" for b, p, w in WITNESS_CASES])
def test_stop_at_first_finds_the_first_failing_ordered_tuple(b_name, pr_name, w):
    bdef = BRACKETS[b_name]
    if pr_name == "algebra-a":
        pdef = algebra_a()
    else:
        pdef = FAMILIES[b_name.removeprefix("afk-"), pr_name]
    defs = {"bracket": bdef, "product": pdef}
    report = assert_orbits_match(POISSON_LEIBNIZ, defs, w, stop_at_first=True)
    witness = poisson_violation_witness(bdef, pdef, w)
    assert witness == (report.violations[0] if report.violations else None)
    assert (witness is None) == (pr_name == "poisson")


def test_a_bracket_that_does_not_declare_antisymmetry_gets_every_ordered_tuple():
    """A corrupted bracket outside canonical order is caught all the same,
    because it declares nothing; declared antisymmetric, the orbit path
    would report something else."""
    w = window(-1, 1)
    for spec, defs in (
        (FUNDAMENTAL_IDENTITY, {"bracket": Unsorted()}),
        (RELABEL_INTERTWINING, {"source": omega_form(), "bracket": Unsorted(), "op": m_negation()}),
    ):
        report = assert_orbits_match(spec, defs, w)
        assert not report.passed
        declared = {name: DeclaredUnsorted() if isinstance(d, Unsorted) else d
                    for name, d in defs.items()}
        assert run_law(spec, declared, w) != report


def test_skew_symmetry_is_checked_on_every_ordered_tuple():
    report = assert_orbits_match(SKEW_SYMMETRY, {"bracket": SortedCorrupted()}, window(-1, 1))
    assert report.passed
    assert not assert_orbits_match(SKEW_SYMMETRY, {"bracket": Unsorted()}, window(-1, 1)).passed


@pytest.mark.parametrize("samples", [0, -5])
def test_a_randomized_run_needs_a_sample(samples):
    with pytest.raises(ValueError, match=f"at least 1 sample, got {samples}"):
        check_fundamental_identity(a_omega_delta(), window(-1, 1), samples=samples)


class LeftFactor:
    """x*y = x: associative, not commutative."""

    def terms(self, x, y):
        return [(1, x)]


class IndexSum:
    """x*y = (index x + index y) L_0: commutative, not associative, so a
    failure comes only in the second part of commutative-associative."""

    def terms(self, x, y):
        c = x.index + y.index
        return [(c, L(0))] if c else []


AOD_RELABEL = {"source": omega_form(), "bracket": a_omega_delta(), "op": m_negation()}
# per law of checks.LAWS, definitions that pass it and definitions that fail it
LAW_DEFS = [
    ("skew-symmetry", "passes", {"bracket": a_omega_delta()}),
    ("skew-symmetry", "fails", {"bracket": Unsorted()}),
    ("fundamental-identity", "passes", {"bracket": a_omega_delta()}),
    ("fundamental-identity", "fails", {"bracket": SortedCorrupted()}),
    ("one-third-derivation", "passes", {"bracket": a_omega_delta(), "op": uniform_shift(1)}),
    ("one-third-derivation", "fails", {"bracket": a_omega_delta(), "op": index_scaling()}),
    ("product-derivation-rule", "passes", {"product": algebra_a(), "op": index_scaling()}),
    ("product-derivation-rule", "fails", {"product": algebra_a(), "op": family_swap()}),
    ("involutive-morphism", "passes", {"product": algebra_a(), "op": family_swap()}),
    ("involutive-morphism", "fails", {"product": algebra_a(), "op": index_scaling()}),
    ("relabel-intertwining", "passes", AOD_RELABEL),
    ("relabel-intertwining", "fails", {**AOD_RELABEL, "bracket": Unsorted()}),
    ("transposed-leibniz", "passes", {"bracket": a_omega_delta(), "product": zero_product()}),
    ("transposed-leibniz", "fails", {"bracket": a_omega_delta(), "product": algebra_a()}),
    ("poisson-leibniz", "passes", {"bracket": a_omega_delta(), "product": zero_product()}),
    ("poisson-leibniz", "fails", {"bracket": a_omega_delta(), "product": algebra_a()}),
    ("commutative-associative", "passes", {"product": algebra_a()}),
    ("commutative-associative", "fails", {"product": LeftFactor()}),
    ("commutative-associative", "fails-second-part", {"product": IndexSum()}),
]


def test_every_law_has_a_passing_and_a_failing_definition():
    assert {name for name, outcome, _ in LAW_DEFS if outcome == "passes"} == LAWS.keys()
    assert {name for name, outcome, _ in LAW_DEFS if outcome != "passes"} == LAWS.keys()


@pytest.mark.parametrize("stop_at_first", [False, True], ids=["all", "stop-at-first"])
@pytest.mark.parametrize(
    "name, outcome, defs", LAW_DEFS, ids=[f"{name}-{outcome}" for name, outcome, _ in LAW_DEFS]
)
def test_every_law_matches_every_ordered_tuple(name, outcome, defs, stop_at_first):
    report = assert_orbits_match(LAWS[name], defs, window(-1, 1), stop_at_first)
    assert report.passed == (outcome == "passes")
    if outcome == "fails-second-part":
        assert report.cases_run > 6**2
        assert all(len(v.inputs) == 3 for v in report.violations)

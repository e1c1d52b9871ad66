"""generator_closure against the closure that tests every target after
each whole round (tests/closure_reference.py): result fields in order, or
the raised error's type and message."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translie import checks
from translie.algebras import a_omega_delta, afk, functional, omega_form
from translie.checks import ClosureResult, generator_closure, window, window_symbols
from translie.elements import Element, L, M
from translie.errors import BudgetExceededError
from translie.linalg import LeadSpan
from translie.scalars import Scalar

from closure_reference import generator_closure_full_rounds
from families import Counting
from test_checks import BASIS_DEPENDENT_CASES, CLOSURE_GENS, STANDARD_GENS, _element

BRACKETS = {
    "a-omega-delta": a_omega_delta(),
    "omega-form": omega_form(),
    "afk-real": afk(1, functional({0: 2, 1: -3})),
    "afk-half": afk(1, functional({0: Scalar.parse("1/2")})),
    "afk-gauss": afk(1, functional({0: Scalar.parse("1+i"), 1: 2})),
    "afk-gauss-k2": afk(2, functional({-1: Scalar.parse("1+i")})),
}
GENS = {
    **CLOSURE_GENS,
    "l-only": [Element.basis(L(i)) for i in (-1, 0, 1)],
    "single": [Element.basis(L(0))],
    "mixed": [
        Element({L(0): Scalar(1), M(0): Scalar(-1)}), Element.basis(M(1)), Element.basis(L(-1))
    ],
}


def _outcome(fn, *args, **kwargs):
    """The result, or the raised error's type and message."""
    try:
        return fn(*args, **kwargs)
    except (BudgetExceededError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_matches_reference(bdef, gens, w, **kwargs):
    got = _outcome(generator_closure, bdef, gens, w, **kwargs)
    want = _outcome(generator_closure_full_rounds, bdef, gens, w, **kwargs)
    assert got == want
    return got


@pytest.mark.parametrize("gens", list(GENS))
@pytest.mark.parametrize("bracket", list(BRACKETS))
def test_closure_matches_the_full_round_reference(bracket, gens):
    for w in (window(-3, 3), window(-6, 6)):
        for max_rounds in (1, 2, 16):
            _assert_matches_reference(BRACKETS[bracket], GENS[gens], w, max_rounds=max_rounds)


@pytest.mark.parametrize("bracket", ["a-omega-delta", "omega-form"])
def test_closure_matches_the_reference_at_the_bench_width(bracket):
    result = _assert_matches_reference(BRACKETS[bracket], STANDARD_GENS, window(-16, 16))
    assert result == ClosureResult(True, 4, [])


def test_the_oracle_cases_cover_every_outcome():
    """Spanned at round 0 and later, unspanned, and both errors."""
    outcomes = {
        "spanned-0": (GENS["standard"], (-1, 1), 16),
        "spanned": (GENS["standard"], (-6, 6), 16),
        "unspanned": (GENS["l-only"], (-3, 3), 16),
        "still growing": (GENS["standard"], (-6, 6), 1),
    }
    results = {
        name: _assert_matches_reference(a_omega_delta(), gens, window(*w), max_rounds=rounds)
        for name, (gens, w, rounds) in outcomes.items()
    }
    assert results["spanned-0"] == ClosureResult(True, 0, [])
    assert results["spanned"].spanned and results["spanned"].rounds_used == 3
    assert not results["unspanned"].spanned and results["unspanned"].missing
    assert results["still growing"] == (
        BudgetExceededError, "generator closure still growing after 1 rounds"
    )


@pytest.mark.parametrize("case, expected", BASIS_DEPENDENT_CASES)
def test_closure_matches_the_reference_on_narrow_margins(case, expected):
    bdef, gens, (lo, hi), max_rounds, margin = case
    elements = [_element(g) for g in gens]
    for rounds in sorted({1, 2, max_rounds}):
        _assert_matches_reference(
            bdef, elements, window(lo, hi), max_rounds=rounds, margin=margin
        )


SYMBOLS = st.builds(lambda fam, i: fam(i), st.sampled_from([L, M]), st.integers(-3, 3))
COEFFS = st.sampled_from(["1", "-2", "1/2", "1+i", "-3i"])


@settings(max_examples=60, deadline=None)
@given(
    bracket=st.sampled_from(list(BRACKETS)),
    gens=st.lists(
        st.dictionaries(SYMBOLS, COEFFS, min_size=1, max_size=3), min_size=1, max_size=5
    ),
    lo=st.integers(-4, 0),
    width=st.integers(0, 4),
    max_rounds=st.integers(1, 4),
    margin=st.one_of(st.none(), st.integers(0, 2)),
)
def test_closure_matches_the_reference_on_drawn_generators(
    bracket, gens, lo, width, max_rounds, margin
):
    elements = [Element({s: Scalar.parse(c) for s, c in g.items()}) for g in gens]
    _assert_matches_reference(
        BRACKETS[bracket], elements, window(lo, lo + width), max_rounds=max_rounds, margin=margin
    )


def test_closure_stops_at_the_insert_that_spans_the_window():
    """On a-omega-delta [-16,16], the benchmark's width, the span covers
    every target after 576 of round 4's 29,316 triples: the full-round
    closure makes 30,856 bracket evaluations."""
    counting = Counting(a_omega_delta())
    assert generator_closure(counting, STANDARD_GENS, window(-16, 16)) == (True, 4, [])
    assert counting.calls < 3_000


class CountingSpan(LeadSpan):
    """A LeadSpan counting the reductions made outside insert (the target
    tests) and the inserts that grow it."""

    def __init__(self):
        super().__init__()
        self.target_tests = self.grows = 0
        self._inserting = False

    def reduce(self, row):
        if not self._inserting:
            self.target_tests += 1
        return super().reduce(row)

    def insert(self, row):
        self._inserting = True
        try:
            grew = super().insert(row)
        finally:
            self._inserting = False
        self.grows += grew
        return grew


@pytest.mark.parametrize(
    "bracket, gens, w",
    [
        ("a-omega-delta", "standard", (-16, 16)),
        ("omega-form", "standard", (-10, 10)),
        ("afk-real", "standard", (-10, 10)),
        ("a-omega-delta", "sparse-gaussian", (-8, 8)),
    ],
)
def test_closure_tests_targets_front_first(monkeypatch, bracket, gens, w):
    """Each round tests each target at most twice (once as the front, once
    in the closing filter) plus once per grow that leaves the front
    missing: O(grows + targets) reductions, not grows x targets."""
    spans = []

    def counting_span():
        spans.append(CountingSpan())
        return spans[-1]

    monkeypatch.setattr(checks, "LeadSpan", counting_span)
    result = generator_closure(BRACKETS[bracket], GENS[gens], window(*w))
    span, = spans
    targets = len(window_symbols(window(*w)))
    bound = span.grows + 2 * targets * (result.rounds_used + 1)
    assert span.target_tests <= bound < span.grows * targets


def test_zero_rounds_names_the_real_cause():
    assert generator_closure(a_omega_delta(), STANDARD_GENS, window(-1, 1), max_rounds=0) == (
        True, 0, []
    )
    with pytest.raises(BudgetExceededError) as exc:
        generator_closure(a_omega_delta(), STANDARD_GENS, window(-3, 3), max_rounds=0)
    assert str(exc.value) == (
        "the generators alone do not span the window [-3,3], and max_rounds is 0"
    )

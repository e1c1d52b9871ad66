"""Randomized law runs: the symbol sampler against the randint formula, the
reports against tests/law_reference.py's memoized driver, and the kernels
called without a memo."""

import random

import pytest

from translie import checks
from translie.algebras import a_omega_delta, afk, functional
from translie.checks import (
    FUNDAMENTAL_IDENTITY,
    TRANSPOSED_LEIBNIZ,
    Law,
    LawSpec,
    _random_symbol,
    run_law,
    window,
)
from translie.scalars import Scalar
from translie.tp import build_example_family, tp_product

from families import Counting
from law_reference import random_symbol_randint, run_law_sampled
from test_checks import CorruptedLLM


@pytest.mark.parametrize("seed", [0, 1, 11, 2**40 + 3, -7])
def test_random_symbol_draws_what_randint_draws(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert [_random_symbol(ours) for _ in range(10_000)] == [
        random_symbol_randint(theirs) for _ in range(10_000)
    ]
    assert ours.getstate() == theirs.getstate()


def _f(values):
    return functional({i: Scalar.parse(v) for i, v in values.items()})


FUNCTIONALS = {
    "real": _f({0: "3"}),
    "rational": _f({0: "1/2", 1: "-2/3"}),
    "gaussian": _f({0: "1+i", 1: "2"}),
}


def _family(f):
    params = build_example_family(f, {0: 5}, {1: 1}, 1)
    return {"bracket": afk(1, f), "product": tp_product(params)}


CASES = {
    **{f"fundamental-identity {name}": (FUNDAMENTAL_IDENTITY, {"bracket": afk(1, f)})
       for name, f in FUNCTIONALS.items()},
    **{f"transposed-leibniz {name}": (TRANSPOSED_LEIBNIZ, _family(f))
       for name, f in FUNCTIONALS.items()},
    "fundamental-identity a-omega-delta": (FUNDAMENTAL_IDENTITY, {"bracket": a_omega_delta()}),
    "fundamental-identity corrupted": (FUNDAMENTAL_IDENTITY, {"bracket": CorruptedLLM()}),
}


@pytest.mark.parametrize("stop_at_first", [False, True])
@pytest.mark.parametrize("seed", [3, 901])
@pytest.mark.parametrize("case", list(CASES))
def test_randomized_reports_equal_the_reference(case, seed, stop_at_first):
    spec, defs = CASES[case]
    got = run_law(spec, defs, window(0, 0), samples=300, seed=seed, stop_at_first=stop_at_first)
    assert got == run_law_sampled(spec, defs, 300, seed, stop_at_first)
    assert got.mode == "randomized" and got.seed == seed


def test_the_reference_cases_include_violations():
    spec, defs = CASES["fundamental-identity corrupted"]
    assert run_law(spec, defs, window(0, 0), samples=300, seed=3).violations


def _twice(k, x, y, z):
    """Both sides call the bracket on the same triple."""
    return ({s: c for c, s in k.bracket(x, y, z)} for _ in range(2))


TWICE = LawSpec("twice", "[x,y,z] = [x,y,z]", ((Law(_twice, 3),),))


def test_a_randomized_run_calls_the_kernels_without_a_memo(monkeypatch):
    counting = Counting(a_omega_delta())
    report = run_law(TWICE, {"bracket": counting}, window(0, 0), samples=500, seed=5)
    assert report.passed and report.cases_run == 500
    assert counting.calls == 1000

    def no_memo(k):
        raise AssertionError("a randomized run memoized its kernels")

    monkeypatch.setattr(checks, "_memoized", no_memo)
    assert run_law(FUNDAMENTAL_IDENTITY, {"bracket": a_omega_delta()}, window(0, 0),
                   samples=50, seed=5).passed


def test_a_randomized_run_does_not_list_its_window(monkeypatch):
    """`w` is not read by a randomized run, so its size costs nothing."""

    def no_listing(w):
        raise AssertionError("a randomized run listed its window")

    monkeypatch.setattr(checks, "window_symbols", no_listing)
    report = run_law(FUNDAMENTAL_IDENTITY, {"bracket": a_omega_delta()},
                     window(-10**12, 10**12), samples=20, seed=5)
    assert report.passed and report.cases_run == 20


def test_an_exhaustive_run_memoizes_its_kernels():
    counting = Counting(a_omega_delta())
    w = window(-1, 1)
    report = run_law(TWICE, {"bracket": counting}, w)
    assert report.cases_run == 6**3
    assert counting.calls == 6**3

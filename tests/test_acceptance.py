"""Acceptance suite.

One test per criterion, each at its stated scale with exact zero-tolerance
comparisons, printing a single pass/fail line (run pytest with -s to see
them).  The final test re-runs a battery covering every CLI command twice
and byte-compares the serialized reports.
"""

import hashlib
import json
import random
import time

from translie.algebras import (
    a_omega_delta,
    afk,
    family_swap,
    functional,
    index_scaling,
    scaled_l_shift,
    uniform_shift,
)
from translie.checks import (
    DEFAULT_RANDOM_WINDOW,
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
from translie.cli import parse_config, run
from translie.elements import Element, L, M
from translie.scalars import Scalar
from translie.linalg import nullspace
from translie.solver import (
    Ansatz,
    assemble_system,
    solve_and_classify,
    tp_triviality_system,
)
from translie.tp import (
    POISSON_AND_TRANSPOSED,
    TRANSPOSED_ONLY,
    build_example_family,
    classify_poisson,
    poisson_violation_witness,
    support_closure_window,
    tp_product,
    validate_params,
)

from families import (
    full_window_family_assignment,
    left_multiplication_operator,
    random_family_params,
)
from spaces import assignment_space

SEED = 20240811
SUITE_START = time.monotonic()

AFK_COMBOS = (
    (0, {0: 1}),
    (2, {0: 1}),
    (-1, {0: 1, 1: 2}),
)


def _line(num, name, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"criterion {num} failed: {name}"


def _axiom_suite(bdef):
    assert DEFAULT_RANDOM_WINDOW == window(-20, 20)  # where randomized runs draw indices
    skew = check_skew_symmetry(bdef, window(-4, 4))
    fi = check_fundamental_identity(bdef, window(-2, 2))
    fi_rand = check_fundamental_identity(
        bdef, window(-2, 2), samples=10_000, seed=SEED
    )
    assert skew.cases_run == 18**3
    assert fi.cases_run == 10**5
    assert fi_rand.cases_run == 10_000
    return skew.passed and fi.passed and fi_rand.passed


def test_c01_axioms_shifted_bracket():
    start = time.monotonic()
    ok = _axiom_suite(a_omega_delta())
    elapsed = time.monotonic() - start
    _line(1, f"3-bracket axioms, shifted algebra ({elapsed:.1f}s)", ok and elapsed < 60)


def test_c02_axioms_functional_bracket():
    ok = True
    for k, fmap in AFK_COMBOS:
        ok = ok and _axiom_suite(afk(k, functional(fmap)))
    _line(2, "3-bracket axioms, functional algebra (3 parameter sets)", ok)


def test_c03_relabel_isomorphism():
    report = check_relabel_intertwining(window(-5, 5))
    assert report.cases_run == 22**3
    _line(3, "M-negation relabeling intertwines the two brackets", report.passed)


def test_c04_operator_laws():
    w = window(-5, 5)
    ok = check_derivation(index_scaling(), w).passed
    for k in range(-3, 4):
        ok = ok and check_derivation(scaled_l_shift(k), w).passed
    ok = ok and check_involutive_morphism(family_swap(), w).passed
    _line(4, "product rule for the scaling/shift operators; involution laws", ok)


def test_c05_uniform_shifts_are_one_third_derivations():
    bdef = a_omega_delta()
    ok = True
    for k in range(-4, 5):
        report = check_one_third_derivation(bdef, uniform_shift(k), window(-8, 8))
        assert report.cases_run == 34**3
        ok = ok and report.passed
    _line(5, "uniform shifts k in [-4,4] satisfy the derivation law on [-8,8]", ok)


def test_c06_graded_solver_classification():
    ok = True
    for g in range(-3, 4):
        verdict = solve_and_classify(
            a_omega_delta(), window(-10, 10), window(-10, 10), window(-5, 5), g
        )
        ok = ok and verdict.matches and verdict.core_dimension == 1
    _line(6, "graded solver: core dimension 1 with the shift pattern, degrees [-3,3]", ok)


def test_c07_induced_product_triviality():
    space = nullspace(tp_triviality_system(window(-3, 3), window(-3, 3)))
    _line(7, "induced-product solver returns only the zero product", space.dimension == 0)


def test_c08_full_window_classification_and_family():
    f = functional({0: 1, 1: 2})
    bdef = afk(1, f)
    ansatz = Ansatz(window(-4, 4), image=window(-4, 4))
    verdict = solve_and_classify(bdef, window(-4, 4), window(-4, 4), window(-2, 2))
    ok = verdict.matches

    system = assemble_system(bdef, ansatz, window(-4, 4))
    rng = random.Random(SEED)
    for _ in range(5):
        h, c, d_rows = random_family_params(f, ansatz.domain, ansatz.image, rng)
        asg = full_window_family_assignment(ansatz, f, h, c, d_rows)
        ok = ok and assignment_space(system, asg).verify_against(system)
    _line(8, "full-window solver matches the closed-form family; 5 members solve all rows", ok)


def test_c09_product_family_instance():
    f = functional({0: 1})
    params = build_example_family(f, {0: 5}, {1: 1}, 2)
    ok = params.alpha == Scalar(5)
    ok = ok and validate_params(params).is_valid
    prod = tp_product(params)
    bdef = afk(2, f)
    closure = support_closure_window(params)

    from translie.checks import check_commutative_associative

    ok = ok and check_commutative_associative(prod, closure).passed
    ok = ok and check_tp_compatibility(bdef, prod, closure).passed
    ok = ok and check_tp_compatibility(
        bdef, prod, closure, samples=1_000, seed=SEED
    ).passed
    ok = ok and classify_poisson(params) == TRANSPOSED_ONLY
    witness = poisson_violation_witness(bdef, prod, closure)
    ok = ok and witness is not None and not witness.residual.is_zero()

    variant = build_example_family(f, {1: 5}, {}, 2)
    ok = ok and not variant.alpha and bool(variant.d)
    ok = ok and classify_poisson(variant) == POISSON_AND_TRANSPOSED
    variant_closure = support_closure_window(variant)
    ok = ok and check_poisson_compatibility(bdef, tp_product(variant), variant_closure).passed
    _line(9, "worked product family: valid, compatible, and on the right dichotomy side", ok)


def test_c10_left_multiplications_are_one_third_derivations():
    f = functional({0: 1})
    params = build_example_family(f, {0: 5}, {1: 1}, 2)
    prod = tp_product(params)
    bdef = afk(2, f)
    ok = True
    for sym in (L(0), M(0), M(2)):
        op = left_multiplication_operator(prod, Element.basis(sym), window(-20, 20))
        report = check_one_third_derivation(bdef, op, window(-6, 6))
        assert report.cases_run == 26**3
        ok = ok and report.passed
    _line(10, "left multiplications by L_0, M_0, M_2 satisfy the derivation law", ok)


def test_c11_generator_closure():
    gens = [Element.basis(s) for s in (L(-1), L(0), L(1), M(-1), M(0), M(1))]
    result = generator_closure(a_omega_delta(), gens, window(-10, 10), max_rounds=12)
    ok = result.spanned and result.rounds_used <= 12

    l_only = [Element.basis(s) for s in (L(-1), L(0), L(1))]
    dropped = generator_closure(a_omega_delta(), l_only, window(-10, 10), max_rounds=12)
    missing = set(dropped.missing)
    ok = ok and not dropped.spanned
    ok = ok and all(M(i) in missing for i in range(-10, 11))
    _line(11, "six standard generators span [-10,10]; dropping the M side fails", ok)


BATTERY = (
    (
        "check-laws",
        {
            "algebra": {"kind": "a-omega-delta"},
            "windows": {"domain": [-3, 3], "equation": [-2, 2]},
            "mode": "randomized",
            "budget": 2000,
            "seed": 11,
        },
    ),
    (
        "check-laws",
        {
            "algebra": {"kind": "a-f-k", "k": 2, "f": {"0": "1"}},
            "windows": {"domain": [-3, 3], "equation": [-2, 2]},
            "mode": "randomized",
            "budget": 2000,
            "seed": 11,
        },
    ),
    (
        "solve-derivations",
        {
            "algebra": {"kind": "a-omega-delta"},
            "windows": {"domain": [-6, 6], "equation": [-6, 6], "core": [-3, 3]},
            "degree": 1,
        },
    ),
    (
        "solve-derivations",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1", "1": "2"}},
            "windows": {"domain": [-3, 3], "equation": [-3, 3], "core": [-2, 2], "image": [-3, 3]},
        },
    ),
    ("tp-triviality", {"windows": {"index": [-3, 3], "basis": [-3, 3]}}),
    (
        "build-tp",
        {
            "algebra": {"kind": "a-f-k", "k": 2, "f": {"0": "1"}},
            "tp_params": {"example_family": {"d_seq": {"0": "5"}, "c": {"1": "1"}}},
        },
    ),
    (
        "verify-tp",
        {
            "algebra": {"kind": "a-f-k", "k": 2, "f": {"0": "1"}},
            "tp_params": {"example_family": {"d_seq": {"0": "5"}, "c": {"1": "1"}}},
            "mode": "randomized",
            "budget": 500,
            "seed": 5,
        },
    ),
    (
        "generators",
        {
            "algebra": {"kind": "a-omega-delta"},
            "windows": {"domain": [-6, 6]},
        },
    ),
    # a rational f has no integer form, so these run on the Scalar kernels
    (
        "check-laws",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1/2", "1": "-2/3"}},
            "windows": {"domain": [-3, 3], "equation": [-2, 2]},
            "mode": "randomized",
            "budget": 2000,
            "seed": 11,
        },
    ),
    (
        "solve-derivations",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1/2", "1": "-2/3"}},
            "windows": {"domain": [-3, 3], "equation": [-3, 3], "core": [-2, 2], "image": [-3, 3]},
        },
    ),
    # the exhaustive law paths on Gaussian-integer kernels with a 1+i f: a
    # Poisson-Leibniz pass on the Poisson side, and its first witness on the
    # transposed-only side
    (
        "verify-tp",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1+i"}},
            "tp_params": {"example_family": {"d_seq": {"1": "3"}}},
        },
    ),
    (
        "verify-tp",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1+i"}},
            "tp_params": {"example_family": {"d_seq": {"0": "3"}, "c": {"1": "2"}}},
        },
    ),
    (
        "check-laws",
        {
            "algebra": {"kind": "a-omega-delta-omega-form"},
            "windows": {"domain": [-3, 3], "equation": [-2, 2]},
        },
    ),
    # a full-window solve on Gaussian-integer rows (f = 1+i), and one on rows
    # scaled to Gaussian integers from a Gaussian-rational f (f = 1/2+i)
    (
        "solve-derivations",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1+i", "1": "2"}},
            "windows": {"domain": [-3, 3], "equation": [-3, 3], "core": [-2, 2], "image": [-3, 3]},
        },
    ),
    (
        "solve-derivations",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1/2+i", "1": "-2/3"}},
            "windows": {"domain": [-3, 3], "equation": [-3, 3], "core": [-2, 2], "image": [-3, 3]},
        },
    ),
    # a Gaussian-rational f has no integer form: an exhaustive Poisson-Leibniz
    # pass on the Scalar kernels
    (
        "verify-tp",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1/2+i"}},
            "tp_params": {"example_family": {"d_seq": {"1": "3"}}},
        },
    ),
    # a mixed f, f(M_0) = 1/2 outside Z[i] and f(M_1) = 2 in it: one kernel
    # gives ints and Scalars, and one system rows of both
    (
        "check-laws",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1/2", "1": "2"}},
            "windows": {"domain": [-3, 3], "equation": [-2, 2]},
            "mode": "randomized",
            "budget": 2000,
            "seed": 11,
        },
    ),
    (
        "solve-derivations",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1/2", "1": "2"}},
            "windows": {"domain": [-4, 4], "equation": [-4, 4], "core": [-2, 2], "image": [-4, 4]},
        },
    ),
)

# sha256 of each BATTERY report, in BATTERY order; a change to any report
# byte must be deliberate and come with new digests and a reason.
BATTERY_SHA256 = (
    "f985925869051ce1bdc510e9261ee80da0bdbf224770798514956449f670e6c9",
    "863d04f016cbad5a3487daea48bd15139f630e4c9d4bac2643d1dd3c64c80be3",
    "8517630492bacd3c2a65541962b9e29b669ef2898b22c26c077519db67667be0",
    "264b6a9f02349615264455995a0d1dcab254d717c49f04c3ddf6fa3103279636",
    "ce74deb8a4a50db53b0056ae0242f333a5f47bccc874a5054ae8202b1011fa2f",
    "01cee6d327d6c5d55e58410dd03e366eb716ca5b2fa29c2ea499f0eaf36e6a87",
    "6c3e7829c2f268a7bb2050cc2c2eb534f433ef7a70dbf961408e6df82dc6b7bc",
    "43b603d323305ad0bdeb4840fff7452a1da3e89e754fc7ba8262629fa1623343",
    "0447db9694f79644f88fb7e23a5190ed6a533d2a62072ec9d472200240b1048b",
    "65c3a30bcf850a3e478f4d945e8c804fff6cc0d550e74bec2c638c8068a818a2",
    "267b94473089a76a6ca1ee2ba851259b63c2b3d020d28b467c42d7508a879748",
    "3499619b48a0c516cee5ee8d006bd63afa6a5aa232d820976a36b8078b23dbf3",
    "13b84a719394dfd766785a4c8b18dc1aa71a0c79d4f4c3e9cfe46a05d53c60df",
    "ee1c448e07782506f7e6858722091ddf857f1bb2e966e3cab00e4cdae9313f54",
    "20b7c6234cca5b137b107cada7de63f43ed9966ed840f00b626b0373bf9f2b6c",
    "3935df596c98d78b8f853cc94afa11626b77deda708d7b4ec46c0d7f7783797c",
    "a19ae3f9e8c8ea7ea87e5598c3defc6af04f4ae62c2f0cc6799b7db2681bbe3e",
    "5262a631221464548c68e0688fb9ff5dc684da318c055eb448203da716b366db",
)


def test_battery_reports_match_recorded_digests():
    digests = tuple(
        hashlib.sha256(
            run(parse_config(json.dumps({"command": command, **body}))).to_json().encode()
        ).hexdigest()
        for command, body in BATTERY
    )
    assert digests == BATTERY_SHA256


def test_c12_determinism_and_runtime():
    ok = True
    for command, body in BATTERY:
        text = json.dumps({"command": command, **body})
        first = run(parse_config(text)).to_json()
        second = run(parse_config(text)).to_json()
        ok = ok and first == second
        ok = ok and json.loads(first)["verdict"] == "pass"
    elapsed = time.monotonic() - SUITE_START
    ok = ok and elapsed < 300
    _line(12, f"byte-identical reports for the full battery; suite {elapsed:.0f}s < 300s", ok)

import itertools
import random

import pytest

from translie.algebras import (
    a_omega_delta,
    afk,
    bracket_eval,
    functional,
    omega_form,
    uniform_shift,
)
from translie.checks import check_one_third_derivation, window
from translie.elements import BasisSymbol, Element, L, M
from translie.errors import BudgetExceededError, EmptySystemError
from translie.linalg import ConstraintSystem, nullspace, unknown
from translie.scalars import ONE, Scalar
from translie import solver
from translie.solver import (
    Ansatz,
    _PATTERNS,
    _form_add,
    ansatz_for,
    assemble_system,
    solve_and_classify,
    tp_triviality_system,
)

from families import (
    afk_family_operator,
    full_window_family_assignment,
    graded_family_assignment,
    random_family_params,
    solution_operator,
)
from spaces import assignment_space, dense


def test_assembled_row_matches_known_substitution():
    """Degree 1, triple (-1,1,0): 6a_0 - a_{-1} - 3a_1 - 2d_0 = 0."""
    sys_ = assemble_system(a_omega_delta(), Ansatz(window(-1, 1), 1), window(-1, 1))
    rows = {
        prov: {sys_.unknowns[c]: v for c, v in row.items()}
        for row, prov in zip(sys_.rows, sys_.provenance)
    }
    row = rows[("LLM", -1, 1, 0, L(1))]
    assert row == {
        unknown("a", 0): Scalar(6),
        unknown("a", -1): Scalar(-1),
        unknown("a", 1): Scalar(-3),
        unknown("d", 0): Scalar(-2),
    }


def test_afk_assembly_forces_b_block_to_zero():
    f = functional({0: 1})
    sys_ = assemble_system(
        afk(0, f), Ansatz(window(-3, 3), image=window(-3, 3)), window(-3, 3)
    )
    singleton_b = [
        row
        for row in sys_.rows
        if len(row) == 1 and sys_.unknowns[next(iter(row))].name == "b"
    ]
    assert singleton_b, "expected direct rows pinning the b block"
    space = nullspace(sys_)
    b_cols = [i for i, uid in enumerate(sys_.unknowns) if uid.name == "b"]
    for idx in range(space.dimension):
        vec = dense(space, idx)
        assert all(not vec[c] for c in b_cols)


def test_graded_solve_small_window():
    verdict = solve_and_classify(
        a_omega_delta(), window(-4, 4), window(-4, 4), window(-2, 2)
    )
    assert verdict.matches
    assert verdict.core_dimension == 1
    vec = verdict.core_space.vector_as_dict(0)
    for r in range(-2, 3):
        assert vec[unknown("a", r)] == ONE
        assert vec[unknown("d", r)] == ONE
        assert unknown("b", r) not in vec
        assert unknown("c", r) not in vec


def test_graded_solve_degree_two_matches_shift_pattern():
    verdict = solve_and_classify(
        a_omega_delta(), window(-6, 6), window(-6, 6), window(-3, 3), degree=2
    )
    assert verdict.matches and verdict.core_dimension == 1


def test_core_must_respect_boundary_margin():
    with pytest.raises(ValueError):
        solve_and_classify(
            a_omega_delta(), window(-4, 4), window(-4, 4), window(-4, 4)
        )


def test_empty_system():
    with pytest.raises(EmptySystemError):
        assemble_system(a_omega_delta(), Ansatz(window(5, 6)), window(-1, 1))


def test_single_index_equation_window_gives_no_equation():
    """Every triple over one index repeats a symbol, so none is an equation."""
    with pytest.raises(EmptySystemError, match="no triple of distinct symbols"):
        assemble_system(a_omega_delta(), Ansatz(window(-2, 2)), window(0, 0))


def _oracle_system(bdef, ansatz, eq_window):
    """The law on every ordered triple of all eight family orders, evaluated
    on Elements through bracket_eval, one Element per unknown."""
    system = ConstraintSystem(ansatz.unknown_ids())
    images = ansatz.images()
    symbols = [BasisSymbol(fam, i) for fam in "LM" for i in eq_window.indices()]
    for x, y, z in itertools.product(symbols, repeat=3):
        if any(sym not in images for sym in (x, y, z)):
            continue
        ex, ey, ez = Element.basis(x), Element.basis(y), Element.basis(z)
        bracket = bracket_eval(bdef, ex, ey, ez)
        if any(sym not in images for sym in bracket.support()):
            continue
        defect = {}

        def add(uid, element):
            defect[uid] = defect.get(uid, Element()) + element

        for out, coeff in bracket.terms.items():
            for uid, img in images[out]:
                add(uid, Element({img: Scalar(3) * coeff}))
        for uid, img in images[x]:
            add(uid, -bracket_eval(bdef, Element.basis(img), ey, ez))
        for uid, img in images[y]:
            add(uid, -bracket_eval(bdef, ex, Element.basis(img), ez))
        for uid, img in images[z]:
            add(uid, -bracket_eval(bdef, ex, ey, Element.basis(img)))
        for out in {sym for element in defect.values() for sym in element.terms}:
            system.add_row({uid: element.coefficient(out) for uid, element in defect.items()})
    return system


ORACLE_CASES = {
    **{
        f"a-omega-delta-degree{g}": (a_omega_delta(), Ansatz(window(-3, 3), g), window(-3, 3))
        for g in range(-2, 3)
    },
    "omega-form": (omega_form(), Ansatz(window(-3, 3), 1), window(-3, 3)),
    "a-f-k-fractional": (
        afk(1, functional({0: Scalar.parse("1/2"), 1: Scalar.parse("-2/3")})),
        Ansatz(window(-2, 2), image=window(-2, 2)),
        window(-2, 2),
    ),
    "a-f-k-gaussian": (
        afk(1, functional({0: Scalar.parse("1+i"), 1: 2})),
        Ansatz(window(-2, 2), image=window(-2, 2)),
        window(-2, 2),
    ),
    # an image window wider than the domain, and an equation window wider
    # than the domain, whose triples with a symbol outside it are skipped
    **{
        f"a-f-k-{name}-{shape}": (
            afk(1, functional(f)),
            Ansatz(window(-2, 2), image=window(*image)),
            window(*equation),
        )
        for name, f in (("real", {0: 1, 1: -2}), ("gaussian", {0: Scalar.parse("1+i"), 1: 2}))
        for shape, image, equation in (
            ("wide-image", (-4, 4), (-2, 2)),
            ("wide-equation", (-2, 2), (-3, 3)),
        )
    },
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_canonical_triples_match_every_ordered_triple(case):
    """Assembling canonical triples only loses no constraint."""
    bdef, ansatz, eq_window = ORACLE_CASES[case]
    canonical = assemble_system(bdef, ansatz, eq_window)
    oracle = _oracle_system(bdef, ansatz, eq_window)
    assert canonical.unknowns == oracle.unknowns
    assert set(canonical.distinct) == set(oracle.distinct)
    assert nullspace(canonical).basis == nullspace(oracle).basis
    assert len(canonical.rows) < len(oracle.rows)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_provenance_indices_increase_within_a_family(case):
    system = assemble_system(*ORACLE_CASES[case])
    for pattern, *indices, _ in system.provenance:
        for a in (0, 1):
            if pattern[a] == pattern[a + 1]:
                assert indices[a] < indices[a + 1], (pattern, indices)


def _reference_assembly(bdef, ansatz, eq_window):
    """assemble_system with every varied-slot bracket computed again for
    each triple: the loop the full-window table replaced, kept as the
    reference whose rows, provenance and distinct forms it must reproduce in
    order."""
    system = ConstraintSystem(ansatz.unknown_ids())
    images = ansatz.images()
    bracket = bdef.terms
    lo, hi = eq_window.lo, eq_window.hi + 1
    for pattern_name, (fx, fy, fz) in _PATTERNS:
        for r in range(lo, hi):
            x = BasisSymbol(fx, r)
            img_x = images.get(x)
            if img_x is None:
                continue
            for s in range(r + 1 if fy == fx else lo, hi):
                y = BasisSymbol(fy, s)
                img_y = images.get(y)
                if img_y is None:
                    continue
                for t in range(s + 1 if fz == fy else lo, hi):
                    z = BasisSymbol(fz, t)
                    img_z = images.get(z)
                    if img_z is None:
                        continue
                    lhs = [(3 * coeff, images.get(out)) for coeff, out in bracket(x, y, z)]
                    if any(img_out is None for _, img_out in lhs):
                        continue
                    form = {}
                    for coeff, img_out in lhs:
                        for uid, img in img_out:
                            _form_add(form, img, uid, coeff)
                    for uid, img in img_x:
                        for c2, out2 in bracket(img, y, z):
                            _form_add(form, out2, uid, -c2)
                    for uid, img in img_y:
                        for c2, out2 in bracket(x, img, z):
                            _form_add(form, out2, uid, -c2)
                    for uid, img in img_z:
                        for c2, out2 in bracket(x, y, img):
                            _form_add(form, out2, uid, -c2)
                    for out_sym in sorted(form):
                        system.add_row(form[out_sym], (pattern_name, r, s, t, out_sym))
    return system


_REFERENCE_CASES = {
    **ORACLE_CASES,
    "a-f-k-real-[-4,4]": (
        afk(1, functional({0: 1, 1: 2})),
        Ansatz(window(-4, 4), image=window(-4, 4)),
        window(-4, 4),
    ),
    "a-f-k-gaussian-image-[-8,8]": (
        afk(-1, functional({0: Scalar.parse("1+i"), 1: 2})),
        Ansatz(window(-3, 3), image=window(-8, 8)),
        window(-3, 3),
    ),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_assembly_reproduces_the_reference_loop_in_order(case):
    """Same rows (each row's columns in the same order), provenance and
    distinct forms, in the same order, as the per-triple loop."""
    table = assemble_system(*_REFERENCE_CASES[case])
    reference = _reference_assembly(*_REFERENCE_CASES[case])
    assert table.unknowns == reference.unknowns
    assert [list(row.items()) for row in table.rows] == [
        list(row.items()) for row in reference.rows
    ]
    assert table.provenance == reference.provenance
    assert list(table.distinct.items()) == list(reference.distinct.items())


def test_only_full_window_ansatze_share_images():
    """The SlotTable's precondition: in a full-window image table every
    symbol of a family has the same image symbols in the same order; graded
    images move with the index."""
    full = Ansatz(window(-2, 2), image=window(-3, 3)).images()
    graded = Ansatz(window(-2, 2), 1).images()
    for fam in "LM":
        lists = {tuple(img for _, img in full[BasisSymbol(fam, r)]) for r in range(-2, 3)}
        assert len(lists) == 1
        assert lists == {tuple(L(i) for i in range(-3, 4)) + tuple(M(j) for j in range(-3, 4))}
        for r in range(-2, 3):
            assert [img for _, img in graded[BasisSymbol(fam, r)]] == [L(r + 1), M(r + 1)]


@pytest.mark.parametrize(
    "ansatz",
    [Ansatz(window(-3, 4), 2), Ansatz(window(0, 0)), Ansatz(window(-2, 2), image=window(-3, 1))],
    ids=["graded", "graded-one-index", "full-window"],
)
def test_image_table_covers_the_domain_with_every_unknown_once(ansatz):
    """The table's keys are the domain's symbols, and its unknowns,
    flattened, are unknown_ids(), each once."""
    table = ansatz.images()
    domain = ansatz.domain.indices()
    assert set(table) == {BasisSymbol(fam, r) for fam in "LM" for r in domain}
    flat = [uid for pairs in table.values() for uid, _ in pairs]
    assert len(flat) == len(set(flat)) == ansatz.num_unknowns
    assert set(flat) == set(ansatz.unknown_ids())


def test_assembly_over_budget_raises_before_enumerating():
    """2*C(n,2)*n + 2*C(n,3) triples for n equation indices: 1,949,476 at
    n = 114 is inside the budget, 2,001,460 at n = 115 is not."""
    ansatz = Ansatz(window(-3, 3))
    with pytest.raises(EmptySystemError):
        assemble_system(a_omega_delta(), ansatz, window(100, 213))
    with pytest.raises(BudgetExceededError) as exc:
        assemble_system(a_omega_delta(), ansatz, window(100, 214))
    assert str(exc.value) == "assembly needs 2001460 equation triples, budget is 2000000"


def test_num_unknowns_counts_the_unknown_ids():
    for ansatz in (
        Ansatz(window(-3, 4), 2),
        Ansatz(window(-2, 2), image=window(-3, 1)),
    ):
        assert ansatz.num_unknowns == len(ansatz.unknown_ids())


def test_assembly_refuses_too_many_unknowns_before_registering(monkeypatch):
    """The triple budget passes on a narrow equation window; the ansatz's
    4*|domain|*|image| unknowns are counted before any unknown or image is
    built."""

    def no_ids(self):
        raise AssertionError("built the unknowns of an ansatz over budget")

    def no_images(self):
        raise AssertionError("built the image table of an ansatz over budget")

    monkeypatch.setattr(solver.Ansatz, "unknown_ids", no_ids)
    monkeypatch.setattr(solver.Ansatz, "images", no_images)
    ansatz = Ansatz(window(-500, 500), image=window(-500, 500))
    with pytest.raises(BudgetExceededError) as exc:
        assemble_system(afk(1, functional({0: 1})), ansatz, window(-1, 1))
    assert str(exc.value) == "ansatz needs 4008004 unknowns, budget is 2000000"


def test_ansatz_for_pairs_each_algebra_with_its_kind():
    assert ansatz_for(a_omega_delta(), window(-2, 2), 3) == Ansatz(window(-2, 2), 3)
    f = functional({0: 1})
    assert ansatz_for(afk(1, f), window(-2, 2)) == Ansatz(window(-2, 2), image=window(-2, 2))
    with pytest.raises(ValueError, match="a-omega-delta-omega-form"):
        ansatz_for(omega_form(), window(-2, 2))


def test_triviality_over_budget_raises():
    """2*|basis|^2*|index| rows."""
    with pytest.raises(BudgetExceededError) as exc:
        tp_triviality_system(window(0, 1), window(0, 999))
    assert str(exc.value) == "tp-triviality system needs 4000000 rows, budget is 2000000"


def test_solver_solution_passes_forward_check():
    """Materialized solutions satisfy the derivation law on inner triples."""
    verdict = solve_and_classify(
        a_omega_delta(), window(-6, 6), window(-6, 6), window(-3, 3), degree=1
    )
    op = solution_operator(
        verdict.core_space, 0, Ansatz(window(-3, 3), 1), window(-3, 3)
    )
    report = check_one_third_derivation(a_omega_delta(), op, window(-1, 1))
    assert report.passed


def test_truncated_shift_satisfies_every_assembled_row():
    ansatz = Ansatz(window(-5, 5), 2)
    sys_ = assemble_system(a_omega_delta(), ansatz, window(-5, 5))
    assert assignment_space(sys_, graded_family_assignment(ansatz)).verify_against(sys_)


def test_forward_check_family_uniform_shifts():
    assert check_one_third_derivation(a_omega_delta(), uniform_shift(0), window(-3, 3)).passed
    assert check_one_third_derivation(a_omega_delta(), uniform_shift(-3), window(-3, 3)).passed


def test_eq_window_monotonicity():
    """More equation triples can only shrink the core-projected space."""
    from translie.linalg import project_solution

    dims = []
    for eq in (window(-4, 4), window(-6, 6), window(-8, 8)):
        ansatz = Ansatz(window(-8, 8))
        sys_ = assemble_system(a_omega_delta(), ansatz, eq)
        space = nullspace(sys_)
        keep = [unknown(n, r) for n in "abcd" for r in window(-2, 2).indices()]
        dims.append(project_solution(space, keep).dimension)
    assert dims[0] >= dims[1] >= dims[2]
    assert dims[2] == 1


# ---------------------------------------------------------------------------
# functional-bracket (full window) classification


def test_full_window_solve_matches_family_shape():
    f = functional({0: 1, 1: 2})
    verdict = solve_and_classify(
        afk(1, f), window(-4, 4), window(-4, 4), window(-2, 2)
    )
    assert verdict.matches
    assert verdict.core_dimension == verdict.expected_core_dimension == 26


def test_family_members_satisfy_assembled_rows():
    f = functional({0: 1, 1: 2})
    ansatz = Ansatz(window(-3, 3), image=window(-3, 3))
    sys_ = assemble_system(afk(1, f), ansatz, window(-3, 3))
    rng = random.Random(5)
    for _ in range(3):
        h, c, d_rows = random_family_params(f, ansatz.domain, ansatz.image, rng)
        asg = full_window_family_assignment(ansatz, f, h, c, d_rows)
        assert assignment_space(sys_, asg).verify_against(sys_)


def test_afk_family_operator_identity_default():
    """h=1 with no explicit rows is the identity on the M block."""
    f = functional({0: 1})
    op = afk_family_operator(f, 1, {}, {}, window(-4, 4))
    from translie.elements import Element

    assert op.apply(Element.basis(L(2))) == Element.basis(L(2))
    assert op.apply(Element.basis(M(-1))) == Element.basis(M(-1))
    assert check_one_third_derivation(afk(0, f), op, window(-1, 1)).passed


def test_afk_family_operator_rejects_bad_rows():
    f = functional({0: 1})
    with pytest.raises(ValueError):
        afk_family_operator(f, 1, {}, {0: {1: Scalar(1)}}, window(-2, 2))


def test_afk_family_operator_passes_check():
    f = functional({0: 1, 1: 2})
    rng = random.Random(11)
    h, c, d_rows = random_family_params(f, window(-6, 6), window(-6, 6), rng)
    op = afk_family_operator(f, h, c, d_rows, window(-6, 6))
    assert check_one_third_derivation(afk(1, f), op, window(-2, 2)).passed


# ---------------------------------------------------------------------------
# induced-product triviality


def test_triviality_solver_returns_zero_dimension():
    assert nullspace(tp_triviality_system(window(-3, 3), window(-3, 3))).dimension == 0


def test_triviality_single_index_pair():
    assert nullspace(tp_triviality_system(window(0, 0), window(0, 0))).dimension == 0


def test_triviality_weakened_system_has_solutions():
    """Without the M-family comparison rows the alpha block is unconstrained,
    which shows that those rows do the work."""
    full = tp_triviality_system(window(-2, 2), window(-2, 2))
    sys_ = ConstraintSystem(full.unknowns)
    for row, prov in zip(full.rows, full.provenance):
        if prov[-1].family == "L":
            sys_.add_row({full.unknowns[col]: v for col, v in row.items()}, prov)
    space = nullspace(sys_)
    assert space.dimension == 25  # the whole unconstrained alpha block
    for idx in range(space.dimension):
        vec = space.vector_as_dict(idx)
        assert all(uid.name == "alpha" for uid in vec)


def test_triviality_dimension_zero_up_to_five():
    for b in range(1, 6):
        assert nullspace(tp_triviality_system(window(-b, b), window(-b, b))).dimension == 0

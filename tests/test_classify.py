"""Classification by defining relations against the coordinate-wise matchers.

The two reference matchers below walk each core vector coordinate by
coordinate, testing the c columns pairwise; they are the classification
the relation systems replace.  Both must give the same verdict on core
spaces doctored away from the expected family in every way the relations
constrain.
"""

import pytest

from translie.algebras import a_omega_delta, afk, functional
from translie.checks import window
from translie.linalg import SolutionSpace, unknown
from translie.scalars import ONE, ZERO, Scalar
from translie.solver import (
    Ansatz,
    ClassificationVerdict,
    _classify,
    _family_relations,
    solve_and_classify,
)

from families import scalar_value
from spaces import dense, rank

# ---------------------------------------------------------------------------
# reference matchers


def _dense(space, idx):
    return dict(zip(space.unknowns, dense(space, idx)))


def _strings(space, idx):
    return {str(uid): str(val) for uid, val in _dense(space, idx).items() if val}


def reference_graded(core_space, core, degree, full_dim):
    expected = (
        f"core dimension 1; basis vector is the uniform shift by {degree}: "
        "a and d constant and equal, b and c zero"
    )
    offending = []
    for idx in range(core_space.dimension):
        vec = _dense(core_space, idx)
        const = vec[unknown("a", core.lo)]
        good = all(
            vec[unknown("a", r)] == const
            and vec[unknown("d", r)] == const
            and not vec[unknown("b", r)]
            and not vec[unknown("c", r)]
            for r in core.indices()
        )
        if not good or not const:
            offending.append(_strings(core_space, idx))
    return ClassificationVerdict(
        matches=core_space.dimension == 1 and not offending,
        expected_description=expected,
        core_dimension=core_space.dimension,
        offending_vectors=offending,
        expected_core_dimension=1,
        full_dimension=full_dim,
        core_space=core_space,
    )


def reference_full_window(core_space, core, f, full_dim):
    expected_dim = 1 + core.size * core.size
    expected = (
        "b block zero; a block h*identity; c columns proportional to the "
        "functional values; weighted d-row sums equal to h times the "
        f"functional value; core dimension {expected_dim}"
    )
    offending = []
    for idx in range(core_space.dimension):
        vec = _dense(core_space, idx)
        h = vec[unknown("a", core.lo, core.lo)]
        good = True
        for r in core.indices():
            for i in core.indices():
                if vec[unknown("a", r, i)] != (h if r == i else ZERO):
                    good = False
                if vec[unknown("b", r, i)]:
                    good = False
        for i in core.indices():
            for r in core.indices():
                for s in core.indices():
                    lhs = vec[unknown("c", r, i)] * scalar_value(f, s)
                    if lhs != vec[unknown("c", s, i)] * scalar_value(f, r):
                        good = False
        for r in core.indices():
            total = ZERO
            for j in f.support:
                total = total + scalar_value(f, j) * vec[unknown("d", r, j)]
            if total != h * scalar_value(f, r):
                good = False
        if not good:
            offending.append(_strings(core_space, idx))
    return ClassificationVerdict(
        matches=core_space.dimension == expected_dim and not offending,
        expected_description=expected,
        core_dimension=core_space.dimension,
        offending_vectors=offending,
        expected_core_dimension=expected_dim,
        full_dimension=full_dim,
        core_space=core_space,
    )


# ---------------------------------------------------------------------------
# family bases, written out by hand, and their doctored variants


def _space(ansatz, vectors):
    uids = ansatz.unknown_ids()
    return SolutionSpace(
        uids, [{j: vec[uid] for j, uid in enumerate(uids) if vec.get(uid)} for vec in vectors]
    )


def graded_family(core):
    return [{uid: ONE for r in core.indices() for uid in (unknown("a", r), unknown("d", r))}]


def full_window_family(core, f):
    """1 + |core|^2 vectors spanning the functional-bracket family."""
    t0 = f.support[0]
    ft0 = scalar_value(f, t0)
    h_vec = {unknown("a", r, r): ONE for r in core.indices()}
    for r in core.indices():
        if scalar_value(f, r):
            h_vec[unknown("d", r, t0)] = scalar_value(f, r) / ft0
    vectors = [h_vec]
    for i in core.indices():
        vectors.append(
            {unknown("c", r, i): scalar_value(f, r) for r in core.indices() if scalar_value(f, r)}
        )
    for r in core.indices():
        for j in core.indices():
            if j != t0:
                vec = {unknown("d", r, j): ONE}
                if scalar_value(f, j):
                    vec[unknown("d", r, t0)] = -scalar_value(f, j) / ft0
                vectors.append(vec)
    return vectors


def _bumped(vec, uid, delta):
    out = dict(vec)
    out[uid] = out.get(uid, ZERO) + delta
    return out


def doctored(family, perturbations, scale):
    """The family itself, one variant per perturbation of one basis vector,
    the family with a scaled copy of a vector added, and the family with its
    last vector dropped."""
    yield "family", family
    for name, idx, uid, delta in perturbations:
        vectors = list(family)
        vectors[idx] = _bumped(vectors[idx], uid, delta)
        yield name, vectors
    yield "scaled copy", family + [{uid: scale * v for uid, v in family[-1].items()}]
    if len(family) > 1:
        yield "dropped", family[:-1]


I = Scalar(0, 1)
FUNCTIONALS = [
    {0: 1},
    {0: 2, 1: -3},
    {-1: Scalar(1, 2), 1: 5},
    {0: Scalar(1, 1), 1: 2},
    {0: I, -1: Scalar(-2, 3), 1: 1},
]


def _core(size):
    lo = -((size - 1) // 2)
    return window(lo, lo + size - 1)


@pytest.mark.parametrize("size", range(1, 6))
@pytest.mark.parametrize("degree", [-2, 0, 1])
def test_graded_relations_match_reference(size, degree):
    core = _core(size)
    ansatz = Ansatz(core, degree)
    lo, hi = core.lo, core.hi
    family = graded_family(core)
    perturbations = [
        ("a not constant", 0, unknown("a", hi), ONE),
        ("a off d", 0, unknown("a", lo), ONE),
        ("nonzero b", 0, unknown("b", lo), Scalar(3)),
        ("nonzero c", 0, unknown("c", hi), I),
        ("d off a", 0, unknown("d", hi), Scalar(-1, 1)),
        ("a zero", 0, unknown("a", lo), -ONE),
    ]
    seen_offending = 0
    for name, vectors in doctored(family, perturbations, Scalar(2)):
        space = _space(ansatz, vectors)
        new = _classify(space, a_omega_delta(), ansatz, 7)
        assert new == reference_graded(space, core, degree, 7)
        assert new.matches == (name == "family"), name
        seen_offending += bool(new.offending_vectors)
    assert seen_offending == len(perturbations)


# every functional whose support fits a core of each size 1..5
SIZED_FUNCTIONALS = [
    (size, values)
    for size in range(1, 6)
    for values in FUNCTIONALS
    if all(_core(size).contains(j) for j in values)
]


@pytest.mark.parametrize("size, values", SIZED_FUNCTIONALS)
def test_full_window_relations_match_reference(size, values):
    core = _core(size)
    f = functional(values)
    bdef = afk(1, f)
    ansatz = Ansatz(core, image=core)
    lo, hi = core.lo, core.hi
    t0 = f.support[0]
    family = full_window_family(core, f)
    perturbations = [
        ("off-diagonal a", 0, unknown("a", lo, hi), ONE),
        ("diagonal a off h", 0, unknown("a", hi, hi), I),
        ("nonzero b", len(family) // 2, unknown("b", hi, lo), Scalar(2)),
        ("c column out of proportion", 1, unknown("c", hi, lo), Scalar(1, -1)),
        ("c on the support index", 1, unknown("c", t0, hi), ONE),
        ("d row sum off", len(family) - 1, unknown("d", lo, t0), ONE),
        ("d row sum off by i", 0, unknown("d", hi, t0), I),
    ]
    for name, vectors in doctored(family, perturbations, Scalar(-1, 2)):
        space = _space(ansatz, vectors)
        new = _classify(space, bdef, ansatz, 11)
        assert new == reference_full_window(space, core, f, 11)
        if not name.startswith("c "):  # may stay proportional, e.g. on a one-index core
            assert new.matches == (name == "family"), name


@pytest.mark.parametrize("size", range(1, 6))
def test_family_dimension_is_computed_from_the_relations(size):
    core = _core(size)
    graded = _family_relations(a_omega_delta(), Ansatz(core))
    assert graded.num_unknowns - rank(graded.rows) == 1
    for values in (v for n, v in SIZED_FUNCTIONALS if n == size):
        rel = _family_relations(afk(1, functional(values)), Ansatz(core, image=core))
        assert rel.num_unknowns - rank(rel.rows) == 1 + size * size


@pytest.mark.parametrize("eq, matches", [(window(-1, 1), False), (window(-6, 6), True)])
@pytest.mark.parametrize("degree", [0, 1])
def test_solved_graded_core_spaces_match_reference(eq, matches, degree):
    core = window(-3, 3)
    verdict = solve_and_classify(a_omega_delta(), window(-6, 6), eq, core, degree)
    assert verdict == reference_graded(verdict.core_space, core, degree, verdict.full_dimension)
    assert verdict.matches == matches


@pytest.mark.parametrize("values", [{0: 1}, {0: Scalar(1, 1), 1: 2}, {-1: Scalar(1, 2), 1: 5}])
@pytest.mark.parametrize(
    "eq, image, matches",
    [
        (window(-1, 1), window(-4, 4), False),  # offending vectors
        (window(-3, 3), window(-3, 3), False),  # contained, one dimension short
        (window(-3, 3), window(-4, 4), True),
    ],
)
def test_solved_full_window_core_spaces_match_reference(values, eq, image, matches):
    f = functional(values)
    core = window(-2, 2)
    verdict = solve_and_classify(afk(1, f), window(-4, 4), eq, core, image=image)
    assert verdict == reference_full_window(verdict.core_space, core, f, verdict.full_dimension)
    assert verdict.matches == matches

"""Test-side views of sparse solution spaces."""

from translie.linalg import SolutionSpace
from translie.scalars import ONE, ZERO


def dense(space, idx):
    """Basis vector idx as a list with one Scalar per unknown, zeros included."""
    vec = space.basis[idx]
    return [vec.get(col, ZERO) for col in range(len(space.unknowns))]


def assignment_space(system, assignment):
    """An assignment UnknownId -> Scalar as a one-vector space on the
    system's unknowns, so SolutionSpace.residuals can check it."""
    vec = {system.column_of(uid): v for uid, v in assignment.items() if v}
    return SolutionSpace(list(system.unknowns), [vec])


def assert_sparse_basis(space):
    """Every vector stores no zero, is 1 at its smallest column, and has
    its columns among the space's unknowns."""
    for vec in space.basis:
        assert vec and all(vec.values())
        assert vec[min(vec)] == ONE
        assert all(col in range(len(space.unknowns)) for col in vec)

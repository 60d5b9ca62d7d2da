"""Hand-built instances shared across the test modules.

Each fixture is a small problem whose behaviour was worked out by hand (and
re-derived by in-test oracles where the tests assert exact values).
"""

from unittest import mock

import pytest

from bestprox import EUCLIDEAN, Metric, geometry, make_instance, matrix_metric


def each_block_size():
    """Run the caller's body with the row-blocked distance scans (A x B and
    the certificate) at 1, 2 and 3 rows per block, so they span several
    blocks, and at the default size (yielded as None).  Import it with
    ``from conftest import each_block_size``."""
    for rows in (1, 2, 3):
        with mock.patch.object(geometry, "_MAX_ROWS", rows):
            yield rows
    yield None


@pytest.fixture
def geometric_instance():
    """Heights {0, 1/4, 1} on the x=0 line, images shift one rung down.

    The induced map is 2 -> 1 -> 0 -> 0 with pair ratios {1/3, 1/4, 0},
    so alpha_hat = 1/3 and the unique best proximity point is (0, 0).
    """
    return make_instance(
        Metric(EUCLIDEAN),
        [(0.0, 0.0), (0.0, 0.25), (0.0, 1.0)],
        [(1.0, 0.0), (1.0, 0.25), (1.0, 1.0)],
        [0, 0, 1],
    )


@pytest.fixture
def boundary_instance():
    """Heights {0, 1/2, 1}: the rung-down map has pair ratio exactly 1.

    The induced map exists (partners unique) but the contraction constant is
    1.0, putting the instance exactly on the hypothesis boundary.
    """
    return make_instance(
        Metric(EUCLIDEAN),
        [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0)],
        [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0)],
        [0, 0, 1],
    )


@pytest.fixture
def halving_instance():
    """T halves heights, but (1, 1/4) has no proximal partner in A.

    A = {0, 1/2, 1} heights, B also holds (1, 1/4); the image of (0, 1/2)
    lands outside B0, so the induced map cannot be built at A-index 1.
    """
    return make_instance(
        Metric(EUCLIDEAN),
        [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0)],
        [(1.0, 0.0), (1.0, 0.25), (1.0, 0.5), (1.0, 1.0)],
        [0, 1, 2],
    )


@pytest.fixture
def nonunique_instance():
    """Three abstract points: both elements of A are at distance 1 from b."""
    return make_instance(
        matrix_metric([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        [0, 1],
        [2],
        [0, 0],
    )


@pytest.fixture
def swap_instance():
    """Taxicab 4-point space where the induced map is the 2-cycle a <-> b."""
    return make_instance(
        matrix_metric(
            [
                [0.0, 1.0, 1.0, 2.0],
                [1.0, 0.0, 2.0, 1.0],
                [1.0, 2.0, 0.0, 1.0],
                [2.0, 1.0, 1.0, 0.0],
            ]
        ),
        [0, 1],
        [2, 3],
        [1, 0],
    )


@pytest.fixture
def crossed_instance():
    """T swaps the rungs diagonally: no point of A attains d(A,B)."""
    return make_instance(
        Metric(EUCLIDEAN),
        [(0.0, 0.0), (0.0, 1.0)],
        [(1.0, 0.0), (1.0, 1.0)],
        [1, 0],
    )


@pytest.fixture
def narrow_a0_instance():
    """A has a far point (2, 5) outside A0; only (0, 0) realizes d(A,B)."""
    return make_instance(
        Metric(EUCLIDEAN),
        [(0.0, 0.0), (2.0, 5.0)],
        [(1.0, 0.0)],
        [0, 0],
    )

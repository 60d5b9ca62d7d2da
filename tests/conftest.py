"""Hand-built instances and scan references shared across the test modules.

Each fixture is a small problem whose behaviour was worked out by hand (and
re-derived by in-test oracles where the tests assert exact values).  The dense
references compute the full tables that the tiled scans of ``geometry`` walk
in pieces, and the tests require equal results.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

from bestprox import (
    EUCLIDEAN,
    InducedMap,
    Metric,
    ProximityMap,
    SetPair,
    classify_partners,
    euclidean_metric,
    geometry,
    make_instance,
    matrix_metric,
    pairwise_distances,
    proximal_subsets,
)


def each_block_size():
    """Run the caller's body with the tiled distance scans (A x B, the
    certificate and the duplicate check) at 1, 2 and 3 rows per block times
    1, 2 and 3 columns per tile, on euclidean spaces and tables alike, so they
    span many tiles, and at the default sizes (yielded as None).  A tile
    holds rows x cols entries, so a scan narrower than cols takes taller
    blocks.  Import it with ``from conftest import each_block_size``."""
    for rows, cols in itertools.product((1, 2, 3), repeat=2):
        with mock.patch.object(geometry, "_TILE_ENTRIES", rows * cols), mock.patch.object(geometry, "_TILE_COLS", cols):
            yield rows, cols
    yield None


def dense_max_ratio(sp, mapping):
    """Reference for the tiled certificate scan: both full |keys| x |keys|
    tables, the ratio over the strict upper triangle, first maximum wins.
    A 0/0, between distinct keys of a table that fails identity, is no ratio."""
    keys = sorted(mapping)
    n = len(keys)
    if n < 2:
        return 0.0, None, 0
    src = sp.a[keys]
    dst = sp.a[[mapping[i] for i in keys]]
    iu = np.triu_indices(n, k=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = pairwise_distances(sp.metric, dst, dst)[iu] / pairwise_distances(sp.metric, src, src)[iu]
    ratios[np.isnan(ratios)] = -np.inf
    best = int(np.argmax(ratios))
    return float(ratios[best]), (keys[int(iu[0][best])], keys[int(iu[1][best])]), len(ratios)


def scope_map(induced, keys=None):
    """S as the dict {x: table[x]} over ``keys`` (default A0), the form the
    dense references take."""
    keys = induced.geometry.a0 if keys is None else keys
    return dict(zip(keys.tolist(), induced.table[keys].tolist()))


def with_self_map(geom, t_map, mapping):
    """The partner classes of T over A, with S on A0 replaced by ``mapping``
    (a dict over A0): one partner, mapping[x], at each x in A0."""
    classes = classify_partners(geom, t_map)
    count, table = classes.count.copy(), classes.table.copy()
    count[geom.a0] = 1
    table[geom.a0] = [mapping[x] for x in geom.a0.tolist()]
    return InducedMap(geom, t_map, count, table)


def tie_heavy_case(kind, rng):
    """Disjoint A and B drawn from a 5 x 5 integer grid, euclidean or as a
    taxicab table, with a random T and eps_prox, so that many distances tie.
    Returns the geometry and T."""
    grid = [(x, y) for x in range(5) for y in range(5)]
    pts = rng.sample(grid, rng.randint(4, 18))
    cut = rng.randint(2, len(pts) - 1)
    if kind == "grid":
        sp = SetPair(euclidean_metric(), pts[:cut], pts[cut:])
    else:
        table = [[float(abs(p[0] - q[0]) + abs(p[1] - q[1])) for q in pts] for p in pts]
        sp = SetPair(matrix_metric(table), list(range(cut)), list(range(cut, len(pts))))
    t_map = ProximityMap(tuple(rng.randrange(len(pts) - cut) for _ in range(cut)))
    return proximal_subsets(sp, rng.choice([0.0, 1.0, 1.5, 10.0])), t_map


def dense_proximal_subsets(sp, eps_prox):
    """Reference for the tiled A x B scan: the full |A| x |B| table, cut at
    its minimum plus eps_prox.  Returns (pair_distance, a0, b0, pairing) with
    the pairing as a list of (B index, A partners) in ascending B order."""
    table = pairwise_distances(sp.metric, sp.a, sp.b)
    dist = float(table.min())
    near = table <= dist + eps_prox
    b0 = np.flatnonzero(near.any(axis=0)).tolist()
    pairing = [(j, tuple(np.flatnonzero(near[:, j]).tolist())) for j in b0]
    return dist, tuple(np.flatnonzero(near.any(axis=1)).tolist()), tuple(b0), pairing


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


@pytest.fixture
def decimal_ladder_instance():
    """Heights {1, 0.1, 0.01, 0} on the x=0 line, images shift one rung down.

    The induced map is 0 -> 1 -> 2 -> 3 -> 3 with alpha_hat = 1/9.  The step
    gap 0.01 from A[2] is below tol (1 - alpha) / alpha for tol 0.05, so a
    walk that stopped once its gap guaranteed d(x_k, z) <= tol would stop on
    A[2], short of the fixed point A[3].
    """
    return make_instance(
        Metric(EUCLIDEAN),
        [(0.0, 1.0), (0.0, 0.1), (0.0, 0.01), (0.0, 0.0)],
        [(1.0, 1.0), (1.0, 0.1), (1.0, 0.01), (1.0, 0.0)],
        [1, 2, 3, 3],
        eps_prox=0.0,
    )


@pytest.fixture
def broken_orbit_table():
    """A 210-point table whose triangle fails only along the orbit of S.

    A is an orbit a0 .. a4 with d(a_i, a_i+1) = 0.5^i and d(a_i, a_j) =
    10 * 0.5^i for j > i + 1; B holds copies b0 .. b4 with d(a_i, b_j) =
    3 + d(a_i, a_j), and 200 decoys at 1e4 from every other point and |p - q|
    apart from one another.  T = [1, 2, 3, 4, 4], so S shifts the orbit and
    alpha_hat = 1/2, but d(a0, a4) = 10 > d(a0, a1) + d(a1, a4) = 1 + 5, a
    triple that the 1000 sampled ones miss.
    """
    n = 210
    table = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)  # among the decoys
    table[:10, :] = table[:, :10] = 1e4
    lo, hi = np.minimum.outer(np.arange(5), np.arange(5)), np.maximum.outer(np.arange(5), np.arange(5))
    orbit = np.where(hi == lo + 1, 0.5**lo, 10 * 0.5**lo) * (hi > lo)
    table[:5, :5] = table[5:10, 5:10] = orbit
    table[:5, 5:10] = table[5:10, :5] = 3 + orbit
    return make_instance(matrix_metric(table), range(5), range(5, n), [1, 2, 3, 4, 4])

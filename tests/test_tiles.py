"""The tiled walk behind the A x B scan and the contraction certificate.

Its box bounds must bracket every entry of a tile bit for bit, the pruned
scans must give exactly what the dense references in ``conftest`` give, and on
instances shaped for it the pruning must really skip most of the work.
"""

import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import dense_max_ratio, dense_proximal_subsets, each_block_size, scope_map, with_self_map
from hypothesis import given, reject, settings

from bestprox import geometry
from bestprox.engine import _max_ratio
from bestprox import (
    CONTRACTION,
    DuplicatePointError,
    ProximityMap,
    SetPair,
    banach_iterate,
    certify_contraction,
    euclidean_metric,
    matrix_metric,
    pairwise_distances,
    proximal_subsets,
)


def tile_bounds(p, q):
    """The bounds of :func:`geometry.scan_tiles` from the rows ``p`` to the single column tile ``q``."""
    lower, upper = geometry._box_bounds(euclidean_metric(), p, q.min(axis=0)[None], q.max(axis=0)[None])
    return lower[0], upper[0]


def test_box_bounds_bracket_every_tile_entry_bitwise():
    # Axes scaled across 16 decades make the order of the squares' sum matter.
    # Where the boxes' facing corners are points of the tile the bounds are
    # attained, so a bound one ulp off, or summed in another order, fails.
    rng = np.random.default_rng(7)
    for d in range(1, 201):
        for _ in range(4):
            scale = 10.0 ** rng.uniform(-8, 8, size=d)
            p = rng.standard_normal((5, d)) * scale
            q = rng.standard_normal((6, d)) * scale + rng.choice([0.0, 3.0], size=d) * scale
            table = pairwise_distances(euclidean_metric(), p, q)
            lower, upper = tile_bounds(p, q)
            assert lower <= table.min() and upper >= table.max(), d
            # q lies beyond p on every axis, with both boxes' corners as points.
            q = np.abs(q) + p.max(axis=0) + scale * 1e-9
            p = np.vstack([p, p.min(axis=0), p.max(axis=0)])
            q = np.vstack([q, q.min(axis=0), q.max(axis=0)])
            table = pairwise_distances(euclidean_metric(), p, q)
            assert tile_bounds(p, q) == (table.min(), table.max()), d


@st.composite
def tiled_cases(draw):
    """A tie-heavy or near-tie set pair, eps_prox, T and an induced map over A0.

    Grid coordinates make many exact ties; ``near`` adds coordinates 2^-30
    apart around 1.0, so distances differ by about eps_prox; maps onto one
    target give all-zero certificates, onto few targets collapsed blocks.
    """
    shape = draw(st.sampled_from(("grid", "near", "matrix")))
    coord = st.integers(0, 3).map(float)
    if shape == "near":
        coord = coord | st.integers(-3, 3).map(lambda k: 1.0 + k * 2.0**-30)
    pt = st.tuples(*[coord] * draw(st.integers(1, 3)))
    a = draw(st.lists(pt, min_size=1, max_size=10, unique=True))
    b = draw(st.lists(pt, min_size=1, max_size=8, unique=True))
    if shape == "matrix":
        pts = a + b
        table = [[float(sum(abs(x - y) for x, y in zip(p, q))) for q in pts] for p in pts]
        sp = SetPair(matrix_metric(table), range(len(a)), range(len(a), len(pts)))
    else:
        try:
            sp = SetPair(euclidean_metric(), a, b)
        except DuplicatePointError:  # distinct coordinates at kernel distance 0
            reject()
    eps = draw(st.sampled_from((0.0, 2.0**-30, 1e-9, 1.0)))
    a0 = dense_proximal_subsets(sp, eps)[1]
    targets = draw(st.lists(st.sampled_from(a0), min_size=1, max_size=3))
    mapping = {i: draw(st.sampled_from(targets)) for i in a0}
    t_map = ProximityMap(draw(st.lists(st.integers(0, len(b) - 1), min_size=len(a), max_size=len(a))))
    return sp, eps, t_map, mapping


@given(tiled_cases())
@settings(max_examples=200, deadline=None)
def test_tiled_scans_match_the_dense_references(case):
    sp, eps, t_map, mapping = case
    dense = dense_proximal_subsets(sp, eps)
    alpha = dense_max_ratio(sp, mapping)
    for sizes in each_block_size():
        geom = proximal_subsets(sp, eps)
        pairing = [(j, geom.partners_in_a(j)) for j in geom.b0.tolist()]
        assert (geom.pair_distance, tuple(geom.a0.tolist()), tuple(geom.b0.tolist()), pairing) == dense, sizes
        induced = with_self_map(geom, t_map, mapping)
        cert = certify_contraction(induced)
        assert (cert.alpha_hat, cert.witness, cert.pair_count) == alpha, sizes
        if cert.verdict == CONTRACTION:
            # A contraction of a finite set has one cycle, of length 1, and
            # a certified walk from any start ends on that fixed point.
            step = scope_map(induced)
            cycles = set()
            for x in step:
                orbit = []
                while x not in orbit:
                    orbit.append(x)
                    x = step[x]
                cycles.add(frozenset(orbit[orbit.index(x) :]))
            assert [len(c) for c in cycles] == [1], cycles
            (fixed,) = cycles.pop()
            for x in step:
                res = banach_iterate(induced, x, certificate=cert)
                assert (res.index, res.guaranteed) == (fixed, True), x
        partnered = np.flatnonzero(induced.count)
        if induced.count.max() > 1:
            continue  # the ambiguity path scans nothing
        cert = certify_contraction(induced, wide=True)
        full, witness, pairs = dense_max_ratio(sp, scope_map(induced, partnered))
        assert (cert.alpha_hat, cert.witness, cert.pair_count) == (full, witness if full > 0.0 else None, pairs), sizes


@pytest.fixture
def kernel_entries(monkeypatch):
    """The sizes of the tables ``pairwise_distances`` returns, wherever the package calls it."""
    original = pairwise_distances
    sizes = []

    def spy(metric, ps, qs):
        table = original(metric, ps, qs)
        sizes.append(table.size)
        return table

    for name, module in list(sys.modules.items()):
        if name.startswith("bestprox") and getattr(module, "pairwise_distances", None) is original:
            monkeypatch.setattr(module, "pairwise_distances", spy)
    return sizes


def ladder_with_clouds(rng, filler, decoys, dim=16):
    """31 rungs of A at unit distance from their mirrors in B, a filler cloud
    in A far from B and a decoy cloud in B far from A: d(A,B) = 1, attained
    by the rungs alone."""
    rungs = np.zeros((31, dim))
    rungs[:, 1] = np.arange(31.0)
    away = np.eye(dim)[2] * 50.0
    a = np.vstack([rungs, rng.standard_normal((filler, dim)) + away])
    b = np.vstack([rungs + np.eye(dim)[0], rng.standard_normal((decoys, dim)) - away])
    return a, b


def test_pruning_skips_far_tiles_of_the_product(kernel_entries):
    a, b = ladder_with_clouds(np.random.default_rng(3), 1500, 1000)
    sp = SetPair(euclidean_metric(), a, b)
    geom = proximal_subsets(sp)
    assert (geom.pair_distance, geom.a0.tolist(), geom.b0.tolist()) == (1.0, list(range(31)), list(range(31)))
    assert sum(kernel_entries) < 0.05 * len(a) * len(b), sum(kernel_entries)


def test_pruning_skips_the_collapsed_block_of_the_certificate(kernel_entries):
    # A 3-D ladder shifted one rung down, then 2000 far points that S sends
    # onto the last rung: every ratio among them is 0, below the ladder's 29/30.
    rng = np.random.default_rng(5)
    heights = np.append(np.cumsum(np.arange(1.0, 31.0))[::-1], 0.0)  # spacings 30, 29, ..., 1
    a = np.vstack([np.column_stack([np.zeros((31, 2)), heights]), rng.uniform(1e4, 2e4, size=(2000, 3))])
    sp = SetPair(euclidean_metric(), a, [(0.0, 0.0, -1.0)])
    mapping = {i: min(i + 1, 30) for i in range(31)} | dict.fromkeys(range(31, len(a)), 30)
    alpha, witness, pairs = _max_ratio(sp, np.arange(len(a)), np.array([mapping[i] for i in range(len(a))]))
    assert (alpha, witness, pairs) == (29 / 30, (0, 1), len(a) * (len(a) - 1) // 2)
    cells = sum(kernel_entries) / 2  # a tile computes the image and the source tables
    assert cells < 0.25 * pairs, cells


def test_pruning_skips_the_ties_of_an_all_zero_certificate(kernel_entries):
    # S sends the whole line A onto one point, so every ratio is 0 and every
    # tile's bound equals the maximum: only a tile that could hold a pair
    # before the witness (0, 1) has to be computed.
    n = 2000
    a = np.column_stack([np.zeros(n), np.arange(float(n))])
    sp = SetPair(euclidean_metric(), a, [(1.0, 0.0)])
    alpha, witness, pairs = _max_ratio(sp, np.arange(n), np.zeros(n, np.int64))
    assert (alpha, witness, pairs) == (0.0, (0, 1), n * (n - 1) // 2)
    cells = sum(kernel_entries) / 2  # a tile computes the image and the source tables
    assert cells < 0.05 * pairs, cells


def test_matrix_spaces_compute_every_entry(kernel_entries):
    a, b = ladder_with_clouds(np.random.default_rng(3), 300, 200)
    pts = np.vstack([a, b])
    m = matrix_metric(pairwise_distances(euclidean_metric(), pts, pts))
    sp = SetPair(m, np.arange(len(a)), np.arange(len(a), len(pts)))
    kernel_entries.clear()  # SetPair's duplicate scan reads the table too
    assert proximal_subsets(sp).a0.tolist() == list(range(31))
    assert sum(kernel_entries) == len(a) * len(b)
    kernel_entries.clear()
    pairs = _max_ratio(sp, np.arange(len(a)), np.zeros(len(a), np.int64))[2]
    assert sum(kernel_entries) / 2 >= pairs
    # A table walks the tile grid of a euclidean scan: its tiles start at
    # every column tile and hold each entry of the table once.
    p, q = sp.a[:7], sp.b[:5]
    table = pairwise_distances(m, p, q)
    for sizes in each_block_size():
        seen, starts = np.zeros(table.shape, np.int64), set()
        for lo, clo, tile in geometry.scan_tiles(m, [(p, q)], None):  # a table asks no skip
            rows, cols = slice(lo, lo + tile.shape[0]), slice(clo, clo + tile.shape[1])
            assert (tile == table[rows, cols]).all(), sizes
            seen[rows, cols] += 1
            starts.add(clo)
        assert (seen == 1).all(), sizes
        assert sorted(starts) == list(range(0, len(q), sizes[1] if sizes else len(q))), sizes

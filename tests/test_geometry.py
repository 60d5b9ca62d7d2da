import itertools
import math
import random
import re
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import dense_proximal_subsets, each_block_size, tie_heavy_case
from hypothesis import given, reject, settings

from bestprox import (
    DuplicatePointError,
    ProximityMap,
    SetPair,
    assess_instance,
    brute_force_solve,
    classify_partners,
    default_eps_prox,
    distance,
    euclidean_metric,
    make_instance,
    matrix_metric,
    pairwise_distances,
    proximal_subsets,
    validate_metric,
)


def euclid_pair(a, b):
    return SetPair(euclidean_metric(), tuple(a), tuple(b))


def point_to_set_distance(metric, x, pts) -> float:
    """Reference: exact minimum of d(x, s) over the nonempty finite set ``pts``."""
    if len(pts) == 0:
        raise ValueError("point-to-set distance over an empty set")
    return float(pairwise_distances(metric, [x], pts).min())


def test_pair_distance_singletons():
    assert proximal_subsets(euclid_pair([(0.0, 0.0)], [(1.0, 0.0)])).pair_distance == 1.0


def test_pair_distance_parallel_lines():
    a = [(0.0, t) for t in (0.0, 1.0, -1.0)]
    b = [(1.0, t) for t in (0.0, 1.0, -1.0)]
    sp = euclid_pair(a, b)
    # brute force over the 9 pairs, independently of the library path
    expected = min(math.dist(x, y) for x in a for y in b)
    assert expected == 1.0
    assert proximal_subsets(sp).pair_distance == expected


def test_pair_distance_overlapping_sets():
    assert proximal_subsets(euclid_pair([(0.0, 0.0)], [(0.0, 0.0)])).pair_distance == 0.0


def test_proximal_subsets_parallel_lines():
    heights = (0.0, 0.5, 1.0)
    a = [(0.0, t) for t in heights]
    b = [(1.0, t) for t in heights]
    geom = proximal_subsets(euclid_pair(a, b), 1e-9)
    assert geom.a0.tolist() == [0, 1, 2]
    assert geom.b0.tolist() == [0, 1, 2]
    # pairing matches equal second coordinates
    for j in geom.b0:
        assert geom.partners_in_a(j) == (j,)


def test_proximal_subsets_far_point_excluded(narrow_a0_instance):
    geom = proximal_subsets(narrow_a0_instance.pair, narrow_a0_instance.eps_prox)
    assert geom.pair_distance == 1.0  # (2,5) sits at sqrt(26)
    assert geom.a0.tolist() == [0]
    assert geom.b0.tolist() == [0]


def test_proximal_subsets_huge_tolerance_takes_everything():
    a = [(0.0, 0.0), (0.0, 2.0)]
    b = [(1.0, 0.0), (5.0, 5.0)]
    geom = proximal_subsets(euclid_pair(a, b), eps_prox=100.0)
    assert geom.a0.tolist() == [0, 1]
    assert geom.b0.tolist() == [0, 1]
    with pytest.raises(ValueError, match="eps_prox must be >= 0"):
        proximal_subsets(euclid_pair(a, b), -1.0)


@pytest.mark.parametrize("eps_prox", [math.nan, math.inf])
def test_non_finite_eps_prox_is_refused(eps_prox):
    # NaN passed an `eps_prox < 0` test: it gave an empty A0, and the oracle
    # called A[0], which attains d(A,B) = 1 exactly, no best proximity point.
    # inf put every point of A in A0.
    sp = euclid_pair([(0.0, 0.0), (0.0, 1.0)], [(1.0, 0.0)])
    with pytest.raises(ValueError, match="eps_prox must be >= 0"):
        proximal_subsets(sp, eps_prox)
    with pytest.raises(ValueError, match="eps_prox must be >= 0"):
        brute_force_solve(sp, ProximityMap([0, 0]), eps_prox=eps_prox)


def test_default_eps_depends_on_kind():
    assert default_eps_prox(euclidean_metric()) == 1e-9
    assert default_eps_prox(matrix_metric([[0.0, 1.0], [1.0, 0.0]])) == 0.0


def test_point_to_set_distance_examples():
    m = euclidean_metric()
    assert point_to_set_distance(m, (0.0, 0.0), [(1.0, 0.0)]) == 1.0
    assert point_to_set_distance(m, (0.0, 0.0), [(3.0, 4.0), (0.0, 2.0)]) == 2.0
    assert point_to_set_distance(m, (3.0, 4.0), [(3.0, 4.0), (0.0, 2.0)]) == 0.0
    with pytest.raises(ValueError):
        point_to_set_distance(m, (0.0, 0.0), [])


def test_compactness_always_trivial():
    rng = random.Random(0)
    cases = [
        [(1.0, 0.0)],
        [(5.0, 1.0)],
        [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(100)],
    ]
    for b in cases:
        inst = make_instance(euclidean_metric(), [(0.0, 0.0)], b, [0])
        verdict = assess_instance(inst).check("approximative-compactness")
        assert verdict.passed
        assert verdict.detail.startswith("holds-trivially: ")
        assert f"finite ({len(b)} points)" in verdict.detail


def test_duplicates_rejected_euclidean():
    with pytest.raises(DuplicatePointError) as exc:
        euclid_pair([(0.0, 0.0), (0.0, 0.0)], [(1.0, 0.0)])
    assert exc.value.side == "A"
    assert exc.value.indices == (0, 1)


def test_duplicates_rejected_matrix_zero_distance():
    # Distinct indices that the table puts at distance 0 are not refused at
    # load: the table fails identity, which the metric check reads off every
    # entry.  Only an index listed twice is a duplicate.
    m = matrix_metric([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    SetPair(m, (0, 1), (2,))
    row = validate_metric(m).check("identity")
    assert (row.passed, row.witness) == (False, (0, 1))


def test_duplicate_witness_is_the_first_repeat_and_its_first_copy():
    p, q, r = (0.0, 1.0), (2.0, 3.0), (4.0, 5.0)
    for a, indices in (
        ([(0.0, 1.0), (-0.0, 1.0)], (0, 1)),  # -0.0 equals 0.0
        ([(1.0, -0.0), (2.0, 0.0), (1.0, 0.0)], (0, 2)),
        ([p] * 6, (0, 1)),
        ([q, p, r, p, q, p], (1, 3)),
        ([r, q, p, q, r, r], (1, 3)),
    ):
        with pytest.raises(DuplicatePointError) as exc:
            euclid_pair(a, [(9.0, 9.0)])
        assert (exc.value.side, exc.value.indices) == ("A", indices)
    with pytest.raises(DuplicatePointError) as exc:
        euclid_pair([(9.0, 9.0)], [q, r, q, q])
    assert (exc.value.side, exc.value.indices) == ("B", (0, 2))
    m = matrix_metric([[float(abs(i - j)) for j in range(4)] for i in range(4)])
    with pytest.raises(DuplicatePointError) as exc:
        SetPair(m, (3, 1, 2, 1, 3), (0,))
    assert exc.value.indices == (1, 3)


def test_matrix_duplicate_witness_is_the_first_zero_in_row_major_order():
    # Indices 1 and 4 sit at one place, and so do 2 and 3.  Each listing
    # loads, and the identity row names the table's first zero off the
    # diagonal, row by row, in table indices, wherever the points lie.
    coords = [0.0, 1.0, 2.0, 2.0, 1.0, 3.0]
    m = matrix_metric([[abs(x - y) for y in coords] for x in coords])
    for a in ((5, 3, 1, 4, 2), (0, 5, 1, 2, 4), (2, 5, 0, 3)):
        inst = make_instance(m, a, (0,), [0] * len(a))
        row = assess_instance(inst).check("metric-axioms")
        assert (row.passed, row.witness) == (False, ((1, 4),)), a


def test_euclidean_duplicate_witness_is_the_least_later_point():
    # A[1], A[4] and A[2], A[3] are at kernel distance 0 (1e-200 squares to
    # 0).  The least j with an earlier point at distance 0 is 3, so the
    # witness is (2, 3), where the row-major rule of a table gives (1, 4).
    a = [(0.0, 0.0), (5.0, 0.0), (9.0, 0.0), (9.0, 1e-200), (5.0, 1e-200)]
    for rows in each_block_size():
        with pytest.raises(DuplicatePointError) as exc:
            euclid_pair(a, [(20.0, 20.0)])
        assert exc.value.indices == (2, 3), rows


def test_points_and_matrix_are_read_only_arrays():
    sp = euclid_pair([(0.0, 0.0), (0.0, 1.0)], [(1.0, 0.0)])
    m = matrix_metric([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    msp = SetPair(m, (0, 1), (2,))
    for arr, dtype, shape in (
        (sp.a, np.float64, (2, 2)),
        (sp.b, np.float64, (1, 2)),
        (m.matrix, np.float64, (3, 3)),
        (msp.a, np.int64, (2,)),
        (msp.b, np.int64, (1,)),
    ):
        assert isinstance(arr, np.ndarray)
        assert (arr.dtype, arr.shape) == (dtype, shape)
        assert arr.flags.writeable is False
        with pytest.raises(ValueError):
            arr[0] = 5


def test_points_are_kept_only_when_read_only_and_owned():
    e, b = euclidean_metric(), np.array([[1.0, 0.0]])
    pts = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert SetPair(e, pts, b).a is not pts and pts.flags.writeable  # a caller's array is never frozen
    pts.flags.writeable = False
    assert SetPair(e, pts, b).a is pts
    for other in (pts[:], pts.astype(np.float32), pts.astype(np.int64)):
        other.flags.writeable = False
        copied = SetPair(e, other, b).a
        assert copied is not other and copied.dtype == np.float64 and not copied.flags.writeable
    m = matrix_metric([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    idx = np.array([0, 1])
    assert SetPair(m, idx, (2,)).a is not idx and idx.flags.writeable
    idx.flags.writeable = False
    assert SetPair(m, idx, (2,)).a is idx


def test_matrix_duplicate_scan_memory_stays_within_the_block_budget():
    # |A| = 1500 distinct indices: the whole 1500 x 1500 sub-table and its
    # mask peaked at 20 MB; the tiled scan holds one tile at a time.
    coords = np.arange(2000, dtype=float)
    m = matrix_metric(np.abs(coords[:, None] - coords))
    tracemalloc.start()
    try:
        sp = SetPair(m, np.arange(1500), np.arange(1500, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sp.a) == 1500
    assert peak < 8 * 2**20, peak  # a tile holds 340 KiB; the rest is the scan's own arrays


def test_euclidean_duplicate_scan_memory_stays_within_the_block_budget():
    # n distinct points (k * 1e-200, 0), all at kernel distance 0 from each
    # other: one table over 4000 of them peaked at 260 MB, and one over all
    # 32000 would need 8 GB.  The 32000 points come as the rows of a loaded
    # file, listed before the trace starts: euclid_pair's 32000 row views
    # would add 3.7 MiB of the test's own to the check's 5.8 MiB.
    a = np.column_stack([np.arange(32000) * 1e-200, np.zeros(32000)])
    rows = a.tolist()
    for n, build in (
        (4000, lambda: euclid_pair(a[:4000], [(1.0, 0.0)])),
        (32000, lambda: SetPair(euclidean_metric(), rows, [(1.0, 0.0)])),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(DuplicatePointError) as exc:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.indices == (0, 1), n
        assert peak < 8 * 2**20, (n, peak)  # a tile holds 340 KiB; the rest is the scan's own arrays


def test_empty_sets_rejected():
    with pytest.raises(ValueError):
        euclid_pair([], [(0.0, 0.0)])


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError, match="dimension"):
        euclid_pair([(0.0, 0.0)], [(1.0, 0.0, 0.0)])
    m = matrix_metric([[float(abs(i - j)) for j in range(3)] for i in range(3)])
    with pytest.raises(ValueError, match=re.escape("field 'A[0]': not an index into the distance table: [0]")):
        SetPair(m, [[0], [1]], [2])


def test_matrix_overlap_gives_zero_distance():
    n = 5
    table = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
    sp = SetPair(matrix_metric(table), (0, 1, 2), (2, 4))
    geom = proximal_subsets(sp)
    assert geom.pair_distance == 0.0
    assert 2 in [sp.a[i] for i in geom.a0]  # the shared point realizes it


@st.composite
def random_pairs(draw):
    dim = draw(st.integers(1, 3))
    coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
    pt = st.tuples(*[coord] * dim)
    a = draw(st.lists(pt, min_size=1, max_size=7, unique=True))
    b = draw(st.lists(pt, min_size=1, max_size=7, unique=True))
    try:
        return euclid_pair(a, b)
    except DuplicatePointError:  # distinct coordinates at kernel distance 0
        reject()


@given(random_pairs())
@settings(max_examples=150)
def test_pair_distance_is_a_lower_bound(sp):
    for _ in each_block_size():
        d = proximal_subsets(sp).pair_distance
        assert all(distance(sp.metric, x, y) >= d for x in sp.a for y in sp.b)
        assert d == min(distance(sp.metric, x, y) for x in sp.a for y in sp.b)


@given(random_pairs(), st.floats(min_value=0, max_value=10))
@settings(max_examples=150)
def test_a0_membership_criterion(sp, eps):
    geom = proximal_subsets(sp, eps)
    members = set(geom.a0)
    for i, x in enumerate(sp.a):
        near = point_to_set_distance(sp.metric, x, sp.b) <= geom.pair_distance + eps
        assert (i in members) == near


@given(random_pairs(), st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
@settings(max_examples=150)
def test_shrinking_eps_never_enlarges_a0(sp, e1, e2):
    small, large = sorted((e1, e2))
    assert set(proximal_subsets(sp, small).a0) <= set(proximal_subsets(sp, large).a0)


@given(random_pairs())
@settings(max_examples=100)
def test_pairing_structure(sp):
    for _ in each_block_size():
        geom = proximal_subsets(sp)
        assert [j for j in range(len(sp.b)) if geom.partners_in_a(j)] == geom.b0.tolist()
        partners = set(itertools.chain.from_iterable(geom.partners_in_a(j) for j in geom.b0))
        assert partners == set(geom.a0)
        # the relation is exactly the pairs within eps_prox of d(A,B), partners ascending
        cut = geom.pair_distance + geom.eps_prox
        for j, y in enumerate(sp.b):
            near = tuple(i for i, x in enumerate(sp.a) if distance(sp.metric, x, y) <= cut)
            assert geom.partners_in_a(j) == near


@pytest.mark.parametrize("kind", ["grid", "matrix"])
def test_partner_relation_matches_the_dense_reference(kind):
    # The compressed rows hold every B index, those outside B0 (the last one
    # among them) as empty groups, and the classes of T count, per point of A,
    # the points of A at the cut from its image.
    rng = random.Random(kind)
    last_empty = set()
    for _ in range(80):
        geom, t_map = tie_heavy_case(kind, rng)
        sp = geom.pair
        dense = dict(dense_proximal_subsets(sp, geom.eps_prox)[3])
        assert [geom.partners_in_a(j) for j in range(len(sp.b))] == [dense.get(j, ()) for j in range(len(sp.b))]
        assert len(geom.offsets) == len(sp.b) + 1 and geom.offsets[-1] == len(geom.partners)
        last_empty.add(len(sp.b) - 1 not in dense)
        classes = classify_partners(geom, t_map)
        for arr in (geom.a0, geom.b0, geom.partners, geom.offsets, classes.count, classes.table):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        cut = geom.pair_distance + geom.eps_prox
        for x in range(len(sp.a)):
            image = sp.b[t_map.image[x]]
            near = [i for i in range(len(sp.a)) if distance(sp.metric, sp.a[i], image) <= cut]
            assert (classes.count[x], classes.table[x]) == (len(near), near[0] if len(near) == 1 else -1), x
    assert last_empty == {True, False}


def test_running_cut_drops_early_near_ties():
    # With 2-row blocks, block 1 (rows 0-1) has minimum 3 and a near-tie at
    # about 3.0004; block 2 (rows 2-3) has the true minimum 1 and a near-tie at
    # about 1.0012.  Hits kept against block 1's minimum must not survive the
    # final cut.
    a = [(0.0, 0.0), (0.0, 0.05), (2.0, 10.0), (2.0, 10.05)]
    b = [(3.0, 0.0), (3.0, 10.0)]
    sp = euclid_pair(a, b)
    for rows in each_block_size():
        geom = proximal_subsets(sp, 0.1)
        assert geom.pair_distance == 1.0, rows
        assert geom.a0.tolist() == [2, 3]
        assert geom.b0.tolist() == [1]
        assert [geom.partners_in_a(j) for j in range(len(b))] == [(), (2, 3)]


def test_product_scan_memory_stays_within_the_block_budget():
    # |A| = 2000, |B| = 1200 in 16-D: a (rows, |B|, 16) difference tensor of
    # 1024-row blocks peaked at 157 MB; the per-axis kernel holds a few
    # (rows, 256) tables of one tile.
    rng = np.random.default_rng(0)
    sp = euclid_pair(rng.standard_normal((2000, 16)), rng.standard_normal((1200, 16)) + 10.0)
    tracemalloc.start()
    try:
        geom = proximal_subsets(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(geom.a0) >= 1
    assert peak < 8 * 2**20, peak  # a tile holds 340 KiB; the rest is the scan's own arrays

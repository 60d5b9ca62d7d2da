import itertools
import math
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, reject, settings

from bestprox import geometry
from bestprox import (
    DuplicatePointError,
    SetPair,
    check_approximative_compactness,
    default_eps_prox,
    distance,
    euclidean_metric,
    matrix_metric,
    point_to_set_distance,
    proximal_subsets,
)


def euclid_pair(a, b):
    return SetPair(euclidean_metric(), tuple(a), tuple(b))


def each_block_size():
    """Run the caller's body with the product scan at 1-row and 2-row blocks
    (so it spans several blocks) and at the default size."""
    for size in (1, 2, geometry._CHUNK):
        with mock.patch.object(geometry, "_CHUNK", size):
            yield size


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
    assert geom.a0 == (0, 1, 2)
    assert geom.b0 == (0, 1, 2)
    # pairing matches equal second coordinates
    for j in geom.b0:
        assert geom.partners_in_a(j) == (j,)


def test_proximal_subsets_far_point_excluded(narrow_a0_instance):
    geom = proximal_subsets(narrow_a0_instance.pair, narrow_a0_instance.eps_prox)
    assert geom.pair_distance == 1.0  # (2,5) sits at sqrt(26)
    assert geom.a0 == (0,)
    assert geom.b0 == (0,)


def test_proximal_subsets_huge_tolerance_takes_everything():
    a = [(0.0, 0.0), (0.0, 2.0)]
    b = [(1.0, 0.0), (5.0, 5.0)]
    geom = proximal_subsets(euclid_pair(a, b), eps_prox=100.0)
    assert geom.a0 == (0, 1)
    assert geom.b0 == (0, 1)


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
    import random

    rng = random.Random(0)
    cases = [
        euclid_pair([(0.0, 0.0)], [(1.0, 0.0)]),
        euclid_pair([(0.0, 0.0)], [(5.0, 1.0)]),
        euclid_pair(
            [(0.0, 0.0)],
            [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(100)],
        ),
    ]
    for sp in cases:
        verdict = check_approximative_compactness(sp)
        assert verdict.holds
        assert verdict.status == "holds-trivially"
        assert "finite" in verdict.reason


def test_duplicates_rejected_euclidean():
    with pytest.raises(DuplicatePointError) as exc:
        euclid_pair([(0.0, 0.0), (0.0, 0.0)], [(1.0, 0.0)])
    assert exc.value.side == "A"
    assert exc.value.indices == (0, 1)


def test_duplicates_rejected_matrix_zero_distance():
    # distinct indices, but the table says they coincide
    m = matrix_metric([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(DuplicatePointError):
        SetPair(m, (0, 1), (2,))


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


def test_empty_sets_rejected():
    with pytest.raises(ValueError):
        euclid_pair([], [(0.0, 0.0)])


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError, match="dimension"):
        euclid_pair([(0.0, 0.0)], [(1.0, 0.0, 0.0)])


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
        assert set(geom.reverse_pairing) == set(geom.b0)
        partners = set(itertools.chain.from_iterable(geom.partners_in_a(j) for j in geom.b0))
        assert partners == set(geom.a0)
        # the relation is exactly the pairs within eps_prox of d(A,B), partners ascending
        cut = geom.pair_distance + geom.eps_prox
        for j, y in enumerate(sp.b):
            near = tuple(i for i, x in enumerate(sp.a) if distance(sp.metric, x, y) <= cut)
            assert geom.partners_in_a(j) == near


def test_running_cut_drops_early_near_ties():
    # With 2-row blocks, block 1 (rows 0-1) has minimum 3 and a near-tie at
    # about 3.0004; block 2 (rows 2-3) has the true minimum 1 and a near-tie at
    # about 1.0012.  Hits kept against block 1's minimum must not survive the
    # final cut.
    a = [(0.0, 0.0), (0.0, 0.05), (2.0, 10.0), (2.0, 10.05)]
    b = [(3.0, 0.0), (3.0, 10.0)]
    sp = euclid_pair(a, b)
    for size in each_block_size():
        geom = proximal_subsets(sp, 0.1)
        assert geom.pair_distance == 1.0, size
        assert geom.a0 == (2, 3)
        assert geom.b0 == (1,)
        assert geom.reverse_pairing == {1: (2, 3)}

import random
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from bestprox import (
    EUCLIDEAN,
    EXPLICIT_MATRIX,
    Checklist,
    Metric,
    distance,
    euclidean_metric,
    matrix_metric,
    paired_distances,
    pairwise_distances,
    validate_metric,
)
from bestprox.metric import EXHAUSTIVE_LIMIT


def synthetic_pool(size, dimension, seed=0):
    """Reference sample pool for a coordinate space: seeded uniform points."""
    rng = random.Random(seed)
    count = max(3, min(size, 64))
    draws = [rng.uniform(-100.0, 100.0) for _ in range(count * dimension)]
    return np.array(draws).reshape(count, dimension)


def test_distance_identity():
    assert distance(euclidean_metric(), (0.0, 0.0), (0.0, 0.0)) == 0.0


def test_distance_pythagorean():
    assert distance(euclidean_metric(), (0.0, 0.0), (3.0, 4.0)) == 5.0


def test_distance_matrix_lookup():
    m = matrix_metric([[0.0, 2.0], [2.0, 0.0]])
    assert distance(m, 0, 1) == 2.0
    assert distance(m, 1, 0) == 2.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        distance(euclidean_metric(), (0.0,), (0.0, 1.0))
    with pytest.raises(ValueError, match="paired distances need equal counts"):
        paired_distances(euclidean_metric(), [(0.0,)], [(0.0,), (1.0,)])


def test_distance_index_out_of_range():
    m = matrix_metric([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="out of range"):
        distance(m, 0, 2)
    with pytest.raises(ValueError, match="must be integer indices, got float64"):
        pairwise_distances(m, [0.5], [1])


def test_metric_kind_checked():
    with pytest.raises(ValueError):
        Metric("taxicab")
    with pytest.raises(ValueError):
        Metric(EUCLIDEAN, ((0.0,),))
    with pytest.raises(ValueError):
        Metric(EXPLICIT_MATRIX)
    with pytest.raises(ValueError):
        matrix_metric([[0.0, 1.0]])  # not square


def test_validate_two_point_metric_passes():
    report = validate_metric(matrix_metric([[0.0, 1.0], [1.0, 0.0]]))
    assert report.passed
    assert report.exhaustive


def line_table(n):
    """The metric |i - j| on n points, as a writable float table."""
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)


# On a table of EXHAUSTIVE_LIMIT + 1 points each defect sits where none of the
# 1000 seed-0 triples reaches: the pairs (37, 150) and (12, 190) and the point
# 148 are never drawn.  Symmetry, identity and nonnegativity are still read
# on every entry.
LARGE = EXHAUSTIVE_LIMIT + 1


@pytest.mark.parametrize("n, i, j", [(2, 0, 1), (LARGE, 37, 150)])
def test_validate_flags_asymmetry(n, i, j):
    table = line_table(n)
    table[j, i] += 1.0
    report = validate_metric(matrix_metric(table))
    assert not report.passed
    assert report.exhaustive == (n <= EXHAUSTIVE_LIMIT)
    row = report.check("symmetry")
    assert not row.passed
    assert row.witness == (i, j)
    assert row.detail == f"d({i}, {j}) = {j - i:.1f} but d({j}, {i}) = {j - i + 1:.1f}"
    with pytest.raises(KeyError):
        Checklist(()).check("absent")


def test_validate_flags_triangle_violation():
    table = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]

    # independent oracle: first violating triple in lexicographic (i, j, k) order
    def scan(matrix):
        n = len(matrix)
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                for k in range(n):
                    if k in (i, j):
                        continue
                    if matrix[i][j] > matrix[i][k] + matrix[k][j]:
                        return (i, j, k)
        return None

    assert scan(table) == (0, 2, 1)  # d(0,2) = 3 > 1 + 1 via 1

    report = validate_metric(matrix_metric(table))
    row = report.check("triangle")
    assert not row.passed
    assert row.witness == (0, 2, 1)


@pytest.mark.parametrize("n, i", [(1, 0), (LARGE, 148)])
def test_validate_flags_nonzero_diagonal(n, i):
    table = line_table(n)
    table[i, i] = 1.0
    row = validate_metric(matrix_metric(table)).check("identity")
    assert not row.passed
    assert row.witness == (i,)
    assert row.detail == f"d({i},{i}) = 1.0 != 0"


@pytest.mark.parametrize("n, i, j", [(3, 0, 1), (LARGE, 12, 190)])
def test_validate_flags_zero_between_distinct_points(n, i, j):
    # The line with j moved onto i: a pseudometric, so every other axiom
    # holds, but d(i,j) = 0 with i != j.
    table = line_table(n)
    row = table[i].copy()
    row[j] = 0.0
    table[i] = table[j] = row
    table[:, i] = table[:, j] = row
    report = validate_metric(matrix_metric(table))
    assert [c.name for c in report.failures] == ["identity"]
    row = report.check("identity")
    assert row.witness == (i, j)
    assert row.detail == f"d({i}, {j}) = 0.0 between distinct points"


@pytest.mark.parametrize("n, i, j", [(2, 0, 1), (LARGE, 12, 190)])
def test_validate_flags_negative_entry(n, i, j):
    table = line_table(n)
    table[i, j] = table[j, i] = -1.0
    row = validate_metric(matrix_metric(table)).check("nonnegativity")
    assert not row.passed
    assert row.witness == (i, j)
    assert row.detail == f"d({i}, {j}) = -1.0 < 0"


def test_validate_large_matrix_is_sampled():
    n = 201
    table = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
    report = validate_metric(matrix_metric(table))
    assert report.passed
    assert not report.exhaustive
    assert report.samples == 1000


def test_validate_euclidean_sampled():
    pool = synthetic_pool(200, dimension=3)
    report = validate_metric(euclidean_metric(), points=pool)
    assert report.passed
    assert not report.exhaustive


def test_validate_euclidean_needs_a_pool():
    for pool in (None, [], [(0.0, 1.0), (float("nan"), 0.0)], [(float("inf"), 0.0)]):
        with pytest.raises(ValueError, match="pool"):
            validate_metric(euclidean_metric(), points=pool)


def test_validate_euclidean_with_point_pool():
    pool = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]
    report = validate_metric(euclidean_metric(), points=pool)
    assert report.passed


def test_validate_reports_are_reproducible():
    pool = synthetic_pool(64, dimension=2, seed=5)
    a = validate_metric(euclidean_metric(), points=pool)
    b = validate_metric(euclidean_metric(), points=pool.copy())
    assert a == b


def test_triangle_slack_scales_with_magnitude():
    # Rounding in d(p,r) grows with the coordinates; an absolute slack reported
    # a triangle violation for these points of a Euclidean space.
    rng = random.Random(0)
    a = [(x, 0.3 * x) for x in (rng.uniform(1e8, 3e8) for _ in range(40))]
    pool = a + [(x, y + 7.0) for x, y in a]
    assert validate_metric(euclidean_metric(), points=pool).passed


@st.composite
def point_triples(draw):
    dim = draw(st.integers(1, 64))
    coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    pt = st.tuples(*[coord] * dim)
    return draw(pt), draw(pt), draw(pt)


@given(point_triples())
def test_euclidean_axioms_hold(pqr):
    p, q, r = pqr
    m = euclidean_metric()
    assert distance(m, p, q) == distance(m, q, p)
    assert distance(m, p, p) == 0.0
    assert distance(m, p, r) <= distance(m, p, q) + distance(m, q, r) + 1e-9


@given(point_triples())
def test_scalar_and_vectorized_paths_agree_bitwise(pqr):
    p, q, r = pqr
    m = euclidean_metric()
    table = pairwise_distances(m, [p, r], [q, p])
    assert table[0, 0] == distance(m, p, q)
    assert table[1, 1] == distance(m, r, p)
    assert paired_distances(m, [p, r], [q, p]).tolist() == [table[0, 0], table[1, 1]]


def test_cross_table_is_bitwise_the_in_order_sum_reference():
    # Both forms must add the squares in axis order, one accumulator for the
    # whole sum.  Magnitudes spread over six decades, so any other order
    # (numpy's pairwise sum splits into eight lanes from d = 8 and into halves
    # above d = 128) rounds differently somewhere.
    rng = np.random.default_rng(7)
    m = euclidean_metric()
    for d in [*range(1, 201), 257, 600, 1100]:
        a = rng.standard_normal((5, d)) * 10.0 ** rng.uniform(-3, 3, (5, d))
        b = rng.standard_normal((4, d)) * 10.0 ** rng.uniform(-3, 3, (4, d))
        diff = a[:, None, :] - b[None, :, :]
        acc = np.zeros((5, 4))
        for k in range(d):
            acc = acc + diff[..., k] * diff[..., k]
        reference = np.sqrt(acc)
        table = pairwise_distances(m, a, b)
        paired = paired_distances(m, np.repeat(a, 4, axis=0), np.tile(b, (5, 1))).reshape(5, 4)
        assert table.tobytes() == reference.tobytes(), d
        assert paired.tobytes() == reference.tobytes(), d


@pytest.mark.parametrize("d", [3, 8, 16, 64, 200])
def test_cross_table_holds_two_tables_beyond_its_inputs(d):
    # The kernel keeps its sum and one scratch buffer, both (rows, cols).
    rng = np.random.default_rng(d)
    a, b = rng.standard_normal((200, d)), rng.standard_normal((300, d))
    tracemalloc.start()
    try:
        table = pairwise_distances(euclidean_metric(), a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (200, 300)
    assert peak < 2.5 * table.nbytes, peak / table.nbytes


def test_cross_table_of_empty_sides():
    m = euclidean_metric()
    assert pairwise_distances(m, np.zeros((0, 3)), np.ones((2, 3))).shape == (0, 2)
    assert pairwise_distances(m, np.zeros((2, 0)), np.ones((3, 0))).tolist() == [[0.0] * 3] * 2


def test_matrix_is_kept_only_when_read_only_and_owned():
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    kept = Metric(EXPLICIT_MATRIX, table)
    assert kept.matrix is not table and table.flags.writeable  # a caller's array is never frozen
    table.flags.writeable = False
    assert Metric(EXPLICIT_MATRIX, table).matrix is table
    for other in (table[:], table.astype(np.float32), table.astype(np.int64)):
        other.flags.writeable = False
        copied = Metric(EXPLICIT_MATRIX, other).matrix
        assert copied is not other and copied.dtype == np.float64 and not copied.flags.writeable


@given(st.integers(2, 12), st.integers(0, 2**30))
def test_embedded_integer_tables_validate(n, salt):
    # L1 distances of integer points always form a metric
    coords = [(salt + i * i) % 97 for i in range(n)]
    table = [[float(abs(x - y)) for y in coords] for x in coords]
    # avoid duplicate-derived zero rows tripping nothing: zeros off-diagonal are
    # legal for the metric axioms themselves
    assert validate_metric(matrix_metric(table)).passed


def test_triangle_sums_beyond_float_range_are_inf():
    # d(i,k) + d(k,j) overflows to inf, which bounds every entry as the exact
    # sum does: no warning and no violation, exhaustive or sampled.
    for n in (4, 210):
        table = [[0.0 if i == j else 1e308 for j in range(n)] for i in range(n)]
        table[0][1] = table[1][0] = 1.0
        report = validate_metric(matrix_metric(table))
        assert report.exhaustive == (n == 4)
        assert report.passed
    table = [[0.0, 1.0, 1e308], [1.0, 0.0, 1.0], [1e308, 1.0, 0.0]]
    assert validate_metric(matrix_metric(table)).check("triangle").witness == (0, 2, 1)

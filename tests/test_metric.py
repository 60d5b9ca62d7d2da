import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bestprox import (
    EUCLIDEAN,
    EXPLICIT_MATRIX,
    Metric,
    distance,
    euclidean_metric,
    matrix_metric,
    paired_distances,
    pairwise_distances,
    validate_metric,
)


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


def test_distance_index_out_of_range():
    m = matrix_metric([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="out of range"):
        distance(m, 0, 2)


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


def test_validate_flags_asymmetry():
    report = validate_metric(matrix_metric([[0.0, 1.0], [2.0, 0.0]]))
    assert not report.passed
    row = report.check("symmetry")
    assert not row.passed
    assert row.witness == (0, 1)


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


def test_validate_flags_nonzero_diagonal():
    report = validate_metric(matrix_metric([[1.0]]))
    row = report.check("identity")
    assert not row.passed
    assert row.witness == (0,)


def test_validate_flags_negative_entry():
    report = validate_metric(matrix_metric([[0.0, -1.0], [-1.0, 0.0]]))
    assert report.check("nonnegativity").witness == (0, 1)


def test_validate_large_matrix_is_sampled():
    n = 201
    table = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
    report = validate_metric(matrix_metric(table), sample_budget=500)
    assert report.passed
    assert not report.exhaustive
    assert report.samples == 500


def test_validate_euclidean_sampled():
    report = validate_metric(euclidean_metric(), sample_budget=200, dimension=3)
    assert report.passed
    assert not report.exhaustive


def test_validate_euclidean_with_point_pool():
    pool = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]
    report = validate_metric(euclidean_metric(), sample_budget=50, points=pool)
    assert report.passed


def test_validate_reports_are_reproducible():
    a = validate_metric(euclidean_metric(), sample_budget=64, seed=5)
    b = validate_metric(euclidean_metric(), sample_budget=64, seed=5)
    assert a == b


def test_triangle_slack_scales_with_magnitude():
    # Rounding in d(p,r) grows with the coordinates; an absolute slack reported
    # a triangle violation for these points of a Euclidean space.
    rng = random.Random(0)
    a = [(x, 0.3 * x) for x in (rng.uniform(1e8, 3e8) for _ in range(40))]
    pool = a + [(x, y + 7.0) for x, y in a]
    assert validate_metric(euclidean_metric(), points=pool).passed


def test_validate_rejects_zero_budget():
    with pytest.raises(ValueError):
        validate_metric(euclidean_metric(), sample_budget=0)


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


@given(st.integers(2, 12), st.integers(0, 2**30))
def test_embedded_integer_tables_validate(n, salt):
    # L1 distances of integer points always form a metric
    coords = [(salt + i * i) % 97 for i in range(n)]
    table = [[float(abs(x - y)) for y in coords] for x in coords]
    # avoid duplicate-derived zero rows tripping nothing: zeros off-diagonal are
    # legal for the metric axioms themselves
    assert validate_metric(matrix_metric(table)).passed

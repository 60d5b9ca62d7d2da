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
    proximal_subsets,
    validate_metric,
)
from bestprox.geometry import SetPair
from bestprox.metric import EXHAUSTIVE, EXHAUSTIVE_LIMIT, KERNEL, SAMPLED, SAMPLES, TRIANGLE_SLACK, triangle_violation


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
    assert report.triangle_by == EXHAUSTIVE


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
    assert report.triangle_by == (EXHAUSTIVE if n <= EXHAUSTIVE_LIMIT else SAMPLED)
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
    assert report.triangle_by == SAMPLED
    assert validate_metric(matrix_metric(table)) == report  # seed 0: the same triples every time


def test_sampled_table_triangle_names_the_first_violating_draw():
    # The line on LARGE points with one pair pushed apart.  The draws are
    # replayed here, p, q, r each by random.Random(0).choice(range(n)), and
    # scanned one by one: the first that breaks the triangle is the witness,
    # as (p, r, q).
    rng = random.Random(0)
    draws = [tuple(rng.choice(range(LARGE)) for _ in "pqr") for _ in range(SAMPLES)]
    table = line_table(LARGE)
    i, _, k = draws[SAMPLES // 2]
    table[i, k] = table[k, i] = 3.0 * LARGE
    first = next((p, r, q) for p, q, r in draws if table[p, r] > table[p, q] + table[q, r])
    row = validate_metric(matrix_metric(table)).check("triangle")
    assert (row.passed, row.witness) == (False, first)
    assert all(type(i) is int for i in row.witness)


def pair_geometry(a, b):
    """The pair geometry of coordinate sets ``a`` and ``b``."""
    return proximal_subsets(SetPair(euclidean_metric(), a, b))


def test_validate_euclidean_rests_on_the_kernel():
    # d(A,B) = 1 > 0: no pair of A and B is at distance 0, so nothing is
    # sampled or scanned, and every axiom holds.
    geom = pair_geometry([(0.0, 0.0), (0.0, 1.0)], [(1.0, 0.0), (1.0, 5.0)])
    report = validate_metric(euclidean_metric(), geom)
    assert [(c.name, c.passed) for c in report.checks] == [(name, True) for name in ("symmetry", "identity", "nonnegativity", "triangle")]
    assert report.triangle_by == KERNEL
    with pytest.raises(ValueError, match="pair geometry"):
        validate_metric(euclidean_metric())


@pytest.mark.parametrize(
    "a, b, witness",
    [
        # (1e-200)**2 underflows to 0: A[0] and B[0] differ, at distance 0.
        ([(0.0, 0.0), (0.0, 3.0)], [(1e-200, 0.0), (2.0, 3.0)], (0, 0)),
        # A shared point (-0.0 equals 0.0) is one point; the first distinct
        # pair at distance 0, in B order, is A[2] with B[1].
        ([(0.0, 0.0), (7.0, 0.0), (5.0, 1e-200)], [(-0.0, 0.0), (5.0, 0.0), (7.0, 1e-300)], (2, 1)),
        ([(0.0, 0.0), (7.0, 0.0)], [(-0.0, 0.0), (9.0, 9.0)], None),
    ],
)
def test_identity_across_a_and_b_fails_at_distinct_points_at_distance_0(a, b, witness):
    geom = pair_geometry(a, b)
    assert geom.pair_distance == 0.0
    report = validate_metric(euclidean_metric(), geom)
    assert [c.name for c in report.failures] == ([] if witness is None else ["identity"])
    if witness is not None:
        row = report.check("identity")
        assert row.witness == witness and all(type(i) is int for i in witness)
        assert row.detail == f"d(A[{witness[0]}], B[{witness[1]}]) = 0.0 between distinct points"


def test_triangle_slack_scales_with_magnitude():
    # Rounding in d(p,r) grows with the coordinates: on every triple of these
    # points an absolute slack of TRIANGLE_SLACK reports a violation, and the
    # relative rule the orbit-triangle row uses reports none.
    rng = random.Random(0)
    a = [(x, 0.3 * x) for x in (rng.uniform(1e8, 3e8) for _ in range(40))]
    pts = a + [(x, y + 7.0) for x, y in a]
    m = euclidean_metric()
    d = pairwise_distances(m, pts, pts)
    i, j, k = (axis.ravel() for axis in np.indices((len(pts),) * 3))
    dpr, dpq, dqr = d[i, k], d[i, j], d[j, k]
    assert (dpr > dpq + dqr + TRIANGLE_SLACK).any()
    assert triangle_violation(m, dpr, dpq, dqr) is None


# Magnitudes from about 1e150, whose squares stay below the float range even
# summed over 64 axes, down to values whose squares underflow.
COORDINATES = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
    st.floats(min_value=-1e-150, max_value=1e-150, allow_nan=False),
)


@st.composite
def point_triples(draw, coord=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)):
    dim = draw(st.integers(1, 64))
    pt = st.tuples(*[coord] * dim)
    return draw(pt), draw(pt), draw(pt)


@given(point_triples(COORDINATES))
def test_euclidean_axioms_hold(pqr):
    # What the metric row states on coordinates without a sample: exact
    # symmetry, d(p,p) = 0, d >= 0, and the triangle within TRIANGLE_SLACK.
    p, q, r = pqr
    m = euclidean_metric()
    dpq, dqp, dpr, dqr = paired_distances(m, [p, q, p, q], [q, p, r, r])
    assert dpq == dqp
    assert paired_distances(m, pqr, pqr).tolist() == [0.0] * 3
    assert min(dpq, dpr, dqr) >= 0.0
    assert triangle_violation(m, np.array([dpr]), np.array([dpq]), np.array([dqr])) is None


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
        assert report.triangle_by == (EXHAUSTIVE if n == 4 else SAMPLED)
        assert report.passed
    table = [[0.0, 1.0, 1e308], [1.0, 0.0, 1.0], [1e308, 1.0, 0.0]]
    assert validate_metric(matrix_metric(table)).check("triangle").witness == (0, 2, 1)

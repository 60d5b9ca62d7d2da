import math
import tracemalloc

import numpy as np
import pytest

from bestprox import (
    EUCLIDEAN,
    EXPLICIT_MATRIX,
    GeneratorConfig,
    assess_instance,
    banach_iterate,
    brute_force_solve,
    build_induced_map,
    certify_contraction,
    dumps_instance,
    generate_instance,
    proximal_subsets,
    validate_metric,
)


def test_brute_force_geometric(geometric_instance):
    inst = geometric_instance
    # oracle of the oracle: evaluate the three residual distances by hand
    values = [math.dist(inst.pair.a[i], inst.pair.b[inst.t_map.image[i]]) for i in range(3)]
    assert values == [1.0, math.dist((0.0, 0.25), (1.0, 0.0)), math.dist((0.0, 1.0), (1.0, 0.25))]

    sol = brute_force_solve(inst.pair, inst.t_map, eps_prox=inst.eps_prox)
    assert sol.min_value == 1.0
    assert sol.argmin_indices == (0,)
    assert sol.argmin_points.tolist() == [[0.0, 0.0]]
    assert sol.pair_distance == 1.0
    assert sol.is_best_proximity


def test_brute_force_attains_pair_distance_in_9d():
    # d(A,B) comes from the cross table and d(a, T(a)) from the paired rows;
    # with eps_prox = 0 the oracle finds the best proximity point only if the
    # two agree bitwise.  A = {a} plus far filler, B = {a + v}, T = const.
    from bestprox import Metric, make_instance

    rng = np.random.default_rng(9)
    for _ in range(200):
        a = rng.normal(scale=10.0, size=9)
        b = a + rng.normal(size=9)
        filler = a + 1e3 + rng.normal(size=(3, 9))
        inst = make_instance(
            Metric(EUCLIDEAN), [a.tolist()] + filler.tolist(), [b.tolist()], [0] * 4, eps_prox=0.0
        )
        sol = brute_force_solve(inst.pair, inst.t_map, eps_prox=0.0)
        assert sol.argmin_indices == (0,)
        assert sol.min_value == sol.pair_distance
        assert sol.is_best_proximity


def test_brute_force_no_attaining_point(crossed_instance):
    sol = brute_force_solve(crossed_instance.pair, crossed_instance.t_map)
    assert sol.min_value == math.sqrt(2.0)
    assert sol.pair_distance == 1.0
    assert not sol.is_best_proximity


def test_brute_force_default_eps_prox_is_the_metric_s():
    # d(a, T(a)) exceeds d(A,B) by rounding alone: sqrt(0.5) two ways.  Under
    # the metric's default eps_prox, as proximal_subsets takes it, a is a best
    # proximity point, as it is under the instance's and to the checklist.
    from bestprox import Metric, make_instance

    inst = make_instance(Metric(EUCLIDEAN), [(0.0, 0.0)], [(0.1, 0.7), (0.5, 0.5)], [1])
    sol = brute_force_solve(inst.pair, inst.t_map)
    assert 0 < sol.min_value - sol.pair_distance <= inst.eps_prox
    assert sol.is_best_proximity
    assert brute_force_solve(inst.pair, inst.t_map, eps_prox=inst.eps_prox).is_best_proximity
    assert assess_instance(inst).passed


def test_brute_force_singleton(narrow_a0_instance):
    sub = narrow_a0_instance
    sol = brute_force_solve(sub.pair, sub.t_map, eps_prox=sub.eps_prox)
    assert 0 in sol.argmin_indices


def test_brute_force_ties_lowest_index_first(boundary_instance):
    # indices 0 and 1 both map to (1,0): residuals 1 and sqrt(1+1/4); only one min.
    # Build an explicit tie instead: two points mirroring each other.
    from bestprox import Metric, make_instance

    inst = make_instance(
        Metric(EUCLIDEAN),
        [(0.0, 0.0), (0.0, 2.0)],
        [(1.0, 0.0), (1.0, 2.0)],
        [0, 1],
    )
    sol = brute_force_solve(inst.pair, inst.t_map)
    assert sol.argmin_indices == (0, 1)


@pytest.mark.parametrize("kind", [EUCLIDEAN, EXPLICIT_MATRIX])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.85])
@pytest.mark.parametrize("seed", [0, 3])
def test_generator_soundness(kind, alpha, seed):
    cfg = GeneratorConfig(
        seed=seed, space_kind=kind, a_size=60, alpha_target=alpha, decoy_count=3
    )
    inst = generate_instance(cfg)

    pool = None
    if kind == EUCLIDEAN:
        pool = list(inst.pair.a) + list(inst.pair.b)
    assert validate_metric(inst.metric, points=pool).passed

    geom = proximal_subsets(inst.pair, inst.eps_prox)
    assert len(geom.a0) and len(geom.b0)
    for i in geom.a0:
        assert len(geom.partners_in_a(inst.t_map.image[i])) == 1  # T(A0) in B0, uniquely

    induced = build_induced_map(geom, inst.t_map)
    cert = certify_contraction(induced)
    assert cert.alpha_hat <= alpha + 1e-12

    res = banach_iterate(induced, geom.a0[0], certificate=cert)
    sol = brute_force_solve(inst.pair, inst.t_map, eps_prox=inst.eps_prox)
    assert res.index in sol.argmin_indices
    assert abs(sol.min_value - geom.pair_distance) <= inst.eps_prox


def test_generator_decoys_stay_out_of_b0():
    cfg = GeneratorConfig(seed=5, alpha_target=0.4, a_size=10, decoy_count=4)
    inst = generate_instance(cfg)
    geom = proximal_subsets(inst.pair, inst.eps_prox)
    n_mirror = len(inst.pair.b) - 4
    assert len(inst.pair.a) == n_mirror
    assert max(geom.b0) < n_mirror  # decoys occupy the tail of B


def test_generator_b_size_floor():
    inst = generate_instance(GeneratorConfig(seed=1, a_size=5, b_size=20, decoy_count=0))
    assert len(inst.pair.b) == 20


def test_generator_constant_map_converges_fast():
    inst = generate_instance(GeneratorConfig(seed=9, alpha_target=0.0, a_size=8))
    geom = proximal_subsets(inst.pair, inst.eps_prox)
    induced = build_induced_map(geom, inst.t_map)
    assert len(set(induced.table[geom.a0].tolist())) == 1  # constant on A0
    for start in geom.a0:
        assert banach_iterate(induced, start).iterations <= 2


def test_generator_respects_a_size_cap():
    inst = generate_instance(GeneratorConfig(seed=2, a_size=4, alpha_target=0.9))
    assert len(inst.pair.a) == 4
    single = generate_instance(GeneratorConfig(seed=2, a_size=1, alpha_target=0.9))
    assert len(single.pair.a) == 1
    # A one-point table ladder: its lone point is a best proximity point.
    table = generate_instance(GeneratorConfig(seed=2, space_kind=EXPLICIT_MATRIX, a_size=1, alpha_target=0.9))
    assert (len(table.pair.a), len(table.pair.b)) == (1, 3)
    geom = proximal_subsets(table.pair, table.eps_prox)
    result = banach_iterate(build_induced_map(geom, table.t_map), 0)
    assert (result.index, result.trace.stop_reason, result.residual) == (0, "converged", 0.0)
    assert brute_force_solve(table.pair, table.t_map, eps_prox=table.eps_prox).is_best_proximity


def test_generator_deterministic_byte_for_byte():
    cfg = GeneratorConfig(seed=42, alpha_target=0.7, a_size=30, decoy_count=2)
    a = dumps_instance(generate_instance(cfg))
    b = dumps_instance(generate_instance(cfg))
    assert a == b
    other = dumps_instance(generate_instance(GeneratorConfig(seed=43, alpha_target=0.7)))
    assert a != other


def test_generator_table_peaks_near_two_tables():
    # Each axis's |difference| table goes through one scratch table into the
    # float64 table, which Metric keeps without a copy: 2.14x the table's
    # bytes.  An (n, n, 2) int64 temporary took 4.01x.
    tracemalloc.start()
    try:
        inst = generate_instance(GeneratorConfig(space_kind=EXPLICIT_MATRIX, decoy_count=1500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = inst.metric.matrix
    assert table.shape == (1524, 1524) and not table.flags.writeable
    assert peak < 2.5 * table.nbytes, peak / table.nbytes


def test_generator_matrix_tables_are_exact():
    inst = generate_instance(
        GeneratorConfig(seed=11, space_kind=EXPLICIT_MATRIX, alpha_target=0.5, a_size=12)
    )
    report = validate_metric(inst.metric)
    assert report.exhaustive and report.passed
    # alpha is quantized to sixteenths and certified exactly
    geom = proximal_subsets(inst.pair, inst.eps_prox)
    cert = certify_contraction(build_induced_map(geom, inst.t_map))
    assert cert.alpha_hat == 0.5


@pytest.mark.parametrize("kind", [EUCLIDEAN, EXPLICIT_MATRIX])
@pytest.mark.parametrize("gap", [0.5, 2.5])
def test_generator_honors_slab_gap(kind, gap):
    cfg = GeneratorConfig(seed=3, space_kind=kind, a_size=50, alpha_target=0.8, slab_gap=gap)
    inst = generate_instance(cfg)
    geom = proximal_subsets(inst.pair, inst.eps_prox)
    assert geom.pair_distance == gap
    cert = certify_contraction(build_induced_map(geom, inst.t_map))
    assert cert.alpha_hat <= 0.8 + 1e-12


@pytest.mark.parametrize("kind", [EUCLIDEAN, EXPLICIT_MATRIX])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9, 0.99])
def test_generator_keeps_its_promise_or_refuses_the_gap(kind, alpha):
    # A gap is either refused, naming slab_gap, or yields an instance that
    # passes its own certificate with the origin (the last point of A) as the
    # unique argmin.  A table entry at 2**53 grid units or more would round,
    # and the triangle inequality could then fail.
    gaps = [0.5, 1.0] + [m * 10.0**k for k in range(1, 16) for m in (1, 3)]
    for pos, gap in enumerate(gaps):
        cfg = GeneratorConfig(seed=pos % 4, space_kind=kind, alpha_target=alpha, slab_gap=gap)
        try:
            inst = generate_instance(cfg)
        except ValueError as err:
            assert "slab_gap" in str(err) and gap > 1.0, (gap, err)
            continue
        assert assess_instance(inst).passed, gap
        sol = brute_force_solve(inst.pair, inst.t_map, eps_prox=inst.eps_prox)
        assert sol.is_best_proximity and sol.argmin_indices == (len(inst.pair.a) - 1,), gap


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(alpha_target=1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(a_size=0)
    with pytest.raises(ValueError):
        GeneratorConfig(slab_gap=0.0)
    with pytest.raises(ValueError):
        GeneratorConfig(space_kind="hilbert")
    with pytest.raises(ValueError):
        GeneratorConfig(decoy_count=-1)

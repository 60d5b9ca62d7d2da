import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from conftest import dense_max_ratio, each_block_size, scope_map, tie_heavy_case, with_self_map

from bestprox.engine import _max_ratio
from bestprox.metric import frozen_array
from bestprox import (
    CONTRACTION,
    CYCLE_DETECTED,
    NOT_CONTRACTION,
    GeneratorConfig,
    HypothesisViolation,
    MaxIterationsExceeded,
    NonUniquePartner,
    ProximityMap,
    SetPair,
    SolverError,
    StartNotInA0,
    banach_iterate,
    build_induced_map,
    certify_contraction,
    classify_partners,
    direct_iterate,
    distance,
    euclidean_metric,
    generate_instance,
    make_instance,
    matrix_metric,
    paired_distances,
    proximal_subsets,
    validate_metric,
    verify_result,
)


def geom_of(inst):
    return proximal_subsets(inst.pair, inst.eps_prox)


def brute_alpha(points, table):
    """Independent certificate oracle: plain pair loop over the table."""
    best, witness = 0.0, None
    for x1, x2 in itertools.combinations(sorted(table), 2):
        ratio = math.dist(points[table[x1]], points[table[x2]]) / math.dist(points[x1], points[x2])
        if ratio > best:
            best, witness = ratio, (x1, x2)
    return best, witness


def defining_defect(induced) -> float:
    """Reference: max over A0 of | d(S(x), T(x)) - d(A,B) |, the induced-map residual."""
    geom = induced.geometry
    sp = geom.pair
    partners = sp.a[induced.table[geom.a0]]
    images = sp.b[induced.t_map.image[geom.a0]]
    d = paired_distances(sp.metric, partners, images)
    return float(np.abs(d - geom.pair_distance).max(initial=0.0))


# --- induced-map construction -------------------------------------------------


def test_build_induced_map_geometric(geometric_instance):
    induced = build_induced_map(geom_of(geometric_instance), geometric_instance.t_map)
    assert scope_map(induced) == {0: 0, 1: 0, 2: 1}
    assert defining_defect(induced) == 0.0


def test_build_induced_map_boundary(boundary_instance):
    induced = build_induced_map(geom_of(boundary_instance), boundary_instance.t_map)
    # rung-down: (0,1) -> (0,1/2) -> (0,0) -> (0,0)
    assert scope_map(induced) == {0: 0, 1: 0, 2: 1}


def test_build_halving_raises_hypothesis_violation(halving_instance):
    with pytest.raises(HypothesisViolation) as exc:
        build_induced_map(geom_of(halving_instance), halving_instance.t_map)
    assert exc.value.a_index == 1  # (0, 1/2), whose image (1, 1/4) is unpartnered
    assert exc.value.b_index == 1


def test_build_nonunique_raises_with_both_witnesses(nonunique_instance):
    with pytest.raises(NonUniquePartner) as exc:
        build_induced_map(geom_of(nonunique_instance), nonunique_instance.t_map)
    assert exc.value.partners == (0, 1)


# --- contraction certification ------------------------------------------------


def test_certify_geometric_is_one_third(geometric_instance):
    induced = build_induced_map(geom_of(geometric_instance), geometric_instance.t_map)
    oracle_alpha, oracle_witness = brute_alpha(geometric_instance.pair.a, scope_map(induced))
    assert oracle_alpha == 0.25 / 0.75  # ratios {1/3, 1/4, 0}

    cert = certify_contraction(induced)
    assert cert.alpha_hat == oracle_alpha
    assert cert.witness == oracle_witness == (1, 2)
    assert cert.pair_count == 3
    assert cert.verdict == CONTRACTION


def test_certify_boundary_ratio_exactly_one(boundary_instance):
    induced = build_induced_map(geom_of(boundary_instance), boundary_instance.t_map)
    oracle_alpha, oracle_witness = brute_alpha(boundary_instance.pair.a, scope_map(induced))
    assert oracle_alpha == 1.0  # the halved rung moves as far as its preimages

    cert = certify_contraction(induced)
    assert cert.alpha_hat == 1.0
    assert cert.witness == oracle_witness == (1, 2)
    assert cert.verdict == NOT_CONTRACTION


def test_certify_singleton_a0(narrow_a0_instance):
    induced = build_induced_map(geom_of(narrow_a0_instance), narrow_a0_instance.t_map)
    cert = certify_contraction(induced)
    assert cert.alpha_hat == 0.0
    assert cert.witness is None
    assert cert.pair_count == 0
    assert cert.verdict == CONTRACTION


def test_certify_witness_reproduces_alpha(geometric_instance):
    inst = geometric_instance
    induced = build_induced_map(geom_of(inst), inst.t_map)
    cert = certify_contraction(induced)
    w1, w2 = cert.witness
    ratio = distance(
        inst.metric, inst.pair.a[induced.table[w1]], inst.pair.a[induced.table[w2]]
    ) / distance(inst.metric, inst.pair.a[w1], inst.pair.a[w2])
    assert abs(ratio - cert.alpha_hat) <= math.ulp(cert.alpha_hat)


def test_certify_ratio_beyond_float_range_is_inf():
    # S maps A-points 1e-300 apart to A-points 1e308 apart: the ratio
    # overflows, which reads inf without a warning.
    n = 8
    table = [[0.0 if i == j else 5.0 for j in range(n)] for i in range(n)]
    for i, j, v in ((0, 4, 1.0), (1, 5, 1.0), (2, 6, 1.0), (3, 7, 1.0), (0, 1, 1e-300), (2, 3, 1e308)):
        table[i][j] = table[j][i] = v
    inst = make_instance(matrix_metric(table), [0, 1, 2, 3], [4, 5, 6, 7], [2, 3, 2, 3])
    induced = build_induced_map(geom_of(inst), inst.t_map)
    for wide in (False, True):
        cert = certify_contraction(induced, wide=wide)
        assert (cert.alpha_hat, cert.witness, cert.verdict) == (math.inf, (0, 1), NOT_CONTRACTION)


def test_certify_wide_scope(boundary_instance, narrow_a0_instance):
    induced = build_induced_map(geom_of(boundary_instance), boundary_instance.t_map)
    wide = certify_contraction(induced, wide=True)
    assert wide.scope == "full"
    assert wide.alpha_hat == 1.0  # A0 = A here, same pairs

    induced2 = build_induced_map(geom_of(narrow_a0_instance), narrow_a0_instance.t_map)
    wide2 = certify_contraction(induced2, wide=True)
    assert wide2.alpha_hat == 0.0  # only one partnered point, nothing to compare


def test_full_scope_names_its_witness_at_alpha_hat_zero():
    # S sends both points of A0 = A to A[0], so the one ratio is 0.  Both
    # scopes cover the same pair and name it, as the certificate promises.
    inst = make_instance(euclidean_metric(), [(0.0, 0.0), (0.0, 1.0)], [(1.0, 0.0), (1.0, 1.0)], [0, 0])
    induced = build_induced_map(geom_of(inst), inst.t_map)
    for wide in (False, True):
        cert = certify_contraction(induced, wide=wide)
        assert (cert.alpha_hat, cert.witness, cert.pair_count) == (0.0, (0, 1), 1), wide


def test_certify_wide_flags_multi_partner_as_infinite(nonunique_instance):
    geom = geom_of(nonunique_instance)
    # build_induced_map refuses the ambiguity; classify_partners keeps it
    induced = classify_partners(geom, nonunique_instance.t_map)
    wide = certify_contraction(induced, wide=True)
    assert math.isinf(wide.alpha_hat)
    assert wide.verdict == NOT_CONTRACTION


def wide_scan(geom, t_map):
    """Reference for the full-scope certificate: the pairwise loop over every
    partnered point of A, stopping at the first point with several partners."""
    pts, metric = geom.pair.a, geom.pair.metric
    partnered = {
        i: geom.partners_in_a(t_map.image[i])
        for i in range(len(pts))
        if geom.partners_in_a(t_map.image[i])
    }
    alpha, witness, pairs = -math.inf, None, 0
    idxs = sorted(partnered)
    for pos, i in enumerate(idxs):
        if len(partnered[i]) > 1:
            return math.inf, (i, i), pairs
        for j in idxs[pos + 1 :]:
            den = distance(metric, pts[i], pts[j])
            for u in partnered[i]:
                for v in partnered[j]:
                    ratio = distance(metric, pts[u], pts[v]) / den
                    pairs += 1
                    if ratio > alpha:
                        alpha, witness = ratio, (i, j)
    return (alpha, witness, pairs) if pairs else (0.0, None, 0)


def grid_case(rng):
    """A and B drawn independently from a 4 x 4 integer grid (they may share
    points), with a random T and eps_prox.  Returns the geometry and T."""
    grid = [(float(x), float(y)) for x in range(4) for y in range(4)]
    a = rng.sample(grid, rng.randint(2, 9))
    b = rng.sample(grid, rng.randint(1, 6))
    sp = SetPair(euclidean_metric(), a, b)
    t_map = ProximityMap(tuple(rng.randrange(len(b)) for _ in a))
    return proximal_subsets(sp, rng.choice([0.0, 0.5, 1.5, 10.0])), t_map


def test_certify_wide_matches_pairwise_scan():
    # Euclidean grids and taxicab tables; on each, every outcome occurs: an
    # ambiguous image, a maximum ratio with its witness, and fewer than two
    # partnered points, so no pair and no witness.
    for kind in ("grid", "matrix"):
        outcomes = set()
        for seed in range(60):
            rng = random.Random(seed)
            geom, t_map = grid_case(rng) if kind == "grid" else tie_heavy_case(kind, rng)
            cert = certify_contraction(classify_partners(geom, t_map), wide=True)
            expected = wide_scan(geom, t_map)
            assert (cert.alpha_hat, cert.witness, cert.pair_count) == expected, (kind, seed)
            outcomes.add((math.isinf(expected[0]), expected[1] is None))
        assert outcomes == {(True, False), (False, False), (False, True)}, kind


def tie_heavy_induced(kind, rng):
    """A tie-heavy case whose S maps A0 onto at most three points of A0, so
    that many ratios tie (all of them are 0 when S is constant)."""
    geom, t_map = tie_heavy_case(kind, rng)
    targets = rng.sample(geom.a0.tolist(), min(len(geom.a0), rng.randint(1, 3)))
    return with_self_map(geom, t_map, {i: rng.choice(targets) for i in geom.a0.tolist()})


@pytest.mark.parametrize("kind", ["grid", "matrix"])
def test_row_blocked_certificate_matches_dense_reference(kind):
    rng = random.Random(kind)
    seen = set()
    for _ in range(80):
        induced = tie_heavy_induced(kind, rng)
        sp, a0, count = induced.geometry.pair, induced.geometry.a0, induced.count
        keys = {"a0": a0, "full": np.flatnonzero(count)}
        expected = {scope: dense_max_ratio(sp, scope_map(induced, keys[scope])) for scope in keys}
        seen.add((len(a0) > 2, expected["a0"][0] == 0.0))
        for rows in each_block_size():
            for k in keys.values():
                assert _max_ratio(sp, k, induced.table) == dense_max_ratio(sp, scope_map(induced, k)), rows
            for cert in (certify_contraction(induced), certify_contraction(induced, wide=True)):
                if cert.scope == "full" and count.max() > 1:
                    continue  # the ambiguity path scans nothing
                assert (cert.alpha_hat, cert.witness, cert.pair_count) == expected[cert.scope], rows
    # Both tie shapes occur: all ratios 0 on many keys, and ties among nonzero ratios.
    assert {(True, True), (True, False)} <= seen


def test_certificate_memory_stays_within_the_block_budget():
    # 3000 keys whose images all coincide: every ratio is 0 and the witness
    # is the first pair.  Two dense 3000 x 3000 tables and a triangle index
    # peaked at 412 MB; the tiled scan holds one tile at a time.
    n = 3000
    sp = SetPair(euclidean_metric(), [(0.0, float(k)) for k in range(n)], [(1.0, 0.0)])
    tracemalloc.start()
    try:
        result = _max_ratio(sp, np.arange(n), np.zeros(n, np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0.0, (0, 1), n * (n - 1) // 2)
    assert peak < 8 * 2**20, peak  # a tile holds 340 KiB; the rest is the scan's own arrays


# --- Banach iteration -----------------------------------------------------------


def test_banach_geometric_converges(geometric_instance):
    induced = build_induced_map(geom_of(geometric_instance), geometric_instance.t_map)
    res = banach_iterate(induced, 2, certificate=certify_contraction(induced))
    assert res.point.tolist() == [0.0, 0.0]
    assert res.iterations <= 3
    assert res.residual == 0.0
    assert res.trace.indices == (2, 1, 0, 0)
    assert res.trace.stop_reason == "converged"
    assert res.guaranteed


def test_banach_fixed_start_takes_one_evaluation(geometric_instance):
    induced = build_induced_map(geom_of(geometric_instance), geometric_instance.t_map)
    res = banach_iterate(induced, 0)
    assert res.iterations == 1
    assert res.index == 0
    assert res.trace.indices == (0, 0)


def test_banach_detects_two_cycle(swap_instance):
    geom = geom_of(swap_instance)
    induced = build_induced_map(geom, swap_instance.t_map)
    cert = certify_contraction(induced)
    assert cert.verdict == NOT_CONTRACTION
    res = banach_iterate(induced, 0)
    assert res.trace.stop_reason == CYCLE_DETECTED
    assert res.trace.indices == (0, 1, 0)
    assert not res.guaranteed


def test_certified_walks_end_at_the_exact_fixed_point(decimal_ladder_instance):
    # A walk has no tolerance: certified, each scheme runs on to the fixed
    # point A[3] and stops there, never at A[2], 0.01 short of it.
    inst = decimal_ladder_instance
    geom = geom_of(inst)
    induced = build_induced_map(geom, inst.t_map)
    cert = certify_contraction(induced)
    assert (cert.verdict, cert.alpha_hat) == (CONTRACTION, pytest.approx(1 / 9))
    walks = {
        "induced": lambda **kw: banach_iterate(induced, 0, certificate=cert, **kw),
        "direct": lambda **kw: direct_iterate(geom, inst.t_map, 0, certificate=cert, **kw),
    }
    for name, walk in walks.items():
        res = walk()
        assert (res.trace.indices, res.index, res.trace.stop_reason, res.guaranteed) == ((0, 1, 2, 3, 3), 3, "converged", True), name
        assert verify_result(res, geom, inst.t_map, tol=0.05, induced=induced).passed, name
        with pytest.raises(TypeError, match="tol"):
            walk(tol=0.05)


@pytest.mark.parametrize(
    "fixture, error, b_index",
    [("halving_instance", HypothesisViolation, 1), ("nonunique_instance", NonUniquePartner, 0)],
)
def test_banach_refuses_a_map_partial_on_a0(request, fixture, error, b_index):
    # classify_partners may return S partial on A0; iterating it would follow
    # a -1 entry as an index of A, so every start is refused, at the first
    # failing point of A0, as build_induced_map refuses the map.
    inst = request.getfixturevalue(fixture)
    geom = geom_of(inst)
    partial = classify_partners(geom, inst.t_map)
    for start in geom.a0.tolist():
        with pytest.raises(error) as err:
            banach_iterate(partial, start, certificate=certify_contraction(partial))
        assert (err.value.a_index, err.value.b_index) == (b_index, b_index)


@pytest.mark.parametrize("fixture", ["halving_instance", "nonunique_instance"])
def test_walks_check_start_and_budget_before_the_map(request, fixture):
    # S is partial on A0 here, yet a bad start or budget is named first, by
    # the same ValueError on both walks; only then is the map refused.
    inst = request.getfixturevalue(fixture)
    geom = geom_of(inst)
    partial = classify_partners(geom, inst.t_map)
    n = len(inst.pair.a)
    walks = {
        "induced": lambda x0, **kw: banach_iterate(partial, x0, **kw),
        "direct": lambda x0, **kw: direct_iterate(geom, ProximityMap([0]), x0, **kw),
    }
    for walk in walks.values():
        for x0 in (99, -1):
            with pytest.raises(ValueError, match=rf"^start index {x0} outside A \(size {n}\)$"):
                walk(x0)
        with pytest.raises(ValueError, match="^max_iter must be >= 1$"):
            walk(0, max_iter=0)
    with pytest.raises(ValueError, match="^map must be total on A"):
        walks["direct"](0)


def test_banach_rejects_start_outside_a0(narrow_a0_instance):
    induced = build_induced_map(geom_of(narrow_a0_instance), narrow_a0_instance.t_map)
    # A ValueError, as every other refusal of a start, naming the position.
    with pytest.raises(StartNotInA0, match="^start index 1 is not in A0$") as err:
        banach_iterate(induced, 1)
    assert isinstance(err.value, ValueError) and isinstance(err.value, SolverError) and err.value.start == 1
    with pytest.raises(ValueError):
        banach_iterate(induced, 99)
    with pytest.raises(ValueError):
        banach_iterate(induced, (7.0, 7.0))


def test_start_accepts_any_integer_but_bool(geometric_instance, swap_instance):
    for inst in (geometric_instance, swap_instance):  # one euclidean, one matrix space
        geom = geom_of(inst)
        induced = build_induced_map(geom, inst.t_map)
        cert = certify_contraction(induced)
        for start in (np.int64(1), np.int32(1), np.uint8(1)):
            assert banach_iterate(induced, start).trace.indices == banach_iterate(induced, 1).trace.indices
            assert (
                direct_iterate(geom, inst.t_map, start, certificate=cert).trace.indices
                == direct_iterate(geom, inst.t_map, 1, certificate=cert).trace.indices
            )
        with pytest.raises(ValueError, match="outside A"):
            banach_iterate(induced, np.int64(99))
        # A start is an A-position on either space kind: a point of A given
        # by its coordinates, here A[2] = (0, 1) of the euclidean one, is
        # refused by both walks.
        for start in (0.0, 1.5, True, np.bool_(True), (0.0,), (0.0, 1.0)):
            with pytest.raises(ValueError, match="must be an index of A"):
                banach_iterate(induced, start)
            with pytest.raises(ValueError, match="must be an index of A"):
                direct_iterate(geom, inst.t_map, start, certificate=cert)


def test_banach_budget_exhaustion_carries_trace(geometric_instance):
    induced = build_induced_map(geom_of(geometric_instance), geometric_instance.t_map)
    with pytest.raises(MaxIterationsExceeded) as exc:
        banach_iterate(induced, 2, max_iter=1)
    trace = exc.value.trace
    assert trace.indices == (2, 1)
    assert trace.stop_reason == "max-iterations"


def test_banach_validates_parameters(geometric_instance):
    induced = build_induced_map(geom_of(geometric_instance), geometric_instance.t_map)
    with pytest.raises(ValueError):
        banach_iterate(induced, 2, max_iter=0)


# --- direct iteration -----------------------------------------------------------


def test_direct_matches_banach_on_geometric(geometric_instance):
    geom = geom_of(geometric_instance)
    induced = build_induced_map(geom, geometric_instance.t_map)
    cert = certify_contraction(induced)
    left = banach_iterate(induced, 2, certificate=cert)
    right = direct_iterate(geom, geometric_instance.t_map, 2, certificate=cert)
    assert left.trace.indices == right.trace.indices
    assert left.trace.step_gaps == right.trace.step_gaps
    assert left.trace.a_priori_bounds == right.trace.a_priori_bounds


def test_direct_fixed_start(geometric_instance):
    geom = geom_of(geometric_instance)
    res = direct_iterate(geom, geometric_instance.t_map, 0)
    assert res.iterations == 1
    assert res.index == 0


def test_direct_halving_fails_at_offending_step(halving_instance):
    geom = geom_of(halving_instance)
    with pytest.raises(HypothesisViolation) as exc:
        direct_iterate(geom, halving_instance.t_map, 2)
    # one good step (0,1) -> (0,1/2), then the image (1,1/4) is unpartnered
    assert exc.value.partial_indices == (2, 1)
    assert exc.value.a_index == 1


def test_direct_nonunique_fails_immediately(nonunique_instance):
    geom = geom_of(nonunique_instance)
    with pytest.raises(NonUniquePartner) as exc:
        direct_iterate(geom, nonunique_instance.t_map, 0)
    assert exc.value.partial_indices == (0,)
    assert exc.value.partners == (0, 1)


def test_direct_ignores_tampered_partner_table(geometric_instance):
    inst = geometric_instance
    geom = geom_of(inst)
    cert = certify_contraction(build_induced_map(geom, inst.t_map))
    # T(A[2]) = B[1], whose true partner is A[1]; claim A[2] instead.
    assert geom.partners_in_a(1) == (1,)
    partners = geom.partners.copy()
    partners[geom.offsets[1]] = 2
    tampered = dataclasses.replace(geom, partners=partners)
    banach = banach_iterate(build_induced_map(tampered, inst.t_map), 2)
    direct = direct_iterate(tampered, inst.t_map, 2, certificate=cert)
    assert banach.trace.indices == (2, 2)
    assert direct.trace.indices == (2, 1, 0, 0)
    assert direct.trace.indices == direct_iterate(geom, inst.t_map, 2, certificate=cert).trace.indices


# --- the map T ---------------------------------------------------------------------


def test_map_is_a_read_only_int64_array():
    t_map = ProximityMap([1, 0])
    assert isinstance(t_map.image, np.ndarray)
    assert (t_map.image.dtype, t_map.image.shape, t_map.image.flags.writeable) == (np.int64, (2,), False)
    with pytest.raises(ValueError):
        t_map.image[0] = 0
    caller = np.array([1, 0])
    assert ProximityMap(caller).image is not caller and caller.flags.writeable  # never frozen
    caller.flags.writeable = False
    assert ProximityMap(caller).image is caller
    for other in (caller[:], caller.astype(np.int32), caller.astype(np.uint8)):
        other.flags.writeable = False
        copied = ProximityMap(other).image
        assert copied is not other and copied.dtype == np.int64 and not copied.flags.writeable


def test_map_refuses_entries_that_are_not_integers():
    # Each of these was once truncated: [1.9, 0.2] loaded as (1, 0) and
    # (1.7, True, -0.5) as (1, 1, 0).
    for image in (
        [1.9, 0.2],
        (1.7, True, -0.5),
        [True, False],
        [0, True],
        [np.int64(0), np.bool_(True)],
        [0, np.array(True)],  # a 0-d array is judged by its dtype
        np.array([1.0, 0.0]),
        np.array([True, False]),
        np.array([0, 1], dtype=object),
        [[0], [1]],
        ["0", "1"],
        7,
        [2**63],  # beyond int64: it would wrap to a negative index
        [10**30],
        np.array([0, 1], dtype=np.uint64),
    ):
        with pytest.raises(ValueError, match="integer B indices"):
            ProximityMap(image)
    with pytest.raises(ValueError, match="integer B indices"):
        make_instance(euclidean_metric(), [(0.0, 0.0), (0.0, 1.0)], [(1.0, 0.0), (1.0, 1.0)], [1.9, 0.2])
    # SetPair and Metric keep points and tables by the same rule; each of
    # these was once kept, a string read as its number and a boolean as 0 or 1.
    # SetPair names the point at fault, as a file's refusal does.
    square = [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
    for build, refusal, values in (
        (
            lambda v: SetPair(euclidean_metric(), v, [(1.0, 0.0)]),
            r"field 'A\[\d\]': not a numeric point of dimension",
            (
                [["1.5", True]],
                [[1.5, True]],
                [[0.0, np.bool_(True)]],
                [["0", "1"]],
                [(0.0, 1.0), (1.5, True)],
                ([0.0, 1.0], [False, 2.0]),
                [np.array([0.0, 1.0]), np.array([True, False])],
                [[[0.0, True]], [[1.0, 0.0]]],
                [[0.0, np.array(True)], [0.0, 2.0]],
            ),
        ),
        (
            lambda v: SetPair(matrix_metric(square), v, [3]),
            r"field 'A\[\d\]': not an index into the distance table",
            ([True, 2], [0, np.bool_(True)], [np.int64(1), True], ["0", "1"], (0, True), [0, np.array(True)]),
        ),
        (
            matrix_metric,
            "entries must be",
            (
                [["0", True], [1, 0.0]],
                [[0.0, True], [True, 0.0]],
                [[0, 1], [1, np.bool_(False)]],
                [["0", "1"], ["1", "0"]],
                [(0, True), (1, 0)],
                ([0, 1], [False, 0]),
                [np.array([0.0, 1.0]), np.array([True, False])],
                [[[0, True]], [[1, 0]]],
                [[1, 0], [0, np.array(True)]],
            ),
        ),
        (lambda v: frozen_array(v, np.int64), "entries must be", ([np.array(True), 1], [[np.array(False), 1]], [[[np.array(True), 1]]])),
    ):
        for value in values:
            with pytest.raises(ValueError, match=refusal):
                build(value)


def test_map_validation_keeps_its_messages():
    sp = SetPair(euclidean_metric(), [(0.0, 0.0), (0.0, 1.0)], [(1.0, 0.0), (1.0, 1.0)])
    ProximityMap([1, 0]).validate(sp)
    with pytest.raises(ValueError) as exc:
        ProximityMap([0]).validate(sp)
    assert str(exc.value) == "map must be total on A: 1 entries for 2 points"
    for image, message in (([0, 2], "map entry 1 -> 2"), ([-1, 5], "map entry 0 -> -1")):
        with pytest.raises(ValueError) as exc:
            ProximityMap(image).validate(sp)
        assert str(exc.value) == f"{message} is outside B (size 2)"


# --- partner classification -------------------------------------------------------


def test_classify_partners_sorts_each_scope(halving_instance, nonunique_instance, narrow_a0_instance):
    # Over all of A: A[1]'s image has no partner, then two, then one.
    halving = classify_partners(geom_of(halving_instance), halving_instance.t_map)
    assert (halving.count.tolist(), halving.table.tolist()) == ([1, 0, 1], [0, -1, 1])
    nonunique = classify_partners(geom_of(nonunique_instance), nonunique_instance.t_map)
    assert (nonunique.count.tolist(), nonunique.table.tolist()) == ([2, 2], [-1, -1])
    narrow = geom_of(narrow_a0_instance)
    classes = classify_partners(narrow, narrow_a0_instance.t_map)
    assert (classes.count.tolist(), classes.table.tolist()) == ([1, 1], [0, 0])
    # A[1] lies outside A0, so the A0 view leaves it out.
    assert classes.table[narrow.a0].tolist() == [0]


def test_build_induced_map_raises_at_first_failing_point():
    # With eps_prox = 3 both A points pair with B[0] and B[1]; B[2] pairs with neither.
    sp = SetPair(euclidean_metric(), [(0.0, 0.0), (0.0, 2.0)], [(1.0, 0.0), (1.0, 2.0), (5.0, 1.0)])
    geom = proximal_subsets(sp, 3.0)
    with pytest.raises(HypothesisViolation) as exc:
        build_induced_map(geom, ProximityMap((2, 1)))  # A[0] missing, A[1] ambiguous
    assert (exc.value.a_index, exc.value.b_index) == (0, 2)
    assert type(exc.value.b_index) is int
    with pytest.raises(NonUniquePartner) as exc:
        build_induced_map(geom, ProximityMap((1, 2)))  # A[0] ambiguous, A[1] missing
    assert (exc.value.a_index, exc.value.b_index, exc.value.partners) == (0, 1, (0, 1))


# --- result verification ---------------------------------------------------------


def test_verify_passes_on_solution(geometric_instance):
    geom = geom_of(geometric_instance)
    induced = build_induced_map(geom, geometric_instance.t_map)
    res = banach_iterate(induced, 2)
    report = verify_result(res, geom, geometric_instance.t_map, tol=1e-9, induced=induced)
    assert report.passed


def test_verify_checks_the_triangle_along_the_orbit(geometric_instance, broken_orbit_table):
    geom = geom_of(geometric_instance)
    res = banach_iterate(build_induced_map(geom, geometric_instance.t_map), 2)
    check = verify_result(res, geom, geometric_instance.t_map).check("orbit-triangle")
    assert (check.passed, check.detail, check.witness) == (True, "d(x_k, z) <= d(x_k, x_k+1) + d(x_k+1, z) at all 3 steps", None)
    # The sampled axiom check passes this table, and the certified walk is
    # guaranteed with a-priori bounds 2, 1, 0.5, ..., but d(x_0, z) is 10:
    # they rest on d(a0, a4) <= d(a0, a1) + d(a1, a4), and 10 > 1 + 5.
    inst = broken_orbit_table
    assert validate_metric(inst.metric).passed
    geom = geom_of(inst)
    induced = build_induced_map(geom, inst.t_map)
    res = banach_iterate(induced, 0, certificate=certify_contraction(induced))
    assert (res.trace.indices, res.trace.a_priori_bounds[:2], res.guaranteed) == ((0, 1, 2, 3, 4, 4), (2.0, 1.0), True)
    report = verify_result(res, geom, inst.t_map, induced=induced)
    assert [c.name for c in report.failures] == ["orbit-triangle"]
    check = report.check("orbit-triangle")
    assert check.detail == "k = 0: d(A[0], A[4]) = 10.0 > d(A[0], A[1]) + d(A[1], A[4]) = 1.0 + 5.0"
    assert check.witness == (0, 4, 1)


def test_verify_rejects_perturbed_point(geometric_instance):
    geom = geom_of(geometric_instance)
    induced = build_induced_map(geom, geometric_instance.t_map)
    res = banach_iterate(induced, 2)
    fake = dataclasses.replace(res, index=1, point=(0.0, 0.25))
    # independent residual: d((0,1/4), (1,0)) - 1 = sqrt(17)/4 - 1 > 0
    assert math.dist((0.0, 0.25), (1.0, 0.0)) - 1.0 == pytest.approx(math.sqrt(17) / 4 - 1)
    report = verify_result(fake, geom, geometric_instance.t_map, tol=1e-9, induced=induced)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"residual-within-tol", "fixed-point"}


def test_verify_boundary_tolerance_is_inclusive(geometric_instance):
    geom = geom_of(geometric_instance)
    induced = build_induced_map(geom, geometric_instance.t_map)
    res = banach_iterate(induced, 2)
    fake = dataclasses.replace(res, index=1, point=(0.0, 0.25))
    residual = math.dist((0.0, 0.25), (1.0, 0.0)) - geom.pair_distance
    report = verify_result(fake, geom, geometric_instance.t_map, tol=residual)
    assert report.passed  # residual == tol counts as within


def test_verify_names_no_image_where_s_is_undefined(halving_instance, narrow_a0_instance):
    # S is undefined at A[1] of the halving instance (its image has no
    # partner) and at A[1] of the narrow one (outside A0, though its image
    # has one partner); the fixed-point check then reads S(z) = A[None].
    for inst in (halving_instance, narrow_a0_instance):
        geom = geom_of(inst)
        result = direct_iterate(geom, inst.t_map, 0)
        fake = dataclasses.replace(result, index=1, point=inst.pair.a[1])
        check = verify_result(fake, geom, inst.t_map, induced=classify_partners(geom, inst.t_map)).check("fixed-point")
        assert (check.passed, check.detail) == (False, "S(z) = A[None]")
    # Where S is defined the detail names its image.
    induced = build_induced_map(geom_of(narrow_a0_instance), narrow_a0_instance.t_map)
    result = banach_iterate(induced, 0)
    assert verify_result(result, induced.geometry, narrow_a0_instance.t_map, induced=induced).check("fixed-point").detail == "S(z) = A[0]"


# --- invariants on generated instances -------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["euclidean", "explicit-matrix"])
def test_generated_instance_engine_invariants(seed, kind):
    inst = generate_instance(
        GeneratorConfig(seed=seed, space_kind=kind, a_size=40, alpha_target=0.6, decoy_count=2)
    )
    geom = geom_of(inst)
    induced = build_induced_map(geom, inst.t_map)
    cert = certify_contraction(induced)

    # defining property of the induced map, per entry
    assert defining_defect(induced) <= inst.eps_prox

    # certified bound: no pair exceeds alpha_hat (it is the max), witness attains it
    pts = inst.pair.a
    table = scope_map(induced)
    for x1, x2 in itertools.combinations(sorted(table), 2):
        num = distance(inst.metric, pts[table[x1]], pts[table[x2]])
        den = distance(inst.metric, pts[x1], pts[x2])
        assert num <= cert.alpha_hat * den + 1e-15

    res = banach_iterate(induced, geom.a0[0], certificate=cert)

    # residual lower bound is exact: no iterate dips under d(A,B)
    for i in res.trace.indices:
        assert distance(inst.metric, pts[i], inst.pair.b[inst.t_map.image[i]]) >= geom.pair_distance

    # step gaps never increase under a certified contraction
    gaps = res.trace.step_gaps
    assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))

    # uniqueness: every start reaches the same fixed point
    finals = {banach_iterate(induced, i, certificate=cert).index for i in geom.a0}
    assert finals == {res.index}

"""Relabelling the points of A and B changes no answer.

A permutation of A (carrying T along) and one of B (relabelling T's
entries) must leave d(A,B), alpha_hat and the number of pairs it ranges over
unchanged, map A0, B0 and the partner classes onto their relabelled selves,
and give the relabelled orbit from the relabelled start, for both iteration
schemes.  Ties among the ratios are broken by the least key pair in the new
labels, so the witness is checked against the dense reference on the
permuted instance.  Every check runs at each tile size of
:func:`conftest.each_block_size`.
"""

import random

import numpy as np
import pytest
from conftest import dense_max_ratio, each_block_size, scope_map, tie_heavy_case

from bestprox import (
    EUCLIDEAN,
    EXPLICIT_MATRIX,
    GeneratorConfig,
    HypothesisViolation,
    NonUniquePartner,
    ProximityMap,
    SetPair,
    banach_iterate,
    certify_contraction,
    classify_partners,
    direct_iterate,
    generate_instance,
    proximal_subsets,
)


def ladder_case(kind, rng):
    """A generated ladder, whose induced map is total on A0, and its T."""
    cfg = GeneratorConfig(
        seed=rng.randrange(2**32),
        space_kind=kind,
        a_size=rng.randint(2, 12),
        alpha_target=rng.choice([0.3, 0.6, 0.9]),
        decoy_count=rng.randint(0, 3),
    )
    inst = generate_instance(cfg)
    return proximal_subsets(inst.pair, inst.eps_prox), inst.t_map


def tie_heavy_orbit_case(kind, rng):
    """A tie-heavy case, half the time with T drawn again onto the points of
    B0 that have a single partner, so that S is total and both orbits run."""
    geom, t_map = tie_heavy_case(kind, rng)
    single = [j for j in geom.b0.tolist() if len(geom.partners_in_a(j)) == 1]
    if single and rng.random() < 0.5:
        t_map = ProximityMap([rng.choice(single) for _ in geom.pair.a])
    return geom, t_map


# Each case is (geometry, T); the tie-heavy ones draw A and B from a 5 x 5
# integer grid, as coordinates or as a taxicab table.
CASES = {
    "grid": lambda rng: tie_heavy_orbit_case("grid", rng),
    "taxicab": lambda rng: tie_heavy_orbit_case("matrix", rng),
    "euclidean-ladder": lambda rng: ladder_case(EUCLIDEAN, rng),
    "matrix-ladder": lambda rng: ladder_case(EXPLICIT_MATRIX, rng),
}


def _orbit(walk, start, relabel):
    """The stop reason and the index sequence of ``walk(start)``, or the
    failure and the indices walked before it, with each index relabelled."""
    try:
        res = walk(start)
        return res.stop_reason, relabel[list(res.indices)].tolist()
    except (HypothesisViolation, NonUniquePartner) as err:
        return type(err), relabel[list(err.partial_indices)].tolist()


def _answers(geom, t_map, pa, pb, starts):
    """What the solver finds on one labelling, in the original labels: new
    A-position i is old pa[i] and new B-position j is old pb[j].  The orbits
    start at each of ``starts``, given in the original labels."""
    induced = classify_partners(geom, t_map)
    cert = certify_contraction(induced)
    answers = {
        "pair_distance": geom.pair_distance,
        "a0": sorted(pa[geom.a0].tolist()),
        "b0": sorted(pb[geom.b0].tolist()),
        # The partner count and the partner of each point of A, by old label.
        "classes": sorted(zip(pa.tolist(), induced.count.tolist(), np.where(induced.table >= 0, pa[induced.table], -1).tolist())),
        "alpha_hat": cert.alpha_hat,
        "alpha_pair_count": cert.pair_count,
    }
    if (induced.count[geom.a0] == 1).all():
        for x, start in zip(starts, np.argsort(pa)[starts].tolist()):
            answers[("induced", x)] = _orbit(lambda i: banach_iterate(induced, i, certificate=cert), start, pa)
            answers[("direct", x)] = _orbit(lambda i: direct_iterate(geom, t_map, i, certificate=cert), start, pa)
    keys = geom.a0[induced.count[geom.a0] == 1]
    return answers, cert, induced, keys


@pytest.mark.parametrize("case", sorted(CASES))
def test_relabelling_a_and_b_changes_no_answer(case):
    rng = random.Random(case)
    iterated = 0
    for _ in range(20):
        geom, t_map = CASES[case](rng)
        sp, eps = geom.pair, geom.eps_prox
        pa = np.array(rng.sample(range(len(sp.a)), len(sp.a)))
        pb = np.array(rng.sample(range(len(sp.b)), len(sp.b)))
        permuted = SetPair(sp.metric, sp.a[pa], sp.b[pb])
        permuted_t = ProximityMap(np.argsort(pb)[t_map.image[pa]])
        identity_a, identity_b = np.arange(len(sp.a)), np.arange(len(sp.b))
        for sizes in each_block_size():
            old = proximal_subsets(sp, eps)
            new = proximal_subsets(permuted, eps)
            starts = old.a0.tolist()
            want, *_ = _answers(old, t_map, identity_a, identity_b, starts)
            got, cert, induced, keys = _answers(new, permuted_t, pa, pb, starts)
            assert got == want, (sizes, case)
            assert (cert.alpha_hat, cert.witness, cert.pair_count) == dense_max_ratio(permuted, scope_map(induced, keys)), sizes
            iterated += sum(isinstance(key, tuple) for key in got)
    assert iterated  # some case has S total on A0, so both orbits are compared

"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (run with
``pytest -s`` to see them on success).  Criteria 1-5 share one sweep of 500
seeded instances over alpha targets {0.0, 0.1, ..., 0.9} with sizes <= 200.
"""

import dataclasses
import math
import time

import pytest

from bestprox import (
    CONTRACTION,
    EUCLIDEAN,
    EXPLICIT_MATRIX,
    GeneratorConfig,
    HypothesisViolation,
    NonUniquePartner,
    banach_iterate,
    brute_force_solve,
    build_induced_map,
    certify_contraction,
    direct_iterate,
    distance,
    generate_instance,
    proximal_subsets,
    save_instance,
    validate_metric,
)
from bestprox.cli import main as cli_main

ALPHAS = [round(0.1 * k, 1) for k in range(10)]
SEEDS_PER_ALPHA = 50


def report_line(n, ok, desc):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


@dataclasses.dataclass
class Record:
    cfg: GeneratorConfig
    inst: object
    geom: object
    induced: object
    cert: object
    banach: object
    direct: object
    brute: object


def sweep_configs():
    for ai, alpha in enumerate(ALPHAS):
        for s in range(SEEDS_PER_ALPHA):
            kind = EUCLIDEAN if (s + ai) % 2 == 0 else EXPLICIT_MATRIX
            yield GeneratorConfig(
                seed=1000 * ai + s,
                space_kind=kind,
                a_size=1 + ((37 * s + 11 * ai) % 200),
                alpha_target=alpha,
                decoy_count=s % 4,
            )


@pytest.fixture(scope="module")
def sweep():
    records = []
    solver_seconds = 0.0
    for cfg in sweep_configs():
        t0 = time.perf_counter()
        inst = generate_instance(cfg)
        geom = proximal_subsets(inst.pair, inst.eps_prox)
        induced = build_induced_map(geom, inst.t_map)
        cert = certify_contraction(induced)
        ban = banach_iterate(induced, geom.a0[0], certificate=cert)
        brute = brute_force_solve(inst.pair, inst.t_map, eps_prox=inst.eps_prox)
        solver_seconds += time.perf_counter() - t0
        direct = direct_iterate(geom, inst.t_map, geom.a0[0], certificate=cert)
        records.append(Record(cfg, inst, geom, induced, cert, ban, direct, brute))
    return records, solver_seconds


def test_criterion_1_generator_oracle_equivalence(sweep):
    records, seconds = sweep
    bad = [
        r.cfg.seed
        for r in records
        if r.banach.index not in r.brute.argmin_indices or abs(r.banach.residuals[-1]) > 1e-9
    ]
    ok = len(records) >= 500 and not bad and seconds < 30.0
    report_line(
        1,
        ok,
        f"{len(records)} instances, {len(bad)} mismatches, "
        f"generate+solve+brute-force took {seconds:.2f}s (< 30s)",
    )


def test_criterion_2_iteration_equivalence(sweep):
    records, _ = sweep
    bad = [r.cfg.seed for r in records if r.banach.indices != r.direct.indices]
    report_line(
        2,
        not bad,
        f"direct vs induced index sequences identical on {len(records) - len(bad)}"
        f"/{len(records)} instances",
    )


def test_criterion_3_uniqueness_multistart(sweep):
    records, _ = sweep
    contraction_count = 0
    bad = []
    for r in records:
        if r.cert.verdict != CONTRACTION:
            continue
        contraction_count += 1
        finals = {
            banach_iterate(r.induced, start, certificate=r.cert).index
            for start in r.geom.a0
        }
        if finals != {r.banach.index}:
            bad.append(r.cfg.seed)
    ok = contraction_count == len(records) and not bad
    report_line(
        3,
        ok,
        f"multi-start over all of A0 agreed on {contraction_count - len(bad)}"
        f"/{contraction_count} contraction instances",
    )


def test_criterion_4_certificate_soundness(sweep):
    records, _ = sweep
    bad_bound = [r.cfg.seed for r in records if r.cert.alpha_hat > r.cfg.alpha_target + 1e-12]
    bad_witness = []
    for r in records:
        if r.cert.witness is None:
            continue
        w1, w2 = r.cert.witness
        pts = r.inst.pair.a
        ratio = distance(
            r.inst.metric, pts[r.induced.table[w1]], pts[r.induced.table[w2]]
        ) / distance(r.inst.metric, pts[w1], pts[w2])
        if abs(ratio - r.cert.alpha_hat) > math.ulp(r.cert.alpha_hat):
            bad_witness.append(r.cfg.seed)
    ok = not bad_bound and not bad_witness
    report_line(
        4,
        ok,
        f"alpha_hat <= alpha_target + 1e-12 on {len(records) - len(bad_bound)}"
        f"/{len(records)}; witness reproduced within 1 ulp "
        f"({len(bad_witness)} failures)",
    )


def test_criterion_5_a_priori_bound(sweep):
    records, _ = sweep
    steps = 0
    bad = 0
    for r in records:
        if r.cert.verdict != CONTRACTION:
            continue
        a = r.inst.pair.a
        for res in (r.banach, r.direct):
            for i, bound in zip(res.indices, res.a_priori_bounds):
                steps += 1
                if distance(r.inst.metric, a[i], a[res.index]) > bound + 1e-9:
                    bad += 1
    report_line(5, bad == 0, f"{steps - bad}/{steps} trace steps within the Banach bound + 1e-9")


def test_criterion_6_violation_fixtures(halving_instance, nonunique_instance, boundary_instance):
    hits = 0

    geom = proximal_subsets(halving_instance.pair, halving_instance.eps_prox)
    try:
        build_induced_map(geom, halving_instance.t_map)
    except HypothesisViolation as err:
        hits += err.a_index == 1 and err.b_index == 1

    geom = proximal_subsets(nonunique_instance.pair, nonunique_instance.eps_prox)
    try:
        build_induced_map(geom, nonunique_instance.t_map)
    except NonUniquePartner as err:
        hits += err.partners == (0, 1)

    geom = proximal_subsets(boundary_instance.pair, boundary_instance.eps_prox)
    cert = certify_contraction(build_induced_map(geom, boundary_instance.t_map))
    hits += cert.verdict == "not-contraction" and cert.alpha_hat == 1.0 and cert.witness == (1, 2)

    report_line(6, hits == 3, f"{hits}/3 violation fixtures produced the designated error with witnesses")


def test_criterion_7_metric_fixtures():
    hits = 0

    from bestprox import matrix_metric

    asym = validate_metric(matrix_metric([[0.0, 1.0], [2.0, 0.0]]))
    hits += (not asym.passed) and asym.check("symmetry").witness == (0, 1)

    tri = validate_metric(matrix_metric([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]))
    hits += (not tri.passed) and tri.check("triangle").witness == (0, 2, 1)

    report_line(7, hits == 2, f"{hits}/2 invalid tables rejected with the correct witness triples")


def test_criterion_8_cli_contract(
    tmp_path, capsys, halving_instance, nonunique_instance, boundary_instance
):
    failures = []

    for s in range(20):
        path = str(tmp_path / f"gen{s}.json")
        kind = EUCLIDEAN if s % 2 == 0 else EXPLICIT_MATRIX
        codes = (
            cli_main(
                ["generate", path, "--seed", str(s), "--alpha", str(ALPHAS[s % 10]), "--kind", kind]
            ),
            cli_main(["certify", path]),
            cli_main(["solve", path]),
        )
        if codes != (0, 0, 0):
            failures.append((s, codes))

    for name, fixture in (
        ("halving", halving_instance),
        ("nonunique", nonunique_instance),
        ("boundary", boundary_instance),
    ):
        path = str(tmp_path / f"{name}.json")
        save_instance(fixture, path)
        code = cli_main(["solve", path])
        if code != 2:
            failures.append((name, code))

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"metric": {"kind": "euclidean"}, "A": [[0, 0]], "B": [[1, 0]], "T": "x"}')
    if cli_main(["solve", str(malformed)]) != 1:
        failures.append(("malformed", "not 1"))

    capsys.readouterr()  # swallow the CLI chatter before reporting
    report_line(
        8,
        not failures,
        "20-seed generate/certify/solve pipeline exit 0, violations exit 2, "
        f"malformed exits 1 (failures: {failures})",
    )

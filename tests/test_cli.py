import argparse
import contextlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import bestprox
import numpy as np
import pytest
from conftest import tie_heavy_case

from bestprox import EXPLICIT_MATRIX, GeneratorConfig, dumps_instance, generate_instance, load_instance, make_instance, save_instance
from bestprox import assess_instance, certify_contraction, classify_partners, euclidean_metric, proximal_subsets
from bestprox.cli import _emit, main
from bestprox.report import assessment_payload, render_text

ASYMMETRIC_TEXT = """
{
  "metric": {"kind": "explicit-matrix", "matrix": [[0, 1], [2, 0]]},
  "A": [0],
  "B": [1],
  "T": [0]
}
"""

TRIANGLE_TEXT = """
{
  "metric": {"kind": "explicit-matrix", "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]},
  "A": [0, 1],
  "B": [2],
  "T": [0, 0]
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_certify_solve_pipeline(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    code, out, _ = run(capsys, "generate", path, "--seed", "12", "--alpha", "0.4")
    assert code == 0
    assert "wrote" in out

    code, out, _ = run(capsys, "certify", path)
    assert code == 0
    assert "[PASS] proximal-contraction" in out
    assert "declared alpha 0.4 confirmed" in out

    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert "traces equal: yes" in out
    assert "guaranteed: yes" in out


def test_generate_is_deterministic(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(capsys, "generate", p1, "--seed", "7", "--kind", "explicit-matrix")[0] == 0
    assert run(capsys, "generate", p2, "--seed", "7", "--kind", "explicit-matrix")[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize(
    "argv, cfg",
    [
        ((), GeneratorConfig()),
        (
            ("--seed", "4", "--alpha", "0.3", "--a-size", "5", "--b-size", "9", "--decoys", "4", "--gap", "2", "--kind", "explicit-matrix"),
            GeneratorConfig(seed=4, space_kind=EXPLICIT_MATRIX, a_size=5, b_size=9, alpha_target=0.3, slab_gap=2.0, decoy_count=4),
        ),
    ],
)
def test_generate_flags_reach_their_config_fields(tmp_path, capsys, monkeypatch, argv, cfg):
    # A flag is stored under its GeneratorConfig field only when given, so a
    # mistyped dest would fall back to the field's default without a word.
    seen = []
    monkeypatch.setattr(bestprox.cli, "generate_instance", lambda config: seen.append(config) or generate_instance(config))
    path = str(tmp_path / "g.json")
    assert run(capsys, "generate", path, *argv)[0] == 0
    assert seen == [cfg]
    assert (tmp_path / "g.json").read_text() == dumps_instance(generate_instance(cfg))


def test_solve_json_report_superset(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", path, "--seed", "3")
    code, out, _ = run(capsys, "solve", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # every quantity of the human report is present, plus the full traces
    assert payload["pair_distance"] == 1.0
    assert payload["a0_size"] == payload["sizes"]["A"]
    assert {c["name"] for c in payload["checks"]} == {
        "metric-axioms",
        "nonempty-A-B",
        "approximative-compactness",
        "nonempty-A0-B0",
        "T(A0)-subset-B0",
        "proximal-contraction",
    }
    assert payload["alpha_hat"] is not None
    for label in ("induced", "direct"):
        res = payload["results"][label]
        trace = res["trace"]
        assert len(trace["indices"]) == len(trace["residuals"])
        assert len(trace["step_gaps"]) == len(trace["indices"]) - 1
        assert res["stop_reason"] == "converged"
    assert payload["traces_equal"] is True
    assert payload["exit_code"] == 0


def test_solve_truncates_long_console_trace(tmp_path, capsys):
    path = str(tmp_path / "long.json")
    run(capsys, "generate", path, "--seed", "2", "--alpha", "0.9", "--a-size", "120")
    code, out, _ = run(capsys, "solve", path, "--method", "induced")
    assert code == 0
    assert "steps elided" in out

    code, out, _ = run(capsys, "solve", path, "--method", "induced", "--format", "json")
    payload = json.loads(out)
    assert len(payload["results"]["induced"]["trace"]["indices"]) > 20  # full trace kept


def test_solve_halving_violation_exits_2(tmp_path, capsys, halving_instance):
    path = str(tmp_path / "halving.json")
    save_instance(halving_instance, path)
    code, out, _ = run(capsys, "solve", path)
    assert code == 2
    assert "[FAIL] T(A0)-subset-B0" in out
    assert "A[1]" in out

    # direct method from the ladder top walks until the offending step
    code, out, _ = run(capsys, "solve", path, "--method", "direct", "--start-index", "2")
    assert code == 2
    assert "partial iterate indices: [2, 1]" in out


def test_solve_nonunique_exits_2(tmp_path, capsys, nonunique_instance):
    path = str(tmp_path / "nonunique.json")
    save_instance(nonunique_instance, path)
    code, out, _ = run(capsys, "solve", path)
    assert code == 2
    assert "[FAIL] proximal-contraction" in out
    assert "non-unique" in out


def test_solve_boundary_alpha_exits_2_but_reports_result(tmp_path, capsys, boundary_instance):
    path = str(tmp_path / "boundary.json")
    save_instance(boundary_instance, path)
    code, out, _ = run(capsys, "solve", path)
    assert code == 2
    assert "[FAIL] proximal-contraction" in out
    assert "alpha_hat = 1.0" in out
    assert "unguaranteed" in out  # best-effort result still shown


def test_certify_flags_contradicted_declared_alpha(tmp_path, capsys, boundary_instance):
    import dataclasses

    claimed = dataclasses.replace(boundary_instance, alpha_declared=0.4)
    path = str(tmp_path / "claimed.json")
    save_instance(claimed, path)
    code, out, _ = run(capsys, "certify", path)
    assert code == 2  # alpha_hat = 1 fails the contraction row regardless
    assert "CONTRADICTED" in out

    code, out, _ = run(capsys, "certify", path, "--format", "json")
    assert json.loads(out)["declared_alpha_ok"] is False


def test_certify_boundary_witness_printed(tmp_path, capsys, boundary_instance):
    path = str(tmp_path / "boundary.json")
    save_instance(boundary_instance, path)
    code, out, _ = run(capsys, "certify", path)
    assert code == 2
    assert "witness A-pair (1, 2)" in out


def test_metric_fixtures_rejected_with_witnesses(tmp_path, capsys):
    asym = tmp_path / "asym.json"
    asym.write_text(ASYMMETRIC_TEXT)
    code, out, _ = run(capsys, "certify", str(asym))
    assert code == 2
    assert "symmetry fails: witness (0, 1)" in out

    tri = tmp_path / "triangle.json"
    tri.write_text(TRIANGLE_TEXT)
    code, out, _ = run(capsys, "certify", str(tri))
    assert code == 2
    assert "triangle fails: witness (0, 2, 1)" in out


def test_certify_checks_every_entry_of_a_large_table(tmp_path, capsys):
    # 224 points, past the exhaustive triangle scan, with one B x B entry
    # raised by 1 where no sampled triple reaches: the table is not symmetric.
    inst = generate_instance(GeneratorConfig(space_kind=EXPLICIT_MATRIX, decoy_count=200))
    table = inst.metric.matrix.copy()
    i, j = 100, 200
    assert {i, j} <= set(inst.pair.b.tolist())
    table[j, i] += 1.0
    path = tmp_path / "broken.json"
    save_instance(make_instance(bestprox.Metric(EXPLICIT_MATRIX, table), inst.pair.a, inst.pair.b, inst.t_map.image, eps_prox=0.0), path)
    code, out, _ = run(capsys, "certify", str(path), "--format", "json")
    row = next(c for c in json.loads(out)["checks"] if c["name"] == "metric-axioms")
    assert (code, row["passed"]) == (2, False)
    assert row["detail"].startswith(f"sampled (1000 triples): symmetry fails: witness ({i}, {j})")


# Tables that fail the axioms, on which the certificate's ratio scan once
# broke: the only ratio is -1e308 / 1e-308 = -inf, and a masked diagonal
# entry of the second is 1/0 (d(2, 2) = 1 fails identity).
NEGATIVE_RATIO_TEXT = '{"metric": {"kind": "explicit-matrix", "matrix": [[0, 1e-308, 5, 1], [-1e308, 0, 1, 5], [5, 1, 0, 5], [1, 5, 5, 0]]}, "A": [0, 1], "B": [2, 3], "T": [0, 1]}'
NONZERO_DIAGONAL_TEXT = '{"metric": {"kind": "explicit-matrix", "matrix": [[0, 2, 2, 5, 5], [2, 0, 2, 5, 5], [2, 2, 1, 1, 5], [5, 5, 1, 0, 5], [5, 5, 5, 5, 0]]}, "A": [0, 1, 2], "B": [3, 4], "T": [0, 0, 0]}'
# d(A,B) = -1e308 and each d(z, T(z)) = 1e308, so every residual of the walk
# 0 -> 1 -> 0 is beyond the float range: inf.
OVERFLOW_RESIDUAL_TEXT = '{"metric": {"kind": "explicit-matrix", "matrix": [[0, 5, -1e308, 1e308], [5, 0, 1e308, -1e308], [-1e308, 1e308, 0, 5], [1e308, -1e308, 5, 0]]}, "A": [0, 1], "B": [2, 3], "T": [1, 0]}'


def test_tables_failing_the_axioms_exit_2_without_traceback_or_warning(tmp_path, capsys):
    path = tmp_path / "inst.json"
    for text in (NEGATIVE_RATIO_TEXT, NONZERO_DIAGONAL_TEXT, OVERFLOW_RESIDUAL_TEXT):
        path.write_text(text)
        for argv in (("certify",), ("certify", "--wide"), ("solve",)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning raises
                code, _, err = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, err) == (2, ""), (text, argv)
    # alpha_hat = -inf certifies nothing: the row fails, no walk is cut, and
    # no a-priori bound (once 0 * -inf = NaN) is written.
    path.write_text(NEGATIVE_RATIO_TEXT)
    code, out, _ = run(capsys, "solve", str(path), "--format", "json")
    doc = json.loads(out, parse_constant=_refuse_constant)
    row = next(c for c in doc["checks"] if c["name"] == "proximal-contraction")
    assert (code, doc["alpha_hat"], row["passed"], doc["contraction_verdict"]) == (2, "-inf", False, "not-contraction")
    assert set(doc["results"]) == {"induced", "direct"}
    for res in doc["results"].values():
        assert (res["stop_reason"], res["trace"]["indices"], res["trace"]["a_priori_bounds"]) == ("cycle-detected", [0, 1, 0], [])


# d(0, 1) = 0 between distinct points: a pseudometric, with every other axiom
# holding, once certified as a metric and solved with a guarantee.
PSEUDOMETRIC_TEXT = '{"metric":{"kind":"explicit-matrix","matrix":[[0,0,1],[0,0,1],[1,1,0]]},"A":[0],"B":[1,2],"T":[0]}'


def test_coordinates_at_distance_0_across_a_and_b_fail_identity(tmp_path, capsys):
    # (1e-200)**2 underflows to 0, so the kernel puts A[0] and B[0], two
    # distinct points, at distance 0: d(A,B) = 0.0, once solved as a metric
    # with exit 0.
    path = tmp_path / "inst.json"
    path.write_text('{"metric":{"kind":"euclidean"},"A":[[0,0],[0,3]],"B":[[1e-200,0],[2,3]],"T":[0,0]}')
    for command in ("certify", "solve"):
        code, out, _ = run(capsys, command, str(path), "--format", "json")
        doc = json.loads(out)
        row = next(c for c in doc["checks"] if c["name"] == "metric-axioms")
        assert (code, doc["pair_distance"], row["passed"], row["witness"]) == (2, 0.0, False, [[0, 0]]), command
        assert row["detail"] == "kernel: identity fails: witness (0, 0); d(A[0], B[0]) = 0.0 between distinct points"
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["metric-axioms"]


def test_the_checklist_holds_no_copy_of_a_or_b(monkeypatch):
    # With its scans precomputed, assess_instance on flat 16000 peaked at
    # 646 KiB (41 bytes a point) while the metric row sampled a pool of A and
    # B copied into one array, and at 144 KiB (9 bytes a point, mostly the
    # count of partners of A0) without it.
    n = 16000
    inst = make_instance(euclidean_metric(), [(0.0, k) for k in range(n)], [(1.0, k) for k in range(n)], [0] * n)
    geom = proximal_subsets(inst.pair, inst.eps_prox)
    s_map = classify_partners(geom, inst.t_map)
    cert = certify_contraction(s_map)
    monkeypatch.setattr(bestprox.report, "proximal_subsets", lambda *_: geom)
    monkeypatch.setattr(bestprox.report, "classify_partners", lambda *_: s_map)
    monkeypatch.setattr(bestprox.report, "certify_contraction", lambda *_, **__: cert)
    tracemalloc.start()
    try:
        assessment = assess_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assessment.passed
    assert peak < 16 * n, peak / n


class _Starved:
    """numpy for one module of the package, whose ``name`` raises
    MemoryError, as an allocation numpy cannot make does."""

    def __init__(self, name, message):
        self.name, self.message = name, message

    def __getattr__(self, attr):
        if attr != self.name:
            return getattr(np, attr)

        def refuse(shape, *args, **kwargs):
            raise MemoryError(self.message.format(shape=shape))

        return refuse


NUMPY_NO_ROOM = "Unable to allocate an array with shape {shape} and data type float64"


@pytest.mark.parametrize(
    "module, name, argv",
    [
        ("oracle", "zeros", ["generate", "out.json", "--kind", "explicit-matrix", "--decoys", "20"]),
        ("instance", "empty", ["certify", "table.json"]),
    ],
)
@pytest.mark.parametrize("message", [NUMPY_NO_ROOM, ""], ids=["numpy", "bare"])
def test_out_of_memory_exits_1_with_one_line(module, name, argv, message, tmp_path, monkeypatch, capsys):
    # The generator's table and a loaded table are the allocations a command
    # line can make any size; neither is made for real here.
    monkeypatch.chdir(tmp_path)
    Path("table.json").write_text(TRIANGLE_TEXT)
    monkeypatch.setattr(getattr(bestprox, module), "np", _Starved(name, message))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert ("with shape (" in err) == bool(message)
    assert not Path("out.json").exists()


def test_a_table_zero_between_distinct_points_fails_identity(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(PSEUDOMETRIC_TEXT)
    code, out, _ = run(capsys, "certify", str(path), "--format", "json")
    row = next(c for c in json.loads(out)["checks"] if c["name"] == "metric-axioms")
    assert (code, row["passed"], row["witness"]) == (2, False, [[0, 1]])
    assert row["detail"] == "exhaustive: identity fails: witness (0, 1); d(0, 1) = 0.0 between distinct points"
    code, out, _ = run(capsys, "solve", str(path), "--format", "json")
    assert code == 2
    assert [res["guaranteed"] for res in json.loads(out)["results"].values()] == [False, False]


# d(0, 1) = 0 between two points of A, which S sends onto A[2]: a pseudometric
# table that once failed to load as a duplicate in A.
PSEUDOMETRIC_IN_A_TEXT = '{"metric":{"kind":"explicit-matrix","matrix":[[0,0,5,1,6],[0,0,5,1,6],[5,5,0,4,1],[1,1,4,0,5],[6,6,1,5,0]]},"A":[0,1,2],"B":[3,4],"T":[1,1,1]}'


def test_a_table_zero_within_a_fails_identity_not_the_load(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(PSEUDOMETRIC_IN_A_TEXT)
    for command in ("certify", "solve"):
        code, out, err = run(capsys, command, str(path), "--format", "json")
        doc = json.loads(out)
        row = next(c for c in doc["checks"] if c["name"] == "metric-axioms")
        assert (code, err, row["passed"], row["witness"]) == (2, "", False, [[0, 1]]), command
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["metric-axioms"]
        # d(S(0), S(1)) / d(0, 1) is 0/0, no ratio, so the maximum is 0/5.
        assert (doc["alpha_hat"], doc["alpha_witness"]) == (0.0, [0, 2]), command
    # The oracle checks no hypothesis.
    code, out, _ = run(capsys, "oracle", str(path), "--format", "json")
    assert (code, json.loads(out)["argmin_indices"]) == (0, [2])


def _refuse_constant(token):
    raise ValueError(f"{token} in a JSON report")


# A[2] lies outside A0 and its image has two partners, so the certificate
# over all of A (--wide) has an infinite ratio.
TWO_PARTNER_TEXT = '{"metric": {"kind": "euclidean"}, "A": [[0, 0], [0, 2], [0, 10]], "B": [[1, 0], [1, 2], [0, 1]], "T": [0, 1, 2]}'


def test_reports_are_strict_json(tmp_path, capsys):
    # RFC 8259 has no NaN or Infinity: a non-finite float is written as a
    # string, and the text report, rendered from it, shows it as before
    # (inf, not 'inf').
    path = tmp_path / "inst.json"
    texts = {}
    for text, argv, alpha_hat in (
        (NEGATIVE_RATIO_TEXT, ("solve",), "-inf"),
        (TWO_PARTNER_TEXT, ("certify", "--wide"), "inf"),
        (OVERFLOW_RESIDUAL_TEXT, ("solve",), 1.0),
    ):
        path.write_text(text)
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:], "--format", "json")
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert doc["alpha_hat"] == alpha_hat, argv
        texts[text] = run(capsys, argv[0], str(path), *argv[1:])[1]
        assert render_text(doc) + "\n" == texts[text]
        assert "'" not in texts[text], argv
    assert doc["results"]["induced"]["residual"] == "inf"
    assert doc["results"]["induced"]["trace"]["residuals"] == ["inf"] * 3
    assert "  residual |d(z,T(z)) - d(A,B)| = inf\n" in texts[OVERFLOW_RESIDUAL_TEXT]
    assert "    step 2: A[0], residual inf\n" in texts[OVERFLOW_RESIDUAL_TEXT]
    assert "[FAIL] proximal-contraction: alpha_hat = inf over" in texts[TWO_PARTNER_TEXT]


def test_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"metric": {"kind": "euclidean"}, "A": [[0, 0]], "B": [[1, 0]]}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1
    assert "'T'" in err

    bad.write_text("not json at all")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1
    assert "line 1" in err

    bad.write_text(ASYMMETRIC_TEXT.replace("[2, 0]", "[NaN, 0]"))
    code, _, err = run(capsys, "certify", str(bad))
    assert code == 1
    assert "metric.matrix" in err

    bad.write_text('{"metric": {"kind": "euclidean"}, "A": [[0, 0], [0, 1e200]], "B": [[1, 0], [1, 1e200]], "T": [0, 1]}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1
    assert "coordinates of A and B" in err

    bad.write_text('{"metric": {"kind": "euclidean"}, "A": [[0, 0], [1e-200, 0], [0, 5]], "B": [[1, 0], [1, 5]], "T": [1, 1, 1]}')
    code, _, err = run(capsys, "certify", str(bad), "--format", "json")
    assert code == 1
    assert "error: field 'A[1]': duplicate of A[0], at distance 0\n" == err

    huge = "1" + "0" * 400  # a JSON integer no float can hold
    euclid = '{"metric": {"kind": "euclidean"}, "A": %s, "B": [[1, 0], [1, 1]], "T": [0, 1]%s}'
    matrix = '{"metric": {"kind": "explicit-matrix", "matrix": %s}, "A": [0], "B": [1], "T": [0]}'
    for text, field in (
        (euclid % ("[[0, 0], [0, 1]]", ', "tolerances": {"tol": %s}' % huge), "tolerances.tol"),
        (euclid % ("[[0, 0], [0, 1]]", ', "alpha": %s' % huge), "alpha"),
        (euclid % ("[[0, 0], [0, 1]]", ', "alpha": Infinity'), "alpha"),
        (euclid % ("[[0, 0], [0, 1]]", ', "alpha": NaN'), "alpha"),
        (euclid % ("[[0, 0], [0, 1]]", ', "alpha": true'), "alpha"),
        (euclid % ("[[0, 0], [%s, 1]]" % huge, ""), "A[1]"),
        (euclid % ('[["0", "0"], ["0", "1"]]', ""), "A[0]"),
        (matrix % "[[0, %s], [%s, 0]]" % (huge, huge), "metric.matrix"),
        (matrix % '[[0, "1"], ["1", 0]]', "metric.matrix"),
        (euclid % ("[[0, 0], [0, true]]", ""), "A[1]"),
        (matrix % "[[0, true], [true, 0]]", "metric.matrix"),
        (matrix % "[[0, 1.5], [false, 0]]", "metric.matrix"),
        ('{"metric": {"kind": [[0, 1], [1, 0]]}, "A": [0], "B": [1], "T": [0]}', "metric.kind"),
        ('{"metric": {"kind": "euclidean"}, "A": [[], []], "B": [[1, 0]], "T": [0, 0]}', "A[0]"),
        ('{"metric": {"kind": "euclidean"}, "A": [[0, 0], [0, NaN]], "B": [[1, 0]], "T": [0, 0]}', "A[1]"),
        ('{"metric": {"kind": "euclidean"}, "A": [[0, 0]], "B": [[1, 0, 0]], "T": [0]}', "B[0]"),
        ('{"metric": {"kind": "explicit-matrix", "matrix": [[0, 1], [1, 0]]}, "A": [0, 5], "B": [1], "T": [0, 0]}', "A[1]"),
    ):
        bad.write_text(text)
        code, _, err = run(capsys, "certify", str(bad))
        assert code == 1, text
        assert f"'{field}'" in err, text
        assert "Traceback" not in err

    # Refusals that name no field.
    for text, problem in (
        ("[1, 2]", "top-level value must be an object"),
        (euclid % ("[[0, 0], [0, 1]]", ', "tolerances": 5'), "field 'tolerances': must be an object"),
    ):
        bad.write_text(text)
        code, _, err = run(capsys, "certify", str(bad))
        assert (code, problem in err, "Traceback" in err) == (1, True, False), text

    # Bytes that are not UTF-8, and nesting deeper than the JSON decoder recurses.
    for data, problem in ((b"\xff\xfe{", "not UTF-8 text"), (b"[" * 200000, "invalid JSON: nested too deeply")):
        bad.write_bytes(data)
        code, _, err = run(capsys, "certify", str(bad))
        assert (code, problem in err, "Traceback" in err) == (1, True, False), data[:4]


def test_usage_errors_exit_1(capsys, tmp_path):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "solve")[0] == 1
    path = str(tmp_path / "x.json")
    run(capsys, "generate", path)
    assert run(capsys, "solve", path, "--method", "sideways")[0] == 1
    assert run(capsys, "generate", path, "--alpha", "1.5")[0] == 1
    for command, flag, value in (
        ("solve", "--max-iter", "0"),
        ("solve", "--tol", "-1"),
        ("solve", "--tol", "nan"),
        ("solve", "--eps-prox", "nan"),
        ("certify", "--eps-prox", "inf"),
        ("oracle", "--eps-prox", "-1"),
    ):
        code, _, err = run(capsys, command, path, flag, value)
        assert code == 1, (command, flag, value)
        assert flag in err
    for value in ("nan", "inf"):
        code, _, err = run(capsys, "generate", path, "--gap", value)
        assert code == 1, value
        assert "slab_gap must be finite and > 0" in err
    for argv in (("--gap", "1e9"), ("--gap", "1e160"), ("--gap", "1e300", "--kind", "explicit-matrix")):
        code, _, err = run(capsys, "generate", path, *argv)
        assert code == 1, argv
        assert "slab_gap" in err
    for out in (str(tmp_path / "no" / "such" / "x.json"), str(tmp_path)):
        code, _, err = run(capsys, "generate", out)
        assert code == 1, out
        assert f"cannot write {out}" in err


def test_each_command_refuses_flags_it_does_not_read(tmp_path, capsys):
    path = str(tmp_path / "x.json")
    run(capsys, "generate", path)
    fresh = str(tmp_path / "fresh.json")
    for command, target, flag, value in (
        ("generate", fresh, "--tol", "1e-3"),
        ("generate", fresh, "--max-iter", "5"),
        ("generate", fresh, "--eps-prox", "0"),
        ("oracle", path, "--tol", "1e-3"),
        ("oracle", path, "--max-iter", "5"),
        ("certify", path, "--max-iter", "5"),
    ):
        code, out, err = run(capsys, command, target, flag, value)
        assert (code, out) == (1, ""), (command, flag)
        assert f"unrecognized arguments: {flag} {value}" in err, (command, flag)
    assert not os.path.exists(fresh)


def test_start_index_validation(tmp_path, capsys, narrow_a0_instance):
    path = str(tmp_path / "narrow.json")
    save_instance(narrow_a0_instance, path)
    code, _, err = run(capsys, "solve", path, "--start-index", "99")
    assert code == 1
    assert "outside A" in err
    code, _, err = run(capsys, "solve", path, "--start-index", "1")
    assert code == 1
    assert "not in A0" in err
    assert run(capsys, "solve", path, "--start-index", "0")[0] == 0


@pytest.mark.parametrize("fixture", ["halving_instance", "nonunique_instance", "narrow_a0_instance"])
def test_walks_own_the_start_check(request, tmp_path, capsys, fixture):
    # The walks check the start before they refuse a partial S, so a start
    # outside A is a usage error on every method, whatever the hypotheses.
    inst = request.getfixturevalue(fixture)
    path = str(tmp_path / "inst.json")
    save_instance(inst, path)
    for start in ("99", "-1"):
        for method in (["--method", "induced"], ["--method", "direct"], []):
            code, out, err = run(capsys, "solve", path, *method, "--start-index", start)
            assert (code, out, err) == (1, "", f"error: start index {start} outside A (size {len(inst.pair.a)})\n"), method


def test_start_outside_a0_is_named_by_its_position(tmp_path, capsys, narrow_a0_instance):
    path = str(tmp_path / "narrow.json")
    save_instance(narrow_a0_instance, path)
    for method in ("induced", "direct", "both"):
        code, out, err = run(capsys, "solve", path, "--method", method, "--start-index", "1")
        assert (code, out, err) == (1, "", "error: start index 1 is not in A0\n"), method


def test_max_iter_exhaustion_exits_3(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", path, "--seed", "5", "--alpha", "0.8", "--a-size", "50")
    code, out, _ = run(capsys, "solve", path, "--max-iter", "1")
    assert code == 3
    assert "max-iterations" in out


def test_converged_but_unverified_solve_exits_3(tmp_path, capsys):
    # Both walks settle at A[1] under a certified constant and agree step for
    # step, but d(A[1], T(A[1])) misses d(A,B) = 1 by about 1e-3 > tol.
    path = tmp_path / "inst.json"
    instance = {
        "metric": {"kind": "euclidean"},
        "A": [[0, 0], [0, 5]],
        "B": [[1, 0], [1.001, 5]],
        "T": [1, 1],
        "tolerances": {"eps_prox": 0.01, "tol": 1e-9},
    }
    path.write_text(json.dumps(instance))
    code, out, _ = run(capsys, "solve", str(path), "--format", "json")
    payload = json.loads(out)
    assert code == payload["exit_code"] == 3
    assert (payload["failures"], payload["traces_equal"]) == ({}, True)
    assert payload["verified"] == {"induced": False, "direct": False}
    for res in payload["results"].values():
        assert (res["stop_reason"], res["guaranteed"], res["index"]) == ("converged", True, 1)
        assert 1e-9 < res["residual"] < 1.1e-3


def test_a_certified_solve_reports_the_exact_fixed_point_at_any_tol(tmp_path, capsys, decimal_ladder_instance):
    # A[2] lies within 0.05 of the fixed point A[3], but S(A[2]) = A[3] fails
    # the fixed-point row: only a walk that runs on to A[3] is verified.
    path = str(tmp_path / "inst.json")
    save_instance(decimal_ladder_instance, path)
    code, out, _ = run(capsys, "solve", path, "--tol", "0.05", "--format", "json")
    payload = json.loads(out)
    assert code == payload["exit_code"] == 0
    assert {k: (r["index"], r["guaranteed"]) for k, r in payload["results"].items()} == {"induced": (3, True), "direct": (3, True)}
    assert payload["verified"] == {"induced": True, "direct": True}


def test_solve_exits_3_where_the_orbit_breaks_the_triangle(tmp_path, capsys, broken_orbit_table):
    # Every hypothesis row passes, the metric's on 1000 sampled triples, but
    # the triangle fails along the orbit, where the a-priori bounds need it.
    path = str(tmp_path / "inst.json")
    save_instance(broken_orbit_table, path)
    code, out, _ = run(capsys, "solve", path, "--format", "json")
    payload = json.loads(out)
    assert payload["hypotheses_ok"]
    assert code == payload["exit_code"] == 3
    assert payload["verified"] == {"induced": False, "direct": False}


def test_oracle_command(tmp_path, capsys, geometric_instance):
    path = str(tmp_path / "geo.json")
    save_instance(geometric_instance, path)
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert "argmin indices: [0]" in out
    assert "best proximity point exists" in out

    code, out, _ = run(capsys, "oracle", path, "--format", "json")
    payload = json.loads(out)
    assert payload["argmin_indices"] == [0]
    assert payload["min_value"] == 1.0
    assert payload["is_best_proximity"] is True


def test_oracle_flags_absence(tmp_path, capsys, crossed_instance):
    path = str(tmp_path / "crossed.json")
    save_instance(crossed_instance, path)
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert "no" in out.splitlines()[-1]


def test_certify_wide_flag(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", path, "--seed", "1")
    code, out, _ = run(capsys, "certify", path, "--wide")
    assert code == 0
    assert "full scope" in out


def test_eps_prox_override(tmp_path, capsys, geometric_instance):
    path = str(tmp_path / "geo.json")
    save_instance(geometric_instance, path)
    code, out, _ = run(capsys, "certify", path, "--eps-prox", "5.0", "--format", "json")
    payload = json.loads(out)
    assert payload["eps_prox"] == 5.0
    assert payload["a0_size"] == 3


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # numpy imports numpy.ma on the first plain np.unique call, which cost
    # 12-17 ms per command; no command needs it.
    script = (
        "import contextlib, io, sys\n"
        "from bestprox.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main([c, p]) for p in sys.argv[1:] for c in ('certify', 'solve', 'oracle')]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    paths = []
    for kind in ("euclidean", EXPLICIT_MATRIX):
        paths.append(str(tmp_path / f"{kind}.json"))
        save_instance(generate_instance(GeneratorConfig(seed=5, space_kind=kind)), paths[-1])
    env = {**os.environ, "PYTHONPATH": str(Path(bestprox.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *paths], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{[0] * 6} False"


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # The read end of the pipe is closed before the command starts, so its
    # first write fails: in the final flush for a report that fits the
    # stdout buffer (certify), inside a write for one that does not (solve).
    path = str(tmp_path / "inst.json")
    save_instance(generate_instance(GeneratorConfig(seed=21, a_size=40, alpha_target=0.7, decoy_count=3)), path)
    env = {**os.environ, "PYTHONPATH": str(Path(bestprox.__file__).parents[1])}
    for command in ("certify", "solve"):
        read, write = os.pipe()
        os.close(read)
        try:
            argv = [sys.executable, "-m", "bestprox.cli", command, path, "--format", "json"]
            done = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write)
        assert done.returncode == 1, (command, done.stderr)
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr, command


def test_json_report_is_written_as_it_is_encoded(tmp_path):
    # The report's pieces go to stdout as they are encoded, so _emit never
    # holds its whole text: 1.00x the text here, 8.35x when it was built
    # whole by json.dumps.  The bytes are json.dumps's.
    n = 20000
    inst = make_instance(euclidean_metric(), [(0.0, k) for k in range(n)], [(1.0, k) for k in range(n)], [0] * n)
    payload = assessment_payload(inst, assess_instance(inst))
    payload.update({"command": "certify", "instance": "flat.json", "exit_code": 0})
    path = tmp_path / "report.json"
    with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            _emit(argparse.Namespace(format="json"), payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert peak < 2 * len(text), peak / len(text)


def test_each_exit_code_reaches_the_shell(tmp_path):
    # main() returns each code in-process; a child process run outside the
    # checkout must end with it, through entrypoint and sys.exit.
    save_instance(generate_instance(GeneratorConfig(seed=5, a_size=50, alpha_target=0.8)), tmp_path / "budget.json")
    (tmp_path / "bad.json").write_bytes(b"\xff")
    (tmp_path / "neg.json").write_text(NEGATIVE_RATIO_TEXT)
    env = {**os.environ, "PYTHONPATH": str(Path(bestprox.__file__).parents[1])}
    for argv, code, err in (
        (("generate", "inst.json", "--seed", "3"), 0, ""),
        (("certify", "inst.json"), 0, ""),
        (("certify", "bad.json"), 1, "not UTF-8 text"),
        (("solve", "neg.json"), 2, ""),
        (("solve", "budget.json", "--max-iter", "1"), 3, ""),
    ):
        argv = [sys.executable, "-m", "bestprox.cli", *argv]
        done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, (argv, done.stderr)
        assert "Traceback" not in done.stderr, argv
        assert err in done.stderr if err else not done.stderr, (argv, done.stderr)


def test_only_a_certified_constant_guarantees_a_solve(tmp_path, capsys, halving_instance, nonunique_instance, boundary_instance):
    # Every solve result is guaranteed only when the checklist passes (the
    # triangle instance fails only its metric-axioms row), and its trace
    # carries the report's certified alpha_hat, or null where the checklist
    # certified none (a missing or ambiguous partner).
    rng = random.Random(12)
    triangle = tmp_path / "tri.json"
    triangle.write_text(TRIANGLE_TEXT)
    instances = [halving_instance, nonunique_instance, boundary_instance, load_instance(triangle)]
    for kind in ("grid", "matrix") * 10:
        geom, t_map = tie_heavy_case(kind, rng)
        sp = geom.pair
        instances.append(make_instance(sp.metric, sp.a, sp.b, t_map.image, eps_prox=geom.eps_prox))
    path = str(tmp_path / "inst.json")
    seen = set()
    for inst in instances:
        save_instance(inst, path)
        doc = json.loads(run(capsys, "solve", path, "--format", "json")[1])
        for res in doc["results"].values():
            assert doc["hypotheses_ok"] or not res["guaranteed"], doc["checks"]
            assert res["trace"]["alpha_hat"] == doc["alpha_hat"]
            seen.add((doc["alpha_hat"] is None, res["guaranteed"]))
    assert seen == {(True, False), (False, False), (False, True)}

import json

from bestprox import save_instance
from bestprox.cli import main

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
    assert "duplicate points in A" in err


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
        ("oracle", "--tol", "0"),
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


def test_max_iter_exhaustion_exits_3(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", path, "--seed", "5", "--alpha", "0.8", "--a-size", "50")
    code, out, _ = run(capsys, "solve", path, "--max-iter", "1")
    assert code == 3
    assert "max-iterations" in out


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

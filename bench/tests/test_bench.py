"""The benchmark's own checks: known answers, the report checker, the tracer.

    python3 -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bestprox as bp  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bestprox.cli import main as cli_main  # noqa: E402

SMALL = {
    "a0-heavy": {"rungs": 6, "block": 40},
    "ab-heavy": {"rungs": 6, "filler": 50, "decoys": 30},
    "matrix-chain": {"rungs": 12, "decoys": 6},
}


def small(workload, seed):
    payload, answer = workloads.build(workload, seed, **SMALL[workload])
    return bp.parse_instance(json.loads(json.dumps(payload))), payload, answer


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_promised_answer_holds(workload, seed):
    inst, _, answer = small(workload, seed)
    assert (len(inst.pair.a), len(inst.pair.b)) == (answer.size_a, answer.size_b)

    oracle = bp.brute_force_solve(inst.pair, inst.t_map, eps_prox=inst.eps_prox)
    assert oracle.argmin_indices == (answer.fixed_index,)
    assert oracle.is_best_proximity

    assessment = bp.assess_instance(inst)
    assert assessment.hypotheses_ok
    assert len(assessment.geometry.a0) == answer.a0_size
    alpha = assessment.certificate.alpha_hat
    assert alpha < 1.0 and alpha <= answer.alpha + workloads.ALPHA_SLACK
    assert inst.alpha_declared == answer.alpha

    geom = assessment.geometry
    res = bp.banach_iterate(assessment.induced, geom.a0[0], certificate=assessment.certificate)
    assert (res.index, res.iterations) == (answer.fixed_index, answer.iterations)


def test_same_seed_same_file():
    assert small("ab-heavy", 3)[1] == small("ab-heavy", 3)[1]
    assert small("ab-heavy", 3)[1] != small("ab-heavy", 4)[1]


def _report(capsys, tmp_path, payload, command):
    path = tmp_path / "inst.json"
    workloads.write_instance(payload, path)
    code = cli_main([command, str(path), "--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", ["certify", "solve", "oracle"])
def test_checker_accepts_the_cli_report(capsys, tmp_path, command):
    _, payload, answer = small("matrix-chain", 2)
    code, out = _report(capsys, tmp_path, payload, command)
    assert workloads.check_report(command, code, out, answer) == []


def test_checker_rejects_disagreements(capsys, tmp_path):
    _, payload, answer = small("a0-heavy", 2)
    code, out = _report(capsys, tmp_path, payload, "solve")
    report = json.loads(out)
    report["results"]["direct"]["iterations"] += 1
    report["traces_equal"] = False
    problems = workloads.check_report("solve", code, json.dumps(report), answer)
    assert len(problems) == 2
    assert workloads.check_report("solve", 3, out, answer) == ["exit code 3"]
    assert workloads.check_report("setup", 0, "1 2\n", answer)
    assert workloads.check_report("setup", 0, f"{answer.size_a} {answer.size_b}\n", answer) == []


def _trace(tmp_path, payload, command, extra_targets=()):
    inst = tmp_path / "inst.json"
    out = tmp_path / "spans.json"
    workloads.write_instance(payload, inst)
    code = (
        "import sys, tracer; "
        f"tracer.TARGETS += {tuple(extra_targets)!r}; "
        "sys.exit(tracer.main(sys.argv[1:]))"
    )
    argv = [sys.executable, "-c", code, str(out), "--", command, str(inst), "--format", "json"]
    env = dict(os.environ, PYTHONPATH=f"{BENCH}:{ROOT / 'src'}")
    subprocess.run(argv, check=True, env=env, timeout=120)
    return json.loads(out.read_text())


@pytest.mark.parametrize(
    "command, expected",
    [
        ("certify", {"geometry.ab_passes": 2.0, "engine.a0_passes": 2.0}),
        ("solve", {"geometry.ab_passes": 2.0, "engine.a0_passes": 4.0}),
        ("oracle", {"oracle.ab_passes": 1.0}),
    ],
)
def test_trace_pass_counts_and_coverage(tmp_path, command, expected):
    _, payload, answer = small("ab-heavy", 5)
    doc = _trace(tmp_path, payload, command)
    assert doc["exit_code"] == 0 and doc["absent"] == []
    sizes = {"A": answer.size_a, "B": answer.size_b, "A0": answer.a0_size}
    values = tracer.layer_metrics(doc, sizes)
    assert {k: values[k] for k in expected} == expected
    assert 0.0 < values["trace.coverage"] <= 1.0
    assert values["metric.kernel_calls"] > 0


def test_trace_reports_a_missing_name_as_absent(tmp_path):
    _, payload, answer = small("a0-heavy", 5)
    gone = ("metric", "no_such_kernel", "metric.gone")
    doc = _trace(tmp_path, payload, "certify", [gone])
    assert doc["absent"] == ["bestprox.metric.no_such_kernel"]
    sizes = {"A": answer.size_a, "B": answer.size_b, "A0": answer.a0_size}
    assert tracer.layer_metrics(doc, sizes)["engine.a0_passes"] == 2.0


def test_benchmark_json_names_every_reported_metric():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [f"{c}.{m}" for c in run.COMMANDS for m in run.PER_LAYER[c]]
    assert [m["name"] for m in spec["per_layer"]] == layers
    assert {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} == {
        name: run.unit(name.split(".", 1)[-1]) for name in list(run.END_TO_END) + layers
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SIZES)

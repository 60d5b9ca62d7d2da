"""End-to-end and per-layer benchmark of the bestprox CLI.

    python3 bench/run.py --workload a0-heavy --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

It builds a known-answer instance from the seed (see ``workloads.py``),
then runs a closed loop with one client: one child process at a time, the
next only after the previous one has exited.  Each round runs the set-up
probe and ``certify``, ``solve`` and ``oracle`` as users run them
(``python -m bestprox.cli <command> <file> --format json``), times each child
from spawn to exit, reads its peak RSS from ``os.wait4`` and checks its report
against the known answer.  Rounds repeat until ``--seconds`` are used; each
metric is the median over the rounds.

With ``--trace 1`` each round instead runs every command three times: plain
(for the overhead base), under the span tracer (``tracer.py``) for times and
counts, and under the tracer with tracemalloc for per-layer peaks.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in turn.
The program is run from ``src/`` of the checkout this file sits in; all files
go to ``.bench_build/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("certify", "solve", "oracle")
SETUP_CODE = (
    "import sys, bestprox; inst = bestprox.load_instance(sys.argv[1]); "
    "print(len(inst.pair.a), len(inst.pair.b))"
)
# A run must exit within 180 s; stop starting children after this.
RUN_LIMIT_S = 170.0

END_TO_END = ("setup_s", "certify_s", "solve_s", "oracle_s", "certify_rss_mb", "solve_rss_mb", "oracle_rss_mb")

_COMMON = (
    "instance.load_s",
    "instance.bytes",
    "metric.kernel_s",
    "metric.kernel_calls",
    "metric.kernel_entries",
    "metric.kernel_bytes",
    "metric.scalar_calls",
    "metric.scalar_s",
    "cli.self_s",
    "cli.output_bytes",
    "trace.wall_s",
    "trace.coverage",
    "trace.overhead",
    "instance.peak_mb",
    "metric.peak_mb",
    "cli.peak_mb",
)
_ASSESS = (
    "metric.validate_s",
    "geometry.prox_s",
    "geometry.ab_passes",
    "engine.certify_s",
    "engine.alpha_pairs",
    "engine.a0_passes",
    "report.assess_s",
    "report.payload_s",
    "report.render_s",
    "geometry.peak_mb",
    "engine.peak_mb",
    "report.peak_mb",
)
#: Per-layer metrics reported for each command, as ``<command>.<metric>``.
PER_LAYER = {
    "certify": _COMMON + _ASSESS,
    "solve": _COMMON + _ASSESS + ("engine.iterate_s", "engine.iterations", "engine.verify_s"),
    "oracle": _COMMON + ("oracle.brute_s", "oracle.ab_passes", "geometry.peak_mb", "oracle.peak_mb"),
}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(("_passes", "coverage", "overhead")):
        return "ratio"
    return "count"


class Child(NamedTuple):
    """Outcome of one child process."""

    wall: float
    rss_mb: float
    exit_code: int
    stdout: str


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired


class Harness:
    """One benchmark run: the instance, its answer, the tallies."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.deadline = deadline
        self.workdir = ROOT / ".bench_build" / "bench" / workload
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.instance = self.workdir / "instance.json"
        payload, self.answer = workloads.build(workload, seed)
        workloads.write_instance(payload, self.instance)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sizes(self) -> dict:
        a = self.answer
        return {"A": a.size_a, "B": a.size_b, "A0": a.a0_size}

    def spawn(self, argv: list[str]) -> Child:
        """Run ``argv`` to completion; wall time from spawn to reap."""
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise _Expired
        old = signal.signal(signal.SIGALRM, _expire)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except _Expired:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        return Child(wall, usage.ru_maxrss / 1024, proc.returncode, out_path.read_text())

    def check(self, command: str, exit_code: int, stdout: str) -> None:
        self.attempted += 1
        problems = workloads.check_report(command, exit_code, stdout, self.answer)
        if problems:
            self.failed += 1
            self.problems.append(f"{command}: " + "; ".join(problems))

    def run_command(self, command: str) -> Child:
        if command == "setup":
            argv = [sys.executable, "-c", SETUP_CODE, str(self.instance)]
        else:
            argv = [sys.executable, "-m", "bestprox.cli", command, str(self.instance), "--format", "json"]
        child = self.spawn(argv)
        self.check(command, child.exit_code, child.stdout)
        return child

    def run_traced(self, command: str, malloc: bool) -> tuple[Child, dict]:
        spans = self.workdir / "spans.json"
        argv = [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans)]
        argv += ["--malloc"] if malloc else []
        argv += ["--", command, str(self.instance), "--format", "json"]
        child = self.spawn(argv)
        doc = json.loads(spans.read_text()) if child.exit_code == 0 else None
        if doc is None:
            self.check(command, child.exit_code, "")
        else:
            self.check(command, doc["exit_code"], doc["stdout"])
        return child, doc


def rounds(seconds: float, deadline: float, body) -> None:
    """Call ``body`` until another round would overrun ``seconds``; at least once."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - began) > seconds or now + (now - began) > deadline:
            return


def measure_end_to_end(harness: Harness, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}

    def body():
        samples["setup_s"].append(harness.run_command("setup").wall)
        for command in COMMANDS:
            child = harness.run_command(command)
            samples[f"{command}_s"].append(child.wall)
            samples[f"{command}_rss_mb"].append(child.rss_mb)

    rounds(seconds, harness.deadline, body)
    return samples


def measure_layers(harness: Harness, seconds: float) -> tuple[dict[str, list[float]], list[str]]:
    samples: dict[str, list[float]] = {}
    notes: list[str] = []
    size = harness.instance.stat().st_size

    def body():
        for command in COMMANDS:
            plain = harness.run_command(command)
            timed, doc = harness.run_traced(command, malloc=False)
            _, mem = harness.run_traced(command, malloc=True)
            if doc is None or mem is None:
                continue
            values = tracer.layer_metrics(doc, harness.sizes())
            peaks = tracer.layer_metrics(mem, harness.sizes())
            values.update({k: v for k, v in peaks.items() if k.endswith(".peak_mb")})
            values["instance.bytes"] = size
            values["trace.overhead"] = timed.wall / plain.wall
            for metric in PER_LAYER[command]:
                samples.setdefault(f"{command}.{metric}", []).append(values[metric])
            self_total = values["trace.coverage"] * values["trace.wall_s"]
            notes.append(
                f"{command}: coverage {values['trace.coverage']:.1%} "
                f"(self times {self_total - values['cli.self_s']:.4f} s + cli.self_s "
                f"{values['cli.self_s']:.4f} s of traced wall {values['trace.wall_s']:.4f} s)"
            )
            notes.extend(f"{command}: absent {name}" for name in doc["absent"])

    rounds(seconds, harness.deadline, body)
    return samples, sorted(set(notes))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    harness = Harness(workload, seed, deadline)
    try:
        harness.run_command("setup")  # warm-up: byte-compiles the package
        if trace:
            samples, notes = measure_layers(harness, seconds)
        else:
            samples, notes = measure_end_to_end(harness, seconds), []
    except _Expired:
        raise SystemExit(f"{workload}: run limit of {RUN_LIMIT_S:.0f} s reached")
    names = [f"{c}.{m}" for c in COMMANDS for m in PER_LAYER[c]] if trace else END_TO_END
    missing = [n for n in names if not samples.get(n)]
    if missing:
        raise SystemExit(f"{workload}: no samples for {', '.join(missing)}")
    metrics = {}
    for name in names:
        value = statistics.median(samples[name])
        metrics[name] = {"value": value, "unit": unit(name)}
        print(f"{workload} {name} = {value:.6g} {unit(name)} (median of {len(samples[name])})")
    for line in notes + harness.problems:
        print(f"{workload} {line}")
    print(
        f"{workload} fail_frac = {harness.failed}/{harness.attempted} "
        f"= {harness.failed / harness.attempted:.4g}"
    )
    return {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bestprox" / "cli.py").is_file():
        print(f"error: no bestprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.SIZES) if args.workload == "all" else [args.workload]
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of one CLI command, and the per-layer metrics it yields.

Run as a script, this module imports ``bestprox``, wraps the public function
of each layer in every ``bestprox`` module that holds a reference to it (the
CLI and the report import names directly), calls ``bestprox.cli.main(argv)``
in-process with stdout captured, and writes the spans to a JSON file::

    python3 bench/tracer.py OUT.json [--malloc] -- certify inst.json --format json

Each span records its name, start, end, parent and (with ``--malloc``) the
tracemalloc peak inside it.  Spans stay in memory until the command ends.
A wrapped name the program no longer defines is listed as absent; the
metrics that depend on it then read 0.

:func:`layer_metrics` turns such a file into the ``<layer>.<metric>`` values.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
import tracemalloc

# (module defining the function, function name, span name).  The span's
# layer is the part of its name before the first dot.
TARGETS = (
    ("instance", "load_instance", "instance.load"),
    ("metric", "pairwise_distances", "metric.kernel"),
    ("metric", "distance", "metric.scalar"),
    ("metric", "validate_metric", "metric.validate"),
    ("geometry", "proximal_subsets", "geometry.prox"),
    ("geometry", "pair_distance", "geometry.pair_distance"),
    ("engine", "build_induced_map", "engine.induced_map"),
    ("engine", "certify_contraction", "engine.certify"),
    ("engine", "banach_iterate", "engine.iterate"),
    ("engine", "direct_iterate", "engine.iterate"),
    ("engine", "verify_result", "engine.verify"),
    ("oracle", "brute_force_solve", "oracle.brute"),
    ("report", "assess_instance", "report.assess"),
    ("report", "assessment_payload", "report.payload"),
    ("report", "result_payload", "report.payload"),
    ("report", "render_assessment", "report.render"),
    ("report", "render_result", "report.render"),
    ("cli", "build_parser", "cli.parse"),
)

MB = 1024 * 1024


class Recorder:
    """Keeps the span list and the stack of open spans.

    A span is ``[name, start, end, parent, peak]``; ``parent`` is an index
    into the list or -1.  With tracemalloc on, ``peak`` is the highest traced
    memory seen while the span was open, its children included.
    """

    def __init__(self, malloc: bool):
        self.malloc = malloc
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}
        self.stack: list[int] = []
        self.broken: set[str] = set()

    def open(self, name: str) -> int:
        peak = 0
        if self.malloc:
            current, seen = tracemalloc.get_traced_memory()
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent[4] = max(parent[4], seen)
            tracemalloc.reset_peak()
            peak = current
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, peak])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if self.malloc:
            span[4] = max(span[4], tracemalloc.get_traced_memory()[1])
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent[4] = max(parent[4], span[4])

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                try:
                    self.counts[idx] = count(args, result)
                except (AttributeError, IndexError, TypeError):
                    # The program changed the shape this counter reads.
                    self.broken.add(name)
            return result

        return traced


def _kernel_count(args, result):
    """Entries of the distance table, and the bytes its computation moves
    (computed from shapes): the (rows, |qs|, d) difference tensor for
    coordinates, the full-table copy for matrix spaces."""
    metric, ps, qs = args[:3]
    entries = len(ps) * len(qs)
    if metric.matrix is None:
        moved = entries * len(ps[0]) * 8 if entries else 0
    else:
        moved = len(metric.matrix) ** 2 * 8
    return {"entries": entries, "bytes": moved}


COUNTERS = {
    "metric.kernel": _kernel_count,
    "engine.certify": lambda args, res: {"pairs": res.pair_count},
    "engine.iterate": lambda args, res: {"iterations": res.iterations},
}


def install(recorder: Recorder) -> list[str]:
    """Wrap every target in every loaded bestprox module; return the absent ones."""
    import bestprox.cli  # noqa: F401  (loads every layer)

    modules = [m for k, m in sys.modules.items() if k == "bestprox" or k.startswith("bestprox.")]
    absent = []
    for mod_name, fn_name, span in TARGETS:
        original = getattr(sys.modules.get(f"bestprox.{mod_name}"), fn_name, None)
        if original is None:
            absent.append(f"bestprox.{mod_name}.{fn_name}")
            continue
        if span == "cli.parse":
            traced = _traced_parser(recorder, original)
        else:
            traced = recorder.wrap(span, original, COUNTERS.get(span))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
    cli = sys.modules["bestprox.cli"]
    cli.json = _JsonProxy(recorder.wrap("cli.dumps", json.dumps))
    cli.print = recorder.wrap("cli.print", print)
    return absent


def _traced_parser(recorder: Recorder, build_parser):
    def build(*args, **kwargs):
        idx = recorder.open("cli.parse")
        try:
            parser = build_parser(*args, **kwargs)
        finally:
            recorder.close(idx)
        parser.parse_args = recorder.wrap("cli.parse", parser.parse_args)
        return parser

    return build


class _JsonProxy:
    """Stands in for the ``json`` module inside the CLI with a traced dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def trace_main(argv: list[str], malloc: bool) -> dict:
    recorder = Recorder(malloc)
    absent = install(recorder)
    import bestprox.cli

    out = io.StringIO()
    if malloc:
        tracemalloc.start(1)
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = bestprox.cli.main(argv)
    end = time.perf_counter()
    if malloc:
        tracemalloc.stop()
    return {
        "exit_code": code,
        "start": start,
        "end": end,
        "stdout": out.getvalue(),
        "spans": recorder.spans,
        "counts": {str(k): v for k, v in recorder.counts.items()},
        "absent": absent + [f"counters of {name}" for name in sorted(recorder.broken)],
    }


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(doc: dict, sizes: dict) -> dict[str, float]:
    """Per-layer values of one traced command.

    ``sizes`` holds ``A``, ``B`` and ``A0``, the set sizes the pass ratios
    divide by.  Times are self times (span minus its children) unless the
    metric is marked inclusive in the benchmark documentation.
    """
    spans = doc["spans"]
    counts = {int(k): v for k, v in doc["counts"].items()}
    wall = doc["end"] - doc["start"]
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_t[s[3]] -= dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def total(values, name):
        return sum(v for v, s in zip(values, spans) if s[0] == name)

    def counted(name, key):
        return sum(c.get(key, 0) for i, c in counts.items() if spans[i][0] == name)

    def nearest_layer(i):
        return next((_layer(spans[p][0]) for p in ancestors(i) if _layer(spans[p][0]) != "metric"), None)

    kernel = [i for i, s in enumerate(spans) if s[0] == "metric.kernel"]
    entries = {i: counts.get(i, {}).get("entries", 0) for i in kernel}
    ab, a0 = sizes["A"] * sizes["B"], sizes["A0"] ** 2
    covered = sum(self_t)
    out = {
        "instance.load_s": total(self_t, "instance.load"),
        "metric.kernel_s": total(self_t, "metric.kernel"),
        "metric.kernel_calls": len(kernel),
        "metric.kernel_entries": sum(entries.values()),
        "metric.kernel_bytes": counted("metric.kernel", "bytes"),
        "metric.scalar_calls": sum(1 for s in spans if s[0] == "metric.scalar"),
        "metric.scalar_s": total(self_t, "metric.scalar"),
        "metric.validate_s": total(self_t, "metric.validate"),
        "geometry.prox_s": total(dur, "geometry.prox"),
        "geometry.ab_passes": sum(e for i, e in entries.items() if nearest_layer(i) == "geometry") / ab,
        "engine.certify_s": total(dur, "engine.certify"),
        "engine.alpha_pairs": counted("engine.certify", "pairs"),
        "engine.a0_passes": sum(e for i, e in entries.items() if nearest_layer(i) == "engine") / a0,
        "engine.iterate_s": total(self_t, "engine.iterate"),
        "engine.iterations": counted("engine.iterate", "iterations"),
        "engine.verify_s": total(self_t, "engine.verify"),
        "oracle.brute_s": total(dur, "oracle.brute"),
        "oracle.ab_passes": sum(
            e for i, e in entries.items() if any(spans[p][0] == "oracle.brute" for p in ancestors(i))
        )
        / ab,
        "report.assess_s": total(self_t, "report.assess"),
        "report.payload_s": total(self_t, "report.payload"),
        "report.render_s": total(self_t, "report.render"),
        "cli.self_s": sum(t for t, s in zip(self_t, spans) if _layer(s[0]) == "cli"),
        "cli.output_bytes": len(doc["stdout"].encode()),
        "trace.wall_s": wall,
        "trace.coverage": covered / wall,
    }
    for layer in ("instance", "metric", "geometry", "engine", "oracle", "report", "cli"):
        peaks = [s[4] for s in spans if _layer(s[0]) == layer]
        out[f"{layer}.peak_mb"] = max(peaks, default=0) / MB
    return out


def main(argv: list[str]) -> int:
    out_path, rest = argv[0], argv[1:]
    malloc = rest[:1] == ["--malloc"]
    if malloc:
        rest = rest[1:]
    if rest[:1] != ["--"]:
        print("usage: tracer.py OUT.json [--malloc] -- <bestprox argv>", file=sys.stderr)
        return 2
    doc = trace_main(rest[1:], malloc)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Known-answer instances for the benchmark, and the checker behind fail_frac.

Every workload is a *ladder*: rungs r_0 .. r_K in A with strictly decreasing
integer spacings s_k = K - k, their mirrors in B at distance ``gap``, and
T(r_k) = mirror(r_{k+1}), T(r_K) = mirror(r_K).  The induced map is the
ladder shift, so the unique best proximity point is the terminator r_K, the
iteration from r_0 takes K + 1 steps (the last one confirms the fixed point),
and alpha_hat = (K - 1) / K, attained by the top pair (r_0, r_1).  The rest of
each instance loads one layer of the solver without changing that answer:

* ``a0-heavy``  -- a block of A-points on a sphere of radius ``gap`` around a
  hub of B that T never hits.  They all join A0 and S collapses them onto
  r_K, so the A0 x A0 certificate dominates while A x B stays small.
* ``ab-heavy``  -- 16-D coordinates, the ladder along a random direction,
  filler in A and decoys in B far from each other.  A0 is the ladder alone,
  so the A x B scans (geometry, oracle) dominate and the certificate is tiny.
* ``matrix-chain`` -- an exact integer taxicab table over a long ladder plus
  decoys, stored as an explicit matrix.  Loading the table and the long
  iteration dominate.

Only the instance file reaches the program.  The same seed gives the same
file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Sizes of the benchmark instances; tests build the same shapes smaller.
SIZES = {
    "a0-heavy": {"rungs": 31, "block": 2000},
    "ab-heavy": {"rungs": 31, "filler": 2000, "decoys": 1200, "dim": 16},
    "matrix-chain": {"rungs": 401, "decoys": 200},
}

# Slack on "alpha_hat <= declared alpha".  The declared value is the exact
# constant of the construction; coordinate rounding may lift alpha_hat by a
# few ulps.  Same slack as the program's own cross-check.
ALPHA_SLACK = 1e-12


@dataclass(frozen=True)
class Answer:
    """What the construction promises about its instance."""

    size_a: int
    size_b: int
    a0_size: int
    fixed_index: int  # A-position of the unique best proximity point
    iterations: int  # from the default start a0[0] = r_0
    alpha: float  # exact contraction constant, also written as "alpha"


def _ladder(rungs: int) -> np.ndarray:
    """Heights w_0 > ... > w_K = 0 with spacings K, K-1, ..., 1."""
    k = rungs - 1
    spacings = np.arange(k, 0, -1, dtype=np.int64)
    return np.concatenate([np.cumsum(spacings[::-1])[::-1], [0]])


def _answer(rungs: int, size_a: int, size_b: int, a0_size: int) -> Answer:
    k = rungs - 1
    return Answer(size_a, size_b, a0_size, k, rungs, (k - 1) / k)


def _shift_map(rungs: int) -> list[int]:
    return list(range(1, rungs)) + [rungs - 1]


def build_a0_heavy(seed: int, rungs: int, block: int) -> tuple[dict, Answer]:
    rng = np.random.default_rng(seed)
    w = _ladder(rungs)
    gap = int(rng.integers(4, 10))
    base = rng.integers(-50, 50, size=3)
    a_ladder = np.zeros((rungs, 3), dtype=np.int64) + base
    a_ladder[:, 1] += w
    mirrors = a_ladder + [gap, 0, 0]
    # The hub sits far below the ladder; the block lies on its gap-sphere.
    far = 10 * (int(w[0]) + gap)
    hub = base + [0, -far, 0]
    u = rng.normal(size=(block, 3))
    sphere = hub + gap * (u / np.linalg.norm(u, axis=1, keepdims=True))
    payload = {
        "metric": {"kind": "euclidean"},
        "A": a_ladder.astype(float).tolist() + sphere.tolist(),
        "B": mirrors.astype(float).tolist() + [hub.astype(float).tolist()],
        "T": _shift_map(rungs) + [rungs - 1] * block,
        "alpha": (rungs - 2) / (rungs - 1),
    }
    return payload, _answer(rungs, rungs + block, rungs + 1, rungs + block)


def build_ab_heavy(
    seed: int, rungs: int, filler: int, decoys: int, dim: int
) -> tuple[dict, Answer]:
    rng = np.random.default_rng(seed)
    w = _ladder(rungs).astype(float)
    gap = float(rng.integers(4, 10))

    def unit(*against):
        v = rng.normal(size=dim)
        for a in against:
            v -= (v @ a) * a
        return v / np.linalg.norm(v)

    along = unit()
    across = unit(along)
    away = unit(along, across)
    center = rng.normal(scale=10.0, size=dim)
    a_ladder = center + w[:, None] * along
    mirrors = a_ladder + gap * across
    # Filler and decoys are Gaussian clouds on opposite sides of the ladder,
    # each at least `far` - 4 * spread from every point of the other set.
    far = 10.0 * (w[0] + gap)
    spread = w[0] / 4
    fill = center + far * away + rng.normal(scale=spread, size=(filler, dim))
    decoy = center - far * away + rng.normal(scale=spread, size=(decoys, dim))
    payload = {
        "metric": {"kind": "euclidean"},
        "A": a_ladder.tolist() + fill.tolist(),
        "B": mirrors.tolist() + decoy.tolist(),
        "T": _shift_map(rungs) + rng.integers(0, rungs + decoys, size=filler).tolist(),
        "alpha": (rungs - 2) / (rungs - 1),
    }
    return payload, _answer(rungs, rungs + filler, rungs + decoys, rungs)


def build_matrix_chain(seed: int, rungs: int, decoys: int) -> tuple[dict, Answer]:
    rng = np.random.default_rng(seed)
    w = _ladder(rungs)
    gap = int(rng.integers(2, 10))
    # Plane coordinates: rungs at x = 0, mirrors at x = gap, decoys beyond
    # the top rung, at least gap + 2 from every rung.
    x = np.concatenate(
        [np.zeros(rungs, np.int64), np.full(rungs, gap), gap + rng.integers(1, 50, size=decoys)]
    )
    y = np.concatenate([w, w, w[0] + 1 + np.arange(decoys)])
    # Table positions are a seeded permutation of the points.
    order = rng.permutation(len(x))
    pos = np.empty_like(order)
    pos[order] = np.arange(len(x))
    xs, ys = x[order], y[order]
    table = np.abs(xs[:, None] - xs[None, :]) + np.abs(ys[:, None] - ys[None, :])
    payload = {
        "metric": {"kind": "explicit-matrix", "matrix": table.tolist()},
        "A": pos[:rungs].tolist(),
        "B": pos[rungs:].tolist(),
        "T": _shift_map(rungs),
        "alpha": (rungs - 2) / (rungs - 1),
    }
    return payload, _answer(rungs, rungs, rungs + decoys, rungs)


CONSTRUCTIONS = {
    "a0-heavy": build_a0_heavy,
    "ab-heavy": build_ab_heavy,
    "matrix-chain": build_matrix_chain,
}


def build(workload: str, seed: int, **sizes) -> tuple[dict, Answer]:
    """Instance payload and promised answer; ``sizes`` override SIZES."""
    return CONSTRUCTIONS[workload](seed, **{**SIZES[workload], **sizes})


def write_instance(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def check_report(command: str, exit_code: int, stdout: str, answer: Answer) -> list[str]:
    """Disagreements between one invocation and the promised answer.

    ``command`` is ``setup`` (whose child prints "|A| |B|") or a CLI command
    run with ``--format json``.  An empty list means the invocation passed.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if command == "setup":
        want = f"{answer.size_a} {answer.size_b}"
        got = stdout.strip()
        return [] if got == want else [f"loaded sizes {got!r}, want {want!r}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as err:
        return [f"report is not JSON: {err}"]
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label} = {got!r}, want {want!r}")

    if command == "oracle":
        expect("argmin_indices", report.get("argmin_indices"), [answer.fixed_index])
        expect("is_best_proximity", report.get("is_best_proximity"), True)
        return problems
    expect("a0_size", report.get("a0_size"), answer.a0_size)
    alpha = report.get("alpha_hat")
    if not isinstance(alpha, float) or not alpha < 1.0 or alpha > answer.alpha + ALPHA_SLACK:
        problems.append(f"alpha_hat = {alpha!r}, want < 1 and <= {answer.alpha!r}")
    if command == "solve":
        results = report.get("results", {})
        for method in ("induced", "direct"):
            res = results.get(method, {})
            expect(f"{method} index", res.get("index"), answer.fixed_index)
            expect(f"{method} iterations", res.get("iterations"), answer.iterations)
        expect("traces_equal", report.get("traces_equal"), True)
    return problems

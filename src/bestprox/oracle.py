"""Ground truth by exhaustive minimization, and seeded instance synthesis.

The brute-force solver minimizes x -> d(x, T(x)) over all of A directly; a
best proximity point exists exactly when that minimum equals d(A,B).

The generator manufactures instances that satisfy every hypothesis of the
induced-map reduction by construction.  Random finite A/B almost never admit
a well-defined induced map, so instead of sampling and rejecting we build a
geometric ladder that is exactly closed under the intended map:

    values  w_0 > w_1 > ... > w_K > 0,   w_{k+1} ~ alpha * w_k,   last value 0
    A       = {0} x values            (the slab at x = 0)
    B       = {gap} x values + decoys (the mirrored slab at x = gap)
    T(0, w_k) = (gap, w_{k+1}),  T(0, 0) = (gap, 0)

The ladder is an orbit shifted so its terminator is exactly 0.0, which makes
every proximal partner an exact float equality; generated instances therefore
carry eps_prox = 0.  The unique best proximity point is the origin, the
induced map is the ladder shift, and every pair ratio is <= alpha.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .engine import ProximityMap
from .geometry import SetPair, proximal_subsets
from .instance import Instance, make_instance
from .metric import EUCLIDEAN, EXPLICIT_MATRIX, Metric, paired_distances

# Floor for the orbit cut-off; raised when alpha or the gap would push ladder
# spacing under the float-exact partner radius (see _orbit_threshold).
ORBIT_TRUNCATION = 1e-6

# Matrix-family ladders are built on an exact dyadic integer grid; alpha is
# quantized to ALPHA_GRID-ths, ladder length is bounded, and a gap that would
# take an entry to 2**53 grid units is refused, so every table entry stays an
# exact float64.
ALPHA_GRID = 16
_MATRIX_MAX_LADDER = 12


@dataclass(frozen=True)
class BruteForceSolution:
    """Exact minimizers of d(x, T(x)) over A (lowest index first)."""

    min_value: float
    argmin_indices: tuple[int, ...]
    argmin_points: np.ndarray  # the rows of A at argmin_indices
    pair_distance: float
    is_best_proximity: bool


def brute_force_solve(sp: SetPair, t_map: ProximityMap, eps_prox: float | None = None) -> BruteForceSolution:
    """``eps_prox`` defaults per metric kind, as in :func:`proximal_subsets`."""
    t_map.validate(sp)
    values = paired_distances(sp.metric, sp.a, sp.b[t_map.image])
    best = float(values.min())
    argmin = np.flatnonzero(values == best)
    geom = proximal_subsets(sp, eps_prox)
    return BruteForceSolution(
        min_value=best,
        argmin_indices=tuple(argmin.tolist()),
        argmin_points=sp.a[argmin],
        pair_distance=geom.pair_distance,
        is_best_proximity=best <= geom.pair_distance + geom.eps_prox,
    )


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    space_kind: str = EUCLIDEAN
    a_size: int = 12
    b_size: int = 0  # floor on |B|, met by adding decoys; 0 means derived
    alpha_target: float = 0.5
    slab_gap: float = 1.0
    decoy_count: int = 2

    def __post_init__(self) -> None:
        if self.space_kind not in (EUCLIDEAN, EXPLICIT_MATRIX):
            raise ValueError(f"unknown space kind {self.space_kind!r}")
        if not 0.0 <= self.alpha_target < 1.0:
            raise ValueError("alpha_target must lie in [0, 1)")
        if self.a_size < 1:
            raise ValueError("a_size must be >= 1")
        if not (math.isfinite(self.slab_gap) and self.slab_gap > 0):
            raise ValueError("slab_gap must be finite and > 0")
        if self.decoy_count < 0 or self.b_size < 0:
            raise ValueError("counts must be nonnegative")


def generate_instance(cfg: GeneratorConfig) -> Instance:
    """Synthesize an instance with a known unique best proximity point.

    Identical configs produce identical instances byte for byte (the only
    randomness is a private ``random.Random(cfg.seed)``).
    """
    rng = random.Random(cfg.seed)
    if cfg.space_kind == EUCLIDEAN:
        return _generate_euclidean(cfg, rng)
    return _generate_matrix(cfg, rng)


def _orbit_threshold(gap: float, alpha: float) -> float:
    # Radius below which sqrt(gap^2 + delta^2) collapses to gap in float64;
    # ladder spacing (1 - alpha) * threshold must clear it with margin, or
    # partner uniqueness would be lost.
    delta_exact = math.sqrt(0.5 * math.ulp(gap * gap))
    return max(ORBIT_TRUNCATION, 40.0 * delta_exact / max(1.0 - alpha, 1e-3))


def _generate_euclidean(cfg: GeneratorConfig, rng: random.Random) -> Instance:
    gap = float(cfg.slab_gap)
    alpha = float(cfg.alpha_target)
    seed_value = rng.uniform(0.25, 1.5) * rng.choice((1.0, -1.0))

    if cfg.a_size == 1:
        values = [0.0]
    else:
        threshold = _orbit_threshold(gap, alpha)
        orbit = [seed_value]
        while len(orbit) + 1 < cfg.a_size and abs(alpha * orbit[-1]) >= threshold:
            orbit.append(alpha * orbit[-1])
        terminator = alpha * orbit[-1]
        values = [v - terminator for v in orbit] + [0.0]
        spacing = min(abs(x - y) for x, y in zip(values, values[1:]))
        if spacing <= 4.0 * math.sqrt(0.5 * math.ulp(gap * gap)):
            raise ValueError(f"slab_gap {gap!r} too large for alpha_target {alpha!r}: ladder spacing degenerates")

    a_pts = [(0.0, w) for w in values]
    mirror = [(gap, w) for w in values]
    span = max(values) - min(values)
    n_decoys = max(cfg.decoy_count, cfg.b_size - len(mirror))
    far = 3.0 * (gap + span) + 1.0
    decoys = [(gap + far + j * (1.0 + span), 0.0) for j in range(n_decoys)]

    size = len(values)
    t_image = list(range(1, size)) + [size - 1]
    return make_instance(
        Metric(EUCLIDEAN),
        a_pts,
        mirror + decoys,
        t_image,
        eps_prox=0.0,
        alpha_declared=alpha,
    )


def _generate_matrix(cfg: GeneratorConfig, rng: random.Random) -> Instance:
    # Quantize alpha downward so the ladder recursion stays in integers:
    # n_{k+1} = n_k * q / ALPHA_GRID exactly, hence every pair ratio is
    # exactly q/ALPHA_GRID <= alpha_target.
    q = int(math.floor(cfg.alpha_target * ALPHA_GRID))
    if q == 0:
        natural_depth = 0
    else:
        # Same magnitude cut-off as the euclidean family, ORBIT_TRUNCATION of
        # the first rung, so both kinds build ladders of about one depth for
        # one alpha and a_size is a ceiling for both; the exact integer grid
        # needs no such floor itself.
        natural_depth = max(0, math.floor(math.log(ORBIT_TRUNCATION) / math.log(q / ALPHA_GRID)))
    size = min(cfg.a_size, _MATRIX_MAX_LADDER, natural_depth + 2)

    if size == 1:
        ints = [0]
        grid_bits = 4
    else:
        depth = size - 2
        scale_seed = rng.choice((1, 3, 5, 7))
        n0 = scale_seed * ALPHA_GRID ** (depth + 1)
        ladder = [n0]
        for _ in range(depth):
            nxt = ladder[-1] * q // ALPHA_GRID
            ladder.append(nxt)
        terminator = ladder[-1] * q // ALPHA_GRID
        ints = [n - terminator for n in ladder] + [0]
        grid_bits = n0.bit_length()

    scale = 2.0 ** (-grid_bits)
    gap_grid = cfg.slab_gap * 2**grid_bits
    gap_int = max(1, round(min(gap_grid, 2**53)))  # an infinite gap_grid is refused below
    span_int = max(ints) - min(ints)

    n_ladder = len(ints)
    n_decoys = max(cfg.decoy_count, cfg.b_size - n_ladder)
    far_base = 3 * (span_int + gap_int)
    # The largest entry, from A's height-0 point to the last decoy, stays
    # below 2**53 grid units, so every entry is an exact float64.
    if gap_int + far_base + n_decoys - 1 >= 2**53:
        raise ValueError(f"slab_gap {cfg.slab_gap!r} too large for alpha_target {cfg.alpha_target!r}: a table entry would not be an exact float")
    decoy_ints = [far_base + j for j in range(n_decoys)]

    # Taxicab embedding: A at x = 0, B at x = gap_int, all on one integer
    # grid, so every table entry is exact and the triangle inequality holds
    # exactly.
    coords = np.array(
        [(0, n) for n in ints] + [(gap_int, n) for n in ints] + [(gap_int, n) for n in decoy_ints],
        dtype=np.int64,
    )
    total = len(coords)
    # Each axis's |difference| table is added into one float64 table through
    # one scratch table; every partial sum is an integer below 2**53 and the
    # scale a power of two, so this is exact.  Read-only, the table is kept by
    # Metric without a copy.
    matrix = np.zeros((total, total))
    step = np.empty_like(matrix)
    for axis in coords.T:
        matrix += np.abs(np.subtract.outer(axis, axis, out=step), out=step)
    matrix *= scale
    matrix.flags.writeable = False

    a_idx = list(range(n_ladder))
    b_idx = list(range(n_ladder, total))
    t_image = list(range(1, n_ladder)) + [n_ladder - 1]
    return make_instance(
        Metric(EXPLICIT_MATRIX, matrix),
        a_idx,
        b_idx,
        t_image,
        eps_prox=0.0,
        alpha_declared=q / ALPHA_GRID,
    )

"""Pair geometry: d(A,B), the proximal subsets A0/B0, and partner relations.

For finite sets d(A,B) is an exact minimum over the product A x B.  A point of
A belongs to A0 when some point of B realizes that minimum with it, up to the
``eps_prox`` tolerance (exact arithmetic corresponds to eps_prox = 0; square
roots on coordinate spaces motivate the small default there).

d(A,B), A0, B0 and the partner relation all come from one pass over A x B
in fixed row blocks: each block lowers a running minimum and keeps its
entries within eps_prox of it, and the kept entries are cut at the final
d(A,B) + eps_prox.  The result is identical to a full-table computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metric import EUCLIDEAN, EXPLICIT_MATRIX, Metric, paired_distances, pairwise_distances, table_indices

# Row block size for the product scan; keeps memory bounded on 1e4-point sets.
_CHUNK = 1024

DEFAULT_EPS_EUCLIDEAN = 1e-9
DEFAULT_EPS_MATRIX = 0.0


class DuplicatePointError(ValueError):
    """Two points of one set coincide (distance zero), which would make
    partner-uniqueness checks ill-posed."""

    def __init__(self, side: str, i: int, j: int):
        self.side = side
        self.indices = (i, j)
        super().__init__(f"duplicate points in {side}: positions {i} and {j} are at distance 0")


def default_eps_prox(metric: Metric) -> float:
    """Matrix distances are exact inputs; coordinate distances carry
    square-root rounding, hence the small nonzero default."""
    return DEFAULT_EPS_EUCLIDEAN if metric.kind == EUCLIDEAN else DEFAULT_EPS_MATRIX


@dataclass(frozen=True, eq=False)
class SetPair:
    """The nonempty finite sets A and B over one metric.

    ``a`` and ``b`` are stored as read-only arrays: ``(n, d)`` float64
    coordinates in euclidean spaces, ``(n,)`` int64 table indices in matrix
    spaces.  Construction checks shape, finiteness and index range on the
    whole array, rejects coordinates so far apart that a distance could
    overflow, and rejects duplicates within either set, that is two points at
    distance 0 (silent dedup would change |A0| behind the user's back).
    """

    metric: Metric
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = _point_array(self.metric, self.a, "A")
        b = _point_array(self.metric, self.b, "B")
        if a.shape[1:] != b.shape[1:]:
            raise ValueError(f"points of mixed dimensions: {sorted([a.shape[1], b.shape[1]])}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.metric.kind == EUCLIDEAN:
            # The kernel's bounding-box diagonal bounds every distance it can
            # compute between these points, so a finite one rules out overflow.
            pts = np.concatenate([a, b])
            with np.errstate(over="ignore"):
                diagonal = paired_distances(self.metric, pts.min(0)[None], pts.max(0)[None])
            if not np.isfinite(diagonal[0]):
                raise ValueError("coordinates of A and B too far apart: their bounding-box diagonal overflows")
        _reject_duplicates(self.metric, a, "A")
        _reject_duplicates(self.metric, b, "B")


def _point_array(metric: Metric, pts, side: str) -> np.ndarray:
    if len(pts) == 0:
        raise ValueError("A and B must be nonempty")
    if metric.kind == EUCLIDEAN:
        try:
            arr = np.array(pts, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"points of {side} must be coordinate vectors of one dimension") from None
        if arr.ndim != 2 or not arr.shape[1]:
            raise ValueError(f"points of {side} must be coordinate vectors of dimension >= 1")
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if len(bad):
            raise ValueError(f"non-finite coordinate in {side}[{bad[0]}]")
    else:
        arr = table_indices(metric, pts)
        if arr.ndim != 1:
            raise ValueError(f"matrix-space points of {side} must be integer indices")
    arr.flags.writeable = False
    return arr


def _reject_duplicates(metric: Metric, pts: np.ndarray, side: str) -> None:
    seen: dict = {}
    for i, key in enumerate(map(tuple, pts.reshape(len(pts), -1).tolist())):
        if key in seen:
            raise DuplicatePointError(side, seen[key], i)
        seen[key] = i
    if metric.kind == EXPLICIT_MATRIX:
        d = pairwise_distances(metric, pts, pts)
        np.fill_diagonal(d, np.inf)
        hits = np.argwhere(d == 0.0)
        if len(hits):
            i, j = sorted(int(v) for v in hits[0])
            raise DuplicatePointError(side, i, j)
        return
    # Distinct points are at kernel distance 0 only when every coordinate
    # difference squares to 0, so they share one run of such steps on each
    # sorted axis.  Only points sharing every run are compared, by the kernel.
    order = np.argsort(pts, axis=0)
    steps = np.diff(np.take_along_axis(pts, order, axis=0), axis=0)
    if not ((steps != 0.0) & (steps * steps == 0.0)).any():
        return
    runs = np.zeros(pts.shape, dtype=np.int64)
    np.put_along_axis(runs, order[1:], np.cumsum(steps * steps != 0.0, axis=0), axis=0)
    _, group, counts = np.unique(runs, axis=0, return_inverse=True, return_counts=True)
    shared = np.flatnonzero(counts[group.reshape(-1)] > 1)
    hits = np.argwhere(np.tril(pairwise_distances(metric, pts[shared], pts[shared]) == 0.0, -1))
    if len(hits):
        j, i = shared[hits[0]].tolist()
        raise DuplicatePointError(side, i, j)


@dataclass(frozen=True)
class PairGeometry:
    """d(A,B) together with A0, B0 and the proximal-pairing relation.

    Indices refer to positions in ``pair.a`` / ``pair.b``.  The relation is
    stored once, by its B side: ``reverse_pairing`` maps each y in B0 to the
    points of A, in ascending order, within eps_prox of realizing d(A,B)
    with y (its proximal partners).
    """

    pair: SetPair
    pair_distance: float
    a0: tuple[int, ...]
    b0: tuple[int, ...]
    reverse_pairing: dict[int, tuple[int, ...]] = field(repr=False)
    eps_prox: float = 0.0

    def partners_in_a(self, b_index: int) -> tuple[int, ...]:
        """Indices in A of the proximal partners of B[b_index]."""
        return self.reverse_pairing.get(b_index, ())


def proximal_subsets(sp: SetPair, eps_prox: float | None = None) -> PairGeometry:
    """Compute d(A,B), A0, B0 and the proximal partners of each point of B0.

    ``eps_prox`` defaults per metric kind (see :func:`default_eps_prox`).
    An empty A0 cannot occur: the minimum is attained at some pair, which
    enrolls its endpoints.
    """
    if eps_prox is None:
        eps_prox = default_eps_prox(sp.metric)
    if eps_prox < 0:
        raise ValueError("eps_prox must be >= 0")
    # One pass over the row blocks of A x B.  Each block lowers the running
    # minimum and keeps its entries within eps_prox of it; the minimum only
    # falls, so the final cut below finds every hit among the kept ones.
    dist = np.inf
    rows, cols, vals = [], [], []
    for lo in range(0, len(sp.a), _CHUNK):
        block = pairwise_distances(sp.metric, sp.a[lo : lo + _CHUNK], sp.b)
        dist = min(dist, float(block.min()))
        r, c = np.nonzero(block <= dist + eps_prox)
        rows.append(r + lo)
        cols.append(c)
        vals.append(block[r, c])
    keep = np.concatenate(vals) <= dist + eps_prox
    rows, cols = np.concatenate(rows)[keep], np.concatenate(cols)[keep]
    # Hits come in row-major order, so a stable sort by B index keeps the
    # partners of each B point in ascending A order.
    order = np.argsort(cols, kind="stable")
    b0, starts = np.unique(cols[order], return_index=True)
    groups = np.split(rows[order], starts[1:])
    return PairGeometry(
        pair=sp,
        pair_distance=dist,
        a0=tuple(np.unique(rows).tolist()),
        b0=tuple(b0.tolist()),
        reverse_pairing={j: tuple(g.tolist()) for j, g in zip(b0.tolist(), groups)},
        eps_prox=eps_prox,
    )


def point_to_set_distance(metric: Metric, x, pts) -> float:
    """Exact minimum of d(x, s) over the nonempty finite set ``pts``."""
    if len(pts) == 0:
        raise ValueError("point-to-set distance over an empty set")
    return float(pairwise_distances(metric, [x], pts).min())


@dataclass(frozen=True)
class CompactnessVerdict:
    holds: bool
    status: str
    reason: str


def check_approximative_compactness(sp: SetPair) -> CompactnessVerdict:
    """Discharge the approximative-compactness hypothesis for finite sets.

    Every sequence in a finite set has a constant (hence convergent)
    subsequence, so the condition holds trivially; this exists so reports can
    show the hypothesis explicitly rather than silently assuming it.
    """
    return CompactnessVerdict(
        holds=True,
        status="holds-trivially",
        reason=(
            f"B is finite ({len(sp.b)} points): any sequence in B has a "
            "constant, hence convergent, subsequence"
        ),
    )

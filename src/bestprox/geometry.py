"""Pair geometry: d(A,B), the proximal subsets A0/B0, and partner relations.

For finite sets d(A,B) is an exact minimum over the product A x B.  A point of
A belongs to A0 when some point of B realizes that minimum with it, up to the
``eps_prox`` tolerance (exact arithmetic corresponds to eps_prox = 0; square
roots on coordinate spaces motivate the small default there).

d(A,B), A0, B0 and the partner relation all come from one pass over A x B,
walked, as the certificate is, by one ``for`` loop over the tiles that
:func:`scan_tiles` yields, one grid on every metric: row blocks times column
tiles of at most ``_TILE_COLS`` columns, each tile holding at most
``_TILE_ENTRIES`` entries.  Each tile lowers a running minimum and keeps its
entries within eps_prox of it, and the kept entries are cut at the final
d(A,B) + eps_prox.  On euclidean spaces a tile is skipped
when the axis-aligned boxes of its rows and columns lie farther apart than
that running cut.  The bound is exact: the kernel's paired form adds the
squared per-axis box gaps (spans, for an upper bound) in the one in-order sum
that builds the cross table, and rounding is monotone, so it brackets every
entry bit for bit.
Matrix spaces walk the same tiles but skip none.

Distinct coordinates at distance 0 within A or B are found by the same driver,
one row block at a time; a table's zeros fail the metric check's identity.
"""

from __future__ import annotations

import contextlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .metric import EUCLIDEAN, EXPLICIT_MATRIX, Metric, frozen_array, paired_distances, pairwise_distances

# The one tile grid of every distance scan: a tile is _TILE_COLS columns wide,
# or as wide as the scan when it has fewer, and holds at most _TILE_ENTRIES
# entries, so a narrow scan takes tall row blocks.  A 170 x 256 float64 tile
# (340 KiB) stays in cache: at d = 16 on a 2-vCPU host, blocks of 64-128 rows
# ran twice as fast as blocks of 1024 rows.  The tests lower both.
_TILE_COLS = 256
_TILE_ENTRIES = 170 * 256

DEFAULT_EPS_EUCLIDEAN = 1e-9
DEFAULT_EPS_MATRIX = 0.0


class DuplicatePointError(ValueError):
    """An index listed twice in one set, or two coordinates of one set at
    distance 0, which would make partner-uniqueness checks ill-posed."""

    def __init__(self, side: str, i: int, j: int):
        self.side = side
        self.indices = (i, j)
        super().__init__(f"field '{side}[{j}]': duplicate of {side}[{i}], at distance 0")


def default_eps_prox(metric: Metric) -> float:
    """Matrix distances are exact inputs; coordinate distances carry
    square-root rounding, hence the small nonzero default."""
    return DEFAULT_EPS_EUCLIDEAN if metric.kind == EUCLIDEAN else DEFAULT_EPS_MATRIX


@dataclass(frozen=True, eq=False)
class SetPair:
    """The nonempty finite sets A and B over one metric.

    ``a`` and ``b`` are stored as read-only arrays, by the rule of
    :func:`~bestprox.metric.frozen_array`: ``(n, d)`` float64 coordinates in
    euclidean spaces, ``(n,)`` int64 table indices in matrix spaces.
    Construction checks shape, finiteness and index range on the
    whole array, rejects coordinates so far apart that a distance could
    overflow, and rejects duplicates within either set, an index listed twice
    or coordinates at distance 0 (silent dedup would change |A0| behind the
    user's back).  B's points must have the dimension of A's.  Any other zero
    between distinct points fails the metric check's identity instead.
    """

    metric: Metric
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = _point_array(self.metric, self.a, "A")
        b = _point_array(self.metric, self.b, "B", a.shape[1:])
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.metric.kind == EUCLIDEAN:
            # The kernel's bounding-box diagonal bounds every distance it can
            # compute between these points, so a finite one rules out overflow.
            lo, hi = np.minimum(a.min(0), b.min(0)), np.maximum(a.max(0), b.max(0))
            with np.errstate(over="ignore"):
                diagonal = paired_distances(self.metric, lo[None], hi[None])
            if not np.isfinite(diagonal[0]):
                raise ValueError("coordinates of A and B too far apart: their bounding-box diagonal overflows")
        _reject_duplicates(self.metric, a, "A")
        _reject_duplicates(self.metric, b, "B")


def _point_array(metric: Metric, pts, side: str, like: tuple = ()) -> np.ndarray:
    """``pts``, any sequence or array, as the read-only points of ``side``,
    converted once; a refusal names the point at fault as a file's would.
    Coordinates have the dimension of ``like``, a point's shape, if given,
    else that of ``pts[0]``, which must be at least 1."""
    if not _is_array(pts) or not len(pts):
        raise ValueError(f"field '{side}': must be a nonempty array of points")
    if metric.kind == EUCLIDEAN:
        dim = like[0] if like else len(pts[0]) if _is_array(pts[0]) else 0
        # No point has the shape (None,), so without a dimension pts[0] is refused.
        dtype, shape, what = np.float64, (dim or None,), f"a numeric point of dimension {dim}" if dim else "a coordinate vector of dimension >= 1"
    else:
        dtype, shape, what = np.int64, (), "an index into the distance table"
    arr = _converted(pts, dtype)
    if arr is None or arr.shape[1:] != shape:
        pos = next((pos for pos, item in enumerate(pts) if getattr(_converted(item, dtype), "shape", None) != shape), 0)
        raise ValueError(f"field '{side}[{pos}]': not {what}: {pts[pos]!r}")
    if metric.kind == EUCLIDEAN:
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if len(bad):
            raise ValueError(f"field '{side}[{bad[0]}]': non-finite coordinate")
    else:
        bad = np.flatnonzero((arr < 0) | (arr >= len(metric.matrix)))
        if len(bad):
            raise ValueError(f"field '{side}[{bad[0]}]': index {arr[bad[0]]} out of range for {len(metric.matrix)}-point space")
    return arr


# Whether ``value`` holds items: a sequence other than a string, or an array
# of at least one axis.
def _is_array(value) -> bool:
    return isinstance(value, np.ndarray) and value.ndim > 0 or isinstance(value, Sequence) and not isinstance(value, str)


# ``value`` as frozen_array keeps it, or None where that rule refuses it.
def _converted(value, dtype) -> np.ndarray | None:
    with contextlib.suppress(ValueError):
        return frozen_array(value, dtype)
    return None


def _reject_duplicates(metric: Metric, pts: np.ndarray, side: str) -> None:
    # Equal points: the least j that repeats an earlier point, and the first
    # point it repeats (rows compare as floats, so -0.0 equals 0.0).  A table
    # ends here: a zero between distinct indices fails the metric check's
    # identity, which reads every entry.
    _, first, group = np.unique(pts.reshape(len(pts), -1), axis=0, return_index=True, return_inverse=True)
    earlier = first[group.reshape(-1)]
    repeats = np.flatnonzero(earlier != np.arange(len(pts)))
    if len(repeats):
        raise DuplicatePointError(side, int(earlier[repeats[0]]), int(repeats[0]))
    if metric.kind == EXPLICIT_MATRIX:
        return
    # Distinct coordinates are at kernel distance 0 only when every
    # difference squares to 0, so they share one run of such steps on each
    # sorted axis.  Only points sharing every run are compared.
    order = np.argsort(pts, axis=0)
    steps = np.diff(np.take_along_axis(pts, order, axis=0), axis=0)
    if not ((steps != 0.0) & (steps * steps == 0.0)).any():
        return
    runs = np.zeros(pts.shape, dtype=np.int64)
    np.put_along_axis(runs, order[1:], np.cumsum(steps * steps != 0.0, axis=0), axis=0)
    _, group, counts = np.unique(runs, axis=0, return_inverse=True, return_counts=True)
    shared = np.flatnonzero(counts[group.reshape(-1)] > 1)
    # Each row j is checked against every column i < j, the entries that
    # np.tril keeps of a tile whose first entry is (lo, clo).  Rows come in
    # order, so the first row block with a hit holds the least such (j, i);
    # the witness is that pair, sorted.
    hit, cand = None, pts[shared]
    for lo, clo, d in scan_tiles(metric, [(cand, cand)], lambda lower, *_: lower[0] > 0.0):
        if hit is not None and lo > hit[0]:
            break
        j, i = np.nonzero(np.tril(d == 0.0, lo - clo - 1))
        if len(j) and (hit is None or (lo + j[0], clo + i[0]) < hit):
            hit = (int(lo + j[0]), int(clo + i[0]))
    if hit is not None:
        raise DuplicatePointError(side, *sorted(shared[list(hit)].tolist()))


@dataclass(frozen=True, eq=False)
class PairGeometry:
    """d(A,B) together with A0, B0 and the proximal-pairing relation.

    Indices refer to positions in ``pair.a`` / ``pair.b``, held in read-only
    int64 arrays: ``a0`` and ``b0`` ascending, and the relation stored once,
    by its B side, in compressed rows: the proximal partners of B[j], the
    points of A within eps_prox of realizing d(A,B) with it, are
    ``partners[offsets[j]:offsets[j + 1]]`` in ascending order (none when j
    is outside B0), so ``offsets`` has |B| + 1 entries.
    """

    pair: SetPair
    pair_distance: float
    a0: np.ndarray
    b0: np.ndarray
    partners: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    eps_prox: float

    def partners_in_a(self, b_index: int) -> tuple[int, ...]:
        """Indices in A of the proximal partners of B[b_index]."""
        return tuple(self.partners[self.offsets[b_index] : self.offsets[b_index + 1]].tolist())


def _box_bounds(metric: Metric, pts: np.ndarray, q_lo: np.ndarray, q_hi: np.ndarray) -> list[list[float]]:
    """[least, greatest] distance from the box of ``pts`` to each box [q_lo[t], q_hi[t]]."""
    p_lo, p_hi = pts.min(axis=0), pts.max(axis=0)
    gap = np.maximum(np.maximum(q_lo - p_hi, p_lo - q_hi), 0.0)
    span = np.maximum(p_hi - q_lo, q_hi - p_lo)
    return [paired_distances(metric, x, np.zeros_like(x)).tolist() for x in (gap, span)]


def scan_tiles(metric: Metric, operands, skip, *, triangle: bool = False):
    """Walk the tables d(P[i], Q[j]) of each (P, Q) in ``operands``, of one
    shape, tile by tile, yielding each tile computed as ``(lo, clo, *tables)``,
    its entry (r, c) being (lo + r, clo + c).  With ``triangle`` only tiles
    holding an entry j > i are walked; the caller masks the rest.  Euclidean
    tiles are skipped where ``skip(lower, upper, lo, clo)`` holds for the box
    bounds of each operand and the tile's first entry (lo, clo); it is asked
    only when the loop asks for that tile, so it sees what the loop body has
    just updated.  Matrix tiles are never skipped.
    """
    n, m = (len(x) for x in operands[0])
    if not m:
        return
    width = min(_TILE_COLS, m)
    rows = max(1, _TILE_ENTRIES // width)
    starts = range(0, m, width)
    boxed = metric.kind == EUCLIDEAN
    if boxed:
        boxes = [(np.minimum.reduceat(q, starts), np.maximum.reduceat(q, starts)) for _, q in operands]
    for lo in range(0, n - triangle, rows):  # a triangle's last row is empty
        hi = min(lo + rows, n - triangle)
        if boxed:
            lower, upper = zip(*(_box_bounds(metric, p[lo:hi], *box) for (p, _), box in zip(operands, boxes)))
        for t in range((lo + 1) // width if triangle else 0, len(starts)):
            clo = max(starts[t], lo + 1) if triangle else starts[t]
            if not (boxed and skip([b[t] for b in lower], [b[t] for b in upper], lo, clo)):
                yield lo, clo, *(pairwise_distances(metric, p[lo:hi], q[clo : starts[t] + width]) for p, q in operands)


def proximal_subsets(sp: SetPair, eps_prox: float | None = None) -> PairGeometry:
    """Compute d(A,B), A0, B0 and the proximal partners of each point of B0.

    ``eps_prox`` defaults per metric kind (see :func:`default_eps_prox`).
    An empty A0 cannot occur: the minimum is attained at some pair, which
    enrolls its endpoints.
    """
    if eps_prox is None:
        eps_prox = default_eps_prox(sp.metric)
    if not 0 <= eps_prox < np.inf:
        raise ValueError(f"eps_prox must be >= 0 and finite, got {eps_prox}")
    # One pass over the tiles of A x B.  Each tile lowers the running minimum
    # and keeps its entries within eps_prox of it; the minimum only falls, so
    # the final cut below finds every hit among the kept ones, and a tile
    # whose every entry lies beyond the running cut holds none of them.
    dist = np.inf
    rows, cols, vals = [], [], []
    for lo, clo, block in scan_tiles(sp.metric, [(sp.a, sp.b)], lambda lower, *_: lower[0] > dist + eps_prox):
        dist = min(dist, float(block.min()))
        r, c = np.nonzero(block <= dist + eps_prox)
        rows.append(r + lo)
        cols.append(c + clo)
        vals.append(block[r, c])
    keep = np.concatenate(vals) <= dist + eps_prox
    rows, cols = np.concatenate(rows)[keep], np.concatenate(cols)[keep]
    # Within each column the hits come in ascending row order, so a stable
    # sort by B index keeps the partners of each B point in ascending A order.
    sizes = np.bincount(cols, minlength=len(sp.b))
    a0 = np.flatnonzero(np.bincount(rows, minlength=len(sp.a)))
    b0, partners = np.flatnonzero(sizes), rows[np.argsort(cols, kind="stable")]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for arr in (a0, b0, partners, offsets):
        arr.flags.writeable = False
    return PairGeometry(sp, dist, a0, b0, partners, offsets, eps_prox)


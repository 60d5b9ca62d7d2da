"""Metric evaluation and metric-axiom validation.

Two space kinds are supported:

* ``euclidean`` -- points are finite real coordinate vectors, distance is the
  usual 2-norm of the difference;
* ``explicit-matrix`` -- points are integer indices into a user-supplied
  symmetric distance table.

Every distance in the package comes from one kernel: :func:`pairwise_distances`
(the cross table d(p_i, q_j)) and :func:`paired_distances` (d(p_i, q_i) row by
row), and :func:`distance` is the one-pair case of the paired form.  On
coordinate spaces both forms are one in-order sum, computed by one function:
the squared differences are added one axis at a time, in axis order, never
building a (rows, cols, d) tensor.  A value is therefore bitwise the same
whichever form computed it, whatever order numpy's own reductions use.

Everything here is immutable after construction and every function is pure,
so concurrent read-only use is safe.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .geometry import PairGeometry

EUCLIDEAN = "euclidean"
EXPLICIT_MATRIX = "explicit-matrix"

# The triangle of a table up to this many points is checked on every triple;
# that of a larger table on SAMPLES triples, drawn by ``random.Random(0)`` so
# every report names the same ones.  A table's other three axioms are checked
# on every entry at any size.  Coordinates are never sampled.
EXHAUSTIVE_LIMIT = 200
SAMPLES = 1000

# How MetricValidation.triangle_by says the triangle was decided: on every
# triple of a table, on SAMPLES triples of a larger one, or, on coordinates,
# by the kernel's construction.
EXHAUSTIVE, SAMPLED, KERNEL = "exhaustive", "sampled", "kernel"

# Slack for a triangle check on coordinates, the orbit row of
# ``engine.verify_result``, relative to the right-hand side d(p,q) + d(q,r)
# once that exceeds 1 (rounding grows with magnitude), absolute below.  The
# kernel's own relative error is about (d + 2) * 2**-53 on d axes (Higham's
# gamma bound), far inside it.  Matrix tables are checked exactly.
TRIANGLE_SLACK = 1e-9


def frozen_array(value, dtype) -> np.ndarray:
    """``value`` as a read-only array of ``dtype``, by the package's one
    numeric rule: integers or floats that ``dtype`` holds safely (no float
    for an integer dtype), and in a Python sequence no boolean, which numpy
    reads as 0 or 1, nor a 0-d boolean array.  An ndarray is judged by its
    dtype alone.  A read-only array of ``dtype`` that owns its data is kept
    without a copy; a caller's array is never frozen, but copied."""
    if isinstance(value, np.ndarray) and value.base is None and not value.flags.writeable and value.dtype == dtype:
        return value
    arr = np.asarray(value)
    if arr.dtype.kind == "O" and all(type(v) in (int, float) for v in arr.flat):
        with contextlib.suppress(OverflowError):  # integers beyond int64 that fit a float
            arr = arr.astype(float)
    if arr.size and (arr.dtype.kind not in "iuf" or not np.can_cast(arr.dtype, dtype)):
        raise ValueError(f"entries must be integers or floats that {np.dtype(dtype)} holds, got {arr.dtype}")
    if not isinstance(value, np.ndarray):
        # numpy reads a boolean as 0 or 1, also one held in a 0-d array.  The
        # items of a 1-D sequence and the rows' items of a 2-D one are walked
        # as they are, which is far cheaper than an object array; only a
        # deeper nesting needs one.
        def entries():
            return value if arr.ndim == 1 else chain.from_iterable(value) if arr.ndim == 2 else np.asarray(value, dtype=object).flat

        kinds = set(map(type, entries()))
        if any(issubclass(kind, np.ndarray) for kind in kinds):  # a 0-d array is judged by its dtype
            kinds.update(v.dtype.type for v in entries() if isinstance(v, np.ndarray))
        if not kinds.isdisjoint((bool, np.bool_)):
            raise ValueError("entries must be numbers, not booleans")
    arr = arr.astype(dtype, copy=not isinstance(value, (list, tuple)))  # else arr is new
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Metric:
    """A metric over coordinate vectors or an explicit finite table.

    ``matrix`` must be present exactly when ``kind`` is ``explicit-matrix``;
    it is stored as a read-only ``(n, n)`` float64 array with finite entries,
    by the rule of :func:`frozen_array`.  Construction checks only shape and
    finiteness; run :func:`validate_metric` to check the metric axioms
    themselves.
    """

    kind: str
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in (EUCLIDEAN, EXPLICIT_MATRIX):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == EUCLIDEAN:
            if self.matrix is not None:
                raise ValueError("euclidean metric takes no matrix")
            return
        if self.matrix is None:
            raise ValueError("explicit-matrix metric requires a matrix")
        table = frozen_array(self.matrix, np.float64)
        if table.ndim != 2 or not table.size or table.shape[0] != table.shape[1]:
            raise ValueError("distance matrix must be square and nonempty")
        bad = _first(~np.isfinite(table))
        if bad is not None:
            raise ValueError(f"non-finite distance at position {bad}")
        object.__setattr__(self, "matrix", table)


def euclidean_metric() -> Metric:
    return Metric(EUCLIDEAN)


def matrix_metric(matrix: Sequence[Sequence[float]]) -> Metric:
    return Metric(EXPLICIT_MATRIX, matrix)


def _euclidean(ps, qs, cross: bool) -> np.ndarray:
    """d(p_i, q_j) as a (rows, cols) table when ``cross``, else d(p_i, q_i)
    as an (n,) vector: the squared per-axis differences are added in axis
    order into one accumulator, through one scratch buffer of its shape."""
    a = np.asarray(ps, dtype=float)
    b = np.asarray(qs, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: point arrays of shapes {a.shape} and {b.shape}")
    # at[k] is axis k of ``a``; for a cross table it is a column, broadcast
    # against the row b.T[k].
    at = a.T[:, :, None] if cross else a.T
    acc = np.zeros((len(a), len(b)) if cross else len(a))
    scratch = np.empty_like(acc) if len(at) > 1 else None
    for k, bk in enumerate(b.T):
        out = scratch if k else acc
        np.square(np.subtract(at[k], bk, out=out), out=out)
        if k:
            acc += out
    return np.sqrt(acc, out=acc)


def table_indices(metric: Metric, ps) -> np.ndarray:
    """``ps`` as an int64 array of positions in ``metric``'s table, range-checked."""
    idx = np.asarray(ps)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"matrix-space points must be integer indices, got {idx.dtype}")
    bad = idx[(idx < 0) | (idx >= len(metric.matrix))]
    if len(bad):
        raise ValueError(f"index {bad[0]} out of range for {len(metric.matrix)}-point space")
    return idx.astype(np.int64, copy=False)


def pairwise_distances(metric: Metric, ps: Sequence, qs: Sequence) -> np.ndarray:
    """Dense |ps| x |qs| table of d(p_i, q_j)."""
    if metric.kind == EUCLIDEAN:
        return _euclidean(ps, qs, cross=True)
    return metric.matrix[np.ix_(table_indices(metric, ps), table_indices(metric, qs))]


def paired_distances(metric: Metric, ps: Sequence, qs: Sequence) -> np.ndarray:
    """d(p_i, q_i) for each i: the cross table's one in-order sum, so bitwise
    equal to the matching cross-table entry."""
    if len(ps) != len(qs):
        raise ValueError(f"paired distances need equal counts, got {len(ps)} and {len(qs)}")
    if metric.kind == EUCLIDEAN:
        return _euclidean(ps, qs, cross=False)
    return metric.matrix[table_indices(metric, ps), table_indices(metric, qs)]


def distance(metric: Metric, p, q) -> float:
    """d(p, q) for two single points."""
    return float(paired_distances(metric, [p], [q])[0])


@dataclass(frozen=True)
class Check:
    """One checked condition: a metric axiom, a theorem hypothesis or a
    property of a result.  ``witness`` names the offending data on failure."""

    name: str
    passed: bool
    detail: str = ""
    witness: object = None


@dataclass(frozen=True)
class Checklist:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class MetricValidation(Checklist):
    """The four axiom checks, and how the triangle was decided.  Witness
    shapes: symmetry/nonnegativity -> (i, j); identity -> (i,) for d(i,i) != 0
    and (i, j) for d(i,j) = 0 with i != j, (A-index, B-index) on coordinates;
    triangle -> (i, j, k) meaning d(i,j) > d(i,k) + d(k,j)."""

    triangle_by: str


def validate_metric(metric: Metric, geom: PairGeometry | None = None) -> MetricValidation:
    """Check symmetry, identity, nonnegativity and the triangle inequality.
    Failure is a report outcome, never an exception.

    On an explicit matrix the first three are read off every entry, at any
    size; the triangle is checked exactly on every triple up to
    ``EXHAUSTIVE_LIMIT`` points, else on ``SAMPLES`` triples drawn by
    ``random.Random(0)``.  Witnesses are the first violations in row-major
    order, or in draw order for sampled triples.  A table ignores ``geom``.

    On a coordinate space the kernel gives symmetry and nonnegativity bit for
    bit and the triangle within ``TRIANGLE_SLACK``, so nothing is sampled.
    Identity fails where a difference squares to 0 between distinct points,
    which SetPair refuses within A and within B, so it is checked across
    them, on ``geom``, the instance's pair geometry.
    """
    if metric.kind == EUCLIDEAN:
        if geom is None:
            raise ValueError("a coordinate space is validated on its instance's pair geometry")
        symmetry, nonnegativity, triangle = (Check(name, True) for name in ("symmetry", "nonnegativity", "triangle"))
        return MetricValidation(checks=(symmetry, _cross_identity(metric, geom), nonnegativity, triangle), triangle_by=KERNEL)
    m = metric.matrix
    triangle_by = EXHAUSTIVE if len(m) <= EXHAUSTIVE_LIMIT else SAMPLED
    triangle = _table_triangle(m) if triangle_by == EXHAUSTIVE else _sampled_triangle(metric, len(m))
    # Identity: d(i,j) = 0 exactly when i = j, so it fails where m == 0
    # disagrees with the diagonal.
    off_identity = m == 0.0
    np.fill_diagonal(off_identity, ~off_identity.diagonal())
    return MetricValidation(
        checks=(
            # The mask is symmetric, so its first hit (i, j) has i < j.
            _axiom("symmetry", _first(m != m.T), lambda i, j: f"d{(i, j)} = {m[i, j]} but d{(j, i)} = {m[j, i]}"),
            _axiom(
                "identity",
                _first(off_identity),
                lambda i, j: f"d({i},{i}) = {m[i, i]} != 0" if i == j else f"d{(i, j)} = {m[i, j]} between distinct points",
                lambda i, j: (i,) if i == j else (i, j),
            ),
            _axiom("nonnegativity", _first(m < 0.0), lambda i, j: f"d{(i, j)} = {m[i, j]} < 0"),
            triangle,
        ),
        triangle_by=triangle_by,
    )


def _cross_identity(metric: Metric, geom: PairGeometry) -> Check:
    """Identity across A and B: the first proximal pair, in the partners'
    order, at distance 0 whose coordinates differ as floats (-0.0 equals 0.0).
    Only at d(A,B) = 0.0 is there one, and then every zero is a proximal pair."""
    if geom.pair_distance != 0.0:
        return Check("identity", True)
    a_idx, b_idx = geom.partners, np.repeat(np.arange(len(geom.pair.b)), np.diff(geom.offsets))
    p, q = geom.pair.a[a_idx], geom.pair.b[b_idx]
    return _axiom(
        "identity",
        _first((paired_distances(metric, p, q) == 0.0) & (p != q).any(axis=1)),
        lambda s: f"d(A[{a_idx[s]}], B[{b_idx[s]}]) = 0.0 between distinct points",
        lambda s: (int(a_idx[s]), int(b_idx[s])),
    )


def _first(mask: np.ndarray) -> tuple | None:
    """Position of the first True entry of ``mask`` in row-major order, or None."""
    at = int(mask.argmax())  # the first maximum, so the first True if any
    return tuple(int(i) for i in np.unravel_index(at, mask.shape)) if mask.flat[at] else None


def _axiom(name: str, hit: tuple | None, detail, witness=None) -> Check:
    """One axiom's check from its first violation ``hit`` (None if it holds);
    ``detail`` and ``witness`` (default: the hit itself) are functions of it."""
    if hit is None:
        return Check(name, True)
    return Check(name, False, detail(*hit), witness(*hit) if witness else hit)


def _table_triangle(m: np.ndarray) -> Check:
    """The triangle on every triple of distinct indices; the witness is the
    lexicographically first (i, j, k) with d(i,j) > d(i,k) + d(k,j)."""
    off = ~np.eye(len(m), dtype=bool)
    for i in range(len(m)):
        # viol[j, k] <=> d(i,j) > d(i,k) + d(k,j); scan order matches the
        # lexicographic (i, j, k) loop, so the first hit is the witness.  A
        # sum that overflows to inf exceeds every entry, as the exact one does.
        with np.errstate(over="ignore"):
            viol = m[i][:, None] > m[i][None, :] + m.T
        viol[i, :] = False
        viol[:, i] = False
        viol &= off.T
        hit = _first(viol)
        if hit is not None:
            return _axiom("triangle", (i, *hit), lambda i, j, k: f"d({i},{j}) = {m[i, j]} > {m[i, k]} + {m[k, j]} via {k}")
    return Check("triangle", True)


def triangle_violation(metric: Metric, dpr: np.ndarray, dpq: np.ndarray, dqr: np.ndarray) -> tuple | None:
    """``(s,)`` for the first s with d(p,r) = ``dpr[s]`` > d(p,q) + d(q,r) =
    ``dpq[s] + dqr[s]``, or None: exact on a table, with slack on coordinates."""
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf
        bound = dpq + dqr
        slack = TRIANGLE_SLACK * np.maximum(1.0, bound) if metric.kind == EUCLIDEAN else 0.0
        return _first(dpr > bound + slack)


def _sampled_triangle(metric: Metric, n: int) -> Check:
    """The triangle on ``SAMPLES`` triples (p, q, r) of a table's n points;
    the witness is the first violating sample's (p, r, q)."""
    # Triples are drawn in the order a sample-by-sample scan draws them, so
    # seed 0 names the same triples; they are then evaluated in one batch.
    rng = random.Random(0)
    p, q, r = np.array([rng.choice(range(n)) for _ in range(3 * SAMPLES)]).reshape(SAMPLES, 3).T
    dpq, dpr, dqr = (paired_distances(metric, x, y) for x, y in ((p, q), (p, r), (q, r)))
    return _axiom(
        "triangle",
        triangle_violation(metric, dpr, dpq, dqr),
        lambda s: f"d(p,r) = {dpr[s]} > {dpq[s]} + {dqr[s]} via q",
        lambda s: (int(p[s]), int(r[s]), int(q[s])),
    )

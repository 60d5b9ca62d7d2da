"""Metric evaluation and metric-axiom validation.

Two space kinds are supported:

* ``euclidean`` -- points are finite real coordinate vectors, distance is the
  usual 2-norm of the difference;
* ``explicit-matrix`` -- points are integer indices into a user-supplied
  symmetric distance table.

Every distance in the package comes from one kernel: :func:`pairwise_distances`
(the cross table d(p_i, q_j)) and :func:`paired_distances` (d(p_i, q_i) row by
row) share the single euclidean formula of :func:`_norm`, and :func:`distance`
is the one-pair case of the paired form.  A value is therefore bitwise the
same whichever form computed it, in any dimension.

Everything here is immutable after construction and every function is pure,
so concurrent read-only use is safe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EUCLIDEAN = "euclidean"
EXPLICIT_MATRIX = "explicit-matrix"

#: A point is either a coordinate vector (euclidean spaces) or a non-negative
#: index into the distance table (explicit-matrix spaces).
Point = tuple[float, ...] | int

# Matrices up to this many points are validated exhaustively; larger tables
# and coordinate spaces fall back to seeded sampling.
EXHAUSTIVE_LIMIT = 200

# Slack for the sampled triangle check on coordinate spaces, relative to the
# right-hand side d(p,q) + d(q,r) once that exceeds 1 (rounding grows with
# magnitude), absolute below.  Matrix tables are checked exactly.
TRIANGLE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Metric:
    """A metric over coordinate vectors or an explicit finite table.

    ``matrix`` must be present exactly when ``kind`` is ``explicit-matrix``;
    it is stored as a read-only ``(n, n)`` float64 array with finite entries.
    Construction checks only shape and finiteness; run
    :func:`validate_metric` to check the metric axioms themselves.
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
        table = np.array(self.matrix, dtype=float)
        if table.ndim != 2 or not table.size or table.shape[0] != table.shape[1]:
            raise ValueError("distance matrix must be square and nonempty")
        bad = np.argwhere(~np.isfinite(table))
        if len(bad):
            raise ValueError(f"non-finite distance at position {tuple(bad[0].tolist())}")
        table.flags.writeable = False
        object.__setattr__(self, "matrix", table)

    @property
    def size(self) -> int:
        """Cardinality of an explicit space (undefined for euclidean)."""
        if self.matrix is None:
            raise ValueError("euclidean metric has no fixed cardinality")
        return len(self.matrix)


def euclidean_metric() -> Metric:
    return Metric(EUCLIDEAN)


def matrix_metric(matrix: Sequence[Sequence[float]]) -> Metric:
    return Metric(EXPLICIT_MATRIX, matrix)


def as_point(p) -> Point:
    """A point as a plain Python value: a tuple of floats or an int index."""
    value = np.asarray(p).tolist()
    return tuple(value) if isinstance(value, list) else value


def _norm(diff: np.ndarray) -> np.ndarray:
    """The one euclidean formula: 2-norm of ``diff`` along its last axis.

    ``diff`` is a scratch array and is squared in place, so a table holds one
    difference-sized array at a time instead of two.
    """
    np.multiply(diff, diff, out=diff)
    return np.sqrt(diff.sum(axis=-1))


def _coordinates(ps, qs) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(ps, dtype=float)
    b = np.asarray(qs, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: point arrays of shapes {a.shape} and {b.shape}")
    return a, b


def table_indices(metric: Metric, ps) -> np.ndarray:
    """``ps`` as an int64 array of positions in ``metric``'s table, range-checked."""
    idx = np.asarray(ps)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"matrix-space points must be integer indices, got {idx.dtype}")
    bad = idx[(idx < 0) | (idx >= metric.size)]
    if len(bad):
        raise ValueError(f"index {bad[0]} out of range for {metric.size}-point space")
    return idx.astype(np.int64)


def pairwise_distances(metric: Metric, ps: Sequence, qs: Sequence) -> np.ndarray:
    """Dense |ps| x |qs| table of d(p_i, q_j)."""
    if metric.kind == EUCLIDEAN:
        a, b = _coordinates(ps, qs)
        return _norm(a[:, None, :] - b[None, :, :])
    return metric.matrix[np.ix_(table_indices(metric, ps), table_indices(metric, qs))]


def paired_distances(metric: Metric, ps: Sequence, qs: Sequence) -> np.ndarray:
    """d(p_i, q_i) for each i; bitwise equal to the matching cross-table entry."""
    if len(ps) != len(qs):
        raise ValueError(f"paired distances need equal counts, got {len(ps)} and {len(qs)}")
    if metric.kind == EUCLIDEAN:
        a, b = _coordinates(ps, qs)
        return _norm(a - b)
    return metric.matrix[table_indices(metric, ps), table_indices(metric, qs)]


def distance(metric: Metric, p, q) -> float:
    """d(p, q) for two single points."""
    return float(paired_distances(metric, [p], [q])[0])


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom: ``witness`` names the offending points on failure.

    Witness shapes: symmetry/nonnegativity -> (i, j); identity -> (i,);
    triangle -> (i, j, k) meaning d(i,j) > d(i,k) + d(k,j).
    """

    name: str
    passed: bool
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class MetricValidation:
    checks: tuple[AxiomCheck, ...]
    exhaustive: bool
    samples: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_metric(
    metric: Metric,
    sample_budget: int = 1000,
    *,
    points: Sequence | None = None,
    dimension: int = 2,
    seed: int = 0,
) -> MetricValidation:
    """Check symmetry, identity, nonnegativity and the triangle inequality.

    Explicit matrices up to ``EXHAUSTIVE_LIMIT`` points are scanned
    exhaustively and exactly; witnesses are the lexicographically first
    violations.  Larger tables and coordinate spaces are sampled with a seeded
    generator so reports are reproducible.  For coordinate spaces, ``points``
    supplies the sample pool (random points of ``dimension`` are drawn
    otherwise), and the triangle check allows
    ``TRIANGLE_SLACK * max(1, d(p,q) + d(q,r))`` rounding slack per triple.

    Failure is a report outcome, never an exception.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    if metric.kind == EXPLICIT_MATRIX and metric.size <= EXHAUSTIVE_LIMIT:
        return _validate_matrix_exhaustive(metric)
    if metric.kind == EXPLICIT_MATRIX:
        pool = np.arange(metric.size)
        return _validate_sampled(metric, pool, sample_budget, seed, exact=True)
    if points is not None and len(points):
        pool = np.asarray(points, dtype=float)
    else:
        rng = random.Random(seed)
        count = max(3, min(sample_budget, 64))
        draws = [rng.uniform(-100.0, 100.0) for _ in range(count * dimension)]
        pool = np.array(draws).reshape(count, dimension)
    return _validate_sampled(metric, pool, sample_budget, seed, exact=False)


def _first(mask: np.ndarray) -> tuple | None:
    """Position of the first True entry of ``mask`` in row-major order, or None."""
    hits = np.argwhere(mask)
    return tuple(hits[0].tolist()) if len(hits) else None


def _axiom(name: str, witness: tuple | None, detail) -> AxiomCheck:
    if witness is None:
        return AxiomCheck(name, True)
    return AxiomCheck(name, False, witness, detail(*witness))


def _validate_matrix_exhaustive(metric: Metric) -> MetricValidation:
    m = metric.matrix
    n = len(m)
    tri_w = None
    off = ~np.eye(n, dtype=bool)
    for i in range(n):
        # viol[j, k] <=> d(i,j) > d(i,k) + d(k,j); scan order matches the
        # lexicographic (i, j, k) loop, so the first hit is the witness.
        viol = m[i][:, None] > m[i][None, :] + m.T
        viol[i, :] = False
        viol[:, i] = False
        viol &= off.T
        hit = _first(viol)
        if hit is not None:
            tri_w = (i, *hit)
            break
    sym_w = _first(m != m.T)
    return MetricValidation(
        checks=(
            _axiom(
                "symmetry",
                None if sym_w is None else tuple(sorted(sym_w)),
                lambda i, j: f"d{(i, j)} = {m[i, j]} but d{(j, i)} = {m[j, i]}",
            ),
            _axiom("identity", _first(np.diagonal(m) != 0.0), lambda i: f"d({i},{i}) = {m[i, i]} != 0"),
            _axiom("nonnegativity", _first(m < 0.0), lambda i, j: f"d{(i, j)} = {m[i, j]} < 0"),
            _axiom(
                "triangle",
                tri_w,
                lambda i, j, k: f"d({i},{j}) = {m[i, j]} > {m[i, k]} + {m[k, j]} via {k}",
            ),
        ),
        exhaustive=True,
        samples=n * n * n,
    )


def _validate_sampled(
    metric: Metric, pool: np.ndarray, budget: int, seed: int, exact: bool
) -> MetricValidation:
    # Triples are drawn in the order a sample-by-sample scan draws them, so a
    # seed names the same triples; they are then evaluated in one batch and
    # each witness is the first violating sample.
    rng = random.Random(seed)
    positions = range(len(pool))
    drawn = np.array([rng.choice(positions) for _ in range(3 * budget)]).reshape(budget, 3)
    p, q, r = pool[drawn[:, 0]], pool[drawn[:, 1]], pool[drawn[:, 2]]
    dpq, dqp, dpp, dpr, dqr = (
        paired_distances(metric, x, y) for x, y in ((p, q), (q, p), (p, p), (p, r), (q, r))
    )
    slack = 0.0 if exact else TRIANGLE_SLACK * np.maximum(1.0, dpq + dqr)

    def first(name, violated, points, detail):
        hit = _first(violated)
        if hit is None:
            return AxiomCheck(name, True)
        s = hit[0]
        return AxiomCheck(name, False, tuple(as_point(x[s]) for x in points), detail(s))

    return MetricValidation(
        checks=(
            first("symmetry", dpq != dqp, (p, q), lambda s: f"d(p,q) = {dpq[s]} but d(q,p) = {dqp[s]}"),
            first("identity", dpp != 0.0, (p,), lambda s: f"d(p,p) = {dpp[s]} != 0"),
            first("nonnegativity", dpq < 0.0, (p, q), lambda s: f"d(p,q) = {dpq[s]} < 0"),
            first(
                "triangle",
                dpr > dpq + dqr + slack,
                (p, r, q),
                lambda s: f"d(p,r) = {dpr[s]} > {dpq[s]} + {dqr[s]} via q",
            ),
        ),
        exhaustive=False,
        samples=budget,
    )

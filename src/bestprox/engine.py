"""Induced self-map construction, contraction certification and iteration.

Given a map T from A into B whose restriction to A0 lands in B0, each x in A0
has a proximal partner of T(x) back in A0; when that partner is unique the
assignment x -> partner(T(x)) is a self-map of A0 (the *induced map*).  A best
proximity point of T is exactly a fixed point of the induced map, so the
solver is a plain Picard iteration, certified by an empirically measured
contraction constant:

    alpha_hat = max over distinct x1, x2 in A0 of d(S(x1), S(x2)) / d(x1, x2)

Two iteration schemes are provided and must agree step for step:

* :func:`banach_iterate` walks the prebuilt induced-map table;
* :func:`direct_iterate` re-derives each successor with one kernel scan of A
  for the points within eps_prox of d(A,B) from T(x_k).  It reads neither the
  induced map nor the partner table of :class:`PairGeometry`, so agreement of
  the two schemes is a real cross-check.

Both take ``certificate=`` (None: uncertified) and measure none themselves.
Each returns one :class:`BestProximityResult`, the orbit itself: it keeps the
certificate's constant only when the verdict is a contraction, and only then
carries a-priori bounds and, having converged, is guaranteed.

The certificate walks A0 x A0 with the tile scan of :mod:`~bestprox.geometry`
and skips each tile whose ratios its box bounds put below the running maximum,
or at it when all the tile's pairs come after the witness; ``pair_count``
still counts every pair the certificate covers.

Everything else reads partners through one pass, :func:`classify_partners`.
Ambiguity is never resolved silently: a point with two proximal partners is a
hypothesis failure (it forces alpha >= 1) and is surfaced with both witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PairGeometry, SetPair, scan_tiles
from .metric import Check, Checklist, distance, frozen_array, paired_distances, pairwise_distances, triangle_violation

CONTRACTION = "contraction"
NOT_CONTRACTION = "not-contraction"

CONVERGED = "converged"
CYCLE_DETECTED = "cycle-detected"

DEFAULT_TOL = 1e-9


class SolverError(Exception):
    """Base class for hypothesis and iteration failures."""


class HypothesisViolation(SolverError):
    """T(A0) is not contained in B0: some image has no proximal partner in A.

    ``partial_indices`` holds the iterate prefix when raised mid-iteration.
    """

    def __init__(self, a_index: int, b_index: int):
        self.a_index = a_index
        self.b_index = b_index
        self.partial_indices: tuple[int, ...] = ()
        super().__init__(
            f"T(A0) ⊄ B0: image of A[{a_index}] (= B[{b_index}]) has no "
            "proximal partner in A"
        )


class NonUniquePartner(SolverError):
    """Two distinct proximal partners found for one image.

    A proximal contraction forces partners of a common image to coincide, so
    ambiguity signals that the contraction hypothesis fails; both witnesses
    are reported rather than picking one silently.
    """

    def __init__(self, a_index: int, b_index: int, partners: tuple[int, ...]):
        self.a_index = a_index
        self.b_index = b_index
        self.partners = tuple(partners)
        self.partial_indices: tuple[int, ...] = ()
        super().__init__(
            f"non-unique proximal partner: image of A[{a_index}] (= B[{b_index}]) "
            f"pairs with A indices {self.partners}"
        )


class StartNotInA0(SolverError, ValueError):
    def __init__(self, start: int):
        self.start = start
        super().__init__(f"start index {start} is not in A0")


@dataclass(frozen=True, eq=False)
class ProximityMap:
    """T : A -> B as an index table: image[i] is the B-position of T(A[i]), a
    read-only int64 array (see :func:`~bestprox.metric.frozen_array`).  Anything
    but a flat sequence of integers within int64 is refused, never truncated."""

    image: np.ndarray

    def __post_init__(self) -> None:
        try:
            image = frozen_array(self.image, np.int64)
        except ValueError:
            image = None
        if image is None or image.ndim != 1:
            raise ValueError("map must be a flat sequence of integer B indices within int64, without floats or booleans")
        object.__setattr__(self, "image", image)

    def validate(self, sp: SetPair) -> None:
        """Check that T is total on A and lands in B."""
        if len(self.image) != len(sp.a):
            raise ValueError(
                f"map must be total on A: {len(self.image)} entries for {len(sp.a)} points"
            )
        bad = np.flatnonzero((self.image < 0) | (self.image >= len(sp.b)))
        if len(bad):
            raise ValueError(f"map entry {bad[0]} -> {self.image[bad[0]]} is outside B (size {len(sp.b)})")


@dataclass(frozen=True, eq=False)
class InducedMap:
    """S, sending x to the unique proximal partner of T(x): S(x) = ``table[x]``.

    Both arrays are read-only int64 over all of A: ``count[x]`` is how many
    proximal partners T(x) has (0 when T(x) is outside B0), and ``table[x]``
    the partner where there is exactly one, else -1.  The view of a scope
    such as A0 is both arrays indexed by it.  S is a self-map of A0 only
    where ``count`` is 1 on all of A0.
    """

    geometry: PairGeometry
    t_map: ProximityMap
    count: np.ndarray
    table: np.ndarray


@dataclass(frozen=True)
class ContractionCertificate:
    """Empirical contraction constant over all distinct pairs examined.

    ``witness`` is the pair of A indices attaining ``alpha_hat`` (ties broken
    by the lexicographically smallest index pair); re-evaluating the ratio at
    the witness reproduces ``alpha_hat``.
    """

    alpha_hat: float
    witness: tuple[int, int] | None
    pair_count: int
    verdict: str
    scope: str


@dataclass(frozen=True)
class BestProximityResult:
    """The orbit of one walk, from x_0 = A[indices[0]] to z = A[indices[-1]];
    its rows are read off A, never stored.  A walk has a constant, and
    a-priori bounds, only from a certificate whose verdict is a contraction,
    and it is guaranteed when it also converged."""

    indices: tuple[int, ...]
    step_gaps: tuple[float, ...]
    residuals: tuple[float, ...]
    a_priori_bounds: tuple[float, ...]
    alpha_hat: float | None  # None: no constant was certified
    stop_reason: str

    @property
    def index(self) -> int:
        return self.indices[-1]

    @property
    def iterations(self) -> int:
        return len(self.indices) - 1

    @property
    def guaranteed(self) -> bool:
        return self.alpha_hat is not None and self.stop_reason == CONVERGED


def classify_partners(geom: PairGeometry, t_map: ProximityMap) -> InducedMap:
    """Count the proximal partners of T(x) for all x in A, in one pass; the
    map may be partial on A0."""
    t_map.validate(geom.pair)
    first = geom.offsets[t_map.image]
    count = geom.offsets[t_map.image + 1] - first
    # An empty group at the end starts at len(partners); np.where drops it.
    table = np.where(count == 1, geom.partners.take(first, mode="clip"), -1)
    count.flags.writeable = table.flags.writeable = False
    return InducedMap(geom, t_map, count, table)


def _unique_partner(i: int, img: int, partners: tuple[int, ...]) -> int:
    """The single entry of ``partners`` of T(A[i]) = B[img]; raises if there is none or several."""
    if not partners:
        raise HypothesisViolation(i, img)
    if len(partners) > 1:
        raise NonUniquePartner(i, img, partners)
    return partners[0]


def build_induced_map(geom: PairGeometry, t_map: ProximityMap) -> InducedMap:
    """Resolve the unique proximal partner of T(x) for every x in A0.

    Raises at the first failing point of A0: :class:`HypothesisViolation` when
    its image has no partner (so T(A0) is not inside B0) and
    :class:`NonUniquePartner` on ambiguity.
    """
    return _total(classify_partners(geom, t_map))


def _total(induced: InducedMap) -> InducedMap:
    """``induced``, raising as :func:`build_induced_map` does unless S is a self-map of A0."""
    geom = induced.geometry
    failing = geom.a0[induced.count[geom.a0] != 1]
    if len(failing):
        img = int(induced.t_map.image[failing[0]])
        _unique_partner(int(failing[0]), img, geom.partners_in_a(img))
    return induced


def _max_ratio(sp: SetPair, keys: np.ndarray, table: np.ndarray):
    """Max of d(S(x1), S(x2)) / d(x1, x2) over distinct x1, x2 of the
    ascending ``keys``, where S(x) = ``table[x]``.

    Returns (alpha_hat, witness, pair_count).  The scan is exact; ties pick
    the first pair in lexicographic key order.
    """
    n = len(keys)
    if n < 2:
        return 0.0, None, 0
    src, dst = sp.a[keys], sp.a[table[keys]]
    # Until a ratio above -inf is seen, the least pair (0, 1) attains the
    # maximum; a tie at -inf is never taken, as masked entries hold -inf.
    best, witness = -math.inf, (0, 1)

    def skip(lower, upper, lo, clo):
        # Every ratio is at most the images' upper bound over the sources'
        # lower bound, and 0 where the former is 0, even over a 0.  Every
        # pair of the tile comes at or after (lo, clo), so once that lies
        # after the witness a tie there cannot replace it either.
        bound = upper[0] / lower[1] if lower[1] else math.inf if upper[0] else 0.0
        return bound < best or (bound == best and (lo, clo) > witness)

    for lo, clo, ratios, den in scan_tiles(sp.metric, [(dst, dst), (src, src)], skip, triangle=True):
        # A ratio beyond the float range, or x/0 between distinct keys of a
        # table that fails identity, is +-inf.  The diagonal j = i, masked
        # below, is 0/0 or x/0.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratios /= den
        if clo < lo + len(ratios):
            ratios[np.tril_indices(len(ratios), lo - clo, ratios.shape[1])] = -math.inf  # j <= i
        r, c = np.unravel_index(np.argmax(ratios), ratios.shape)
        if np.isnan(ratios[r, c]):
            # argmax takes the first NaN, a 0/0 between distinct keys at
            # distance 0 whose images coincide; like the diagonal, it has no
            # ratio, and only such a tile is searched again.
            ratios[np.isnan(ratios)] = -math.inf
            r, c = np.unravel_index(np.argmax(ratios), ratios.shape)
        # A tile's first maximum replaces the witness when it is greater, or
        # equal at an earlier pair, so ties keep the lexicographically first.
        if ratios[r, c] > best or (ratios[r, c] == best > -math.inf and (lo + r, clo + c) < witness):
            best, witness = float(ratios[r, c]), (lo + r, clo + c)
    return best, (int(keys[witness[0]]), int(keys[witness[1]])), n * (n - 1) // 2


def certify_contraction(induced: InducedMap, *, wide: bool = False) -> ContractionCertificate:
    """Exhaustively measure the contraction constant of the induced map.

    The default scope is A0, which is what the fixed-point argument needs.
    ``wide=True`` additionally ranges over all of A, taking every proximal
    partner combination of the two images; an image with several partners then
    yields an infinite ratio (the partners disagree at zero cost), matching
    the fact that ambiguity already falsifies the contraction property.
    """
    sp, a0 = induced.geometry.pair, induced.geometry.a0
    count, table = induced.count, induced.table
    if not wide:
        scope, (alpha, witness, pairs) = "a0", _max_ratio(sp, a0[count[a0] == 1], table)
    else:
        scope, partnered = "full", np.flatnonzero(count)
        sizes = count[partnered]
        if (sizes > 1).any():
            # The pairwise scan in lexicographic order stops at the first point
            # with several partners, at position k among the partnered points,
            # having counted one ratio per partner of the point at position j
            # for each of the min(j, k) earlier points.
            k = int(np.argmax(sizes > 1))
            first = int(partnered[k])
            alpha, witness, pairs = math.inf, (first, first), int(sizes @ np.minimum(np.arange(len(sizes)), k))
        else:
            alpha, witness, pairs = _max_ratio(sp, partnered, table)
    # A constant below 0 certifies nothing: only a table that fails the
    # metric axioms gives one.
    verdict = CONTRACTION if 0.0 <= alpha < 1.0 else NOT_CONTRACTION
    return ContractionCertificate(alpha, witness, pairs, verdict, scope=scope)


def _iterate(geom, t_map, refuse, step, start, certificate):
    # A walk starts at an A-position, any integer but a bool, and checks it
    # before ``refuse`` turns down the map it walks.
    sp = geom.pair
    if not isinstance(start, (int, np.integer)) or isinstance(start, bool):
        raise ValueError(f"start must be an index of A, got {start!r}")
    if not 0 <= start < len(sp.a):
        raise ValueError(f"start index {start} outside A (size {len(sp.a)})")
    start = int(start)
    if start not in geom.a0:
        raise StartNotInA0(start)
    refuse()
    # Walk the orbit to its fixed point, first repeat or failing step, then
    # measure every step gap in one kernel call.  Every step stops or visits
    # a new point of A0, so a walk takes at most |A0| iterations and needs no
    # budget.  There is no tolerance: under a contraction a finite set has no
    # cycle of length p >= 2, as d(x, Sx) = d(S^p x, S^p Sx) <= alpha^p
    # d(x, Sx) forces x = Sx, so a certified walk ends at the exact fixed
    # point.  The a-priori bound alpha^k d(x_0, x_1) / (1 - alpha) needs a
    # certified 0 <= alpha < 1, so the walk keeps only the constant of a
    # certificate whose verdict is a contraction; with any other, or None,
    # it has no bounds and is never guaranteed.
    indices = [start]
    visited = {start}
    while True:
        cur = indices[-1]
        try:
            nxt = step(cur)
        except (HypothesisViolation, NonUniquePartner) as err:
            err.partial_indices = tuple(indices)
            raise
        indices.append(nxt)
        if nxt == cur or nxt in visited:
            break
        visited.add(nxt)
    gaps = paired_distances(sp.metric, sp.a[indices[:-1]], sp.a[indices[1:]]).tolist()
    alpha_hat = certificate.alpha_hat if certificate is not None and certificate.verdict == CONTRACTION else None
    images = sp.b[t_map.image[indices]]
    with np.errstate(over="ignore"):  # a gap beyond the float range is inf
        residuals = np.abs(paired_distances(sp.metric, sp.a[indices], images) - geom.pair_distance)
    # A walk takes at least one step, so gaps[0] exists.
    bounds = () if alpha_hat is None else tuple(gaps[0] / (1.0 - alpha_hat) * alpha_hat**k for k in range(len(indices)))
    return BestProximityResult(
        indices=tuple(indices),
        step_gaps=tuple(gaps),
        residuals=tuple(residuals.tolist()),
        a_priori_bounds=bounds,
        alpha_hat=alpha_hat,
        stop_reason=CONVERGED if nxt == cur else CYCLE_DETECTED,
    )


def banach_iterate(
    induced: InducedMap,
    x0,
    *,
    certificate: ContractionCertificate | None = None,
) -> BestProximityResult:
    """Picard iteration x_{k+1} = S(x_k) on the prebuilt induced map, from
    the A-position ``x0`` (any integer but a bool), which must lie in A0.

    The start is checked first, and refused with a ``ValueError``
    (:class:`StartNotInA0` names a start outside A0); only then is a map
    partial on A0 refused, as :func:`build_induced_map` does.  The walk stops
    at the exact fixed point a certified walk always reaches, with no
    tolerance.  A revisited point reveals a cycle, possible only without a
    contraction ``certificate`` (None: none); such a result is never
    guaranteed.  Each step stops or visits a new point of A0, so the walk
    takes at most |A0| iterations.
    """
    return _iterate(induced.geometry, induced.t_map, lambda: _total(induced), lambda i: int(induced.table[i]), x0, certificate)


def direct_iterate(
    geom: PairGeometry,
    t_map: ProximityMap,
    x0,
    *,
    certificate: ContractionCertificate | None = None,
) -> BestProximityResult:
    """Iterate by solving d(x_{k+1}, T(x_k)) = d(A,B) afresh at every step,
    from the A-position ``x0``, checked as for :func:`banach_iterate` before
    a T that is not total on A or leaves B is refused.  Each successor lies
    in A0, so this walk too takes at most |A0| iterations.

    No partner table is read: each successor is found by one kernel scan of A
    for the points within eps_prox of d(A,B) from the current image, raising
    at the offending step (with the iterate prefix attached) if there is none
    or several.  ``certificate`` is the induced map's, as for
    :func:`banach_iterate`; None runs uncertified, with no a-priori bounds
    and never guaranteed.  On instances where the induced map exists this
    produces the exact same index sequence as :func:`banach_iterate`.
    """
    sp = geom.pair
    cut = geom.pair_distance + geom.eps_prox

    def step(i: int) -> int:
        img = int(t_map.image[i])
        d = pairwise_distances(sp.metric, sp.a, sp.b[img : img + 1])[:, 0]
        return _unique_partner(i, img, tuple(np.flatnonzero(d <= cut).tolist()))

    return _iterate(geom, t_map, lambda: t_map.validate(sp), step, x0, certificate)


def verify_result(
    result: BestProximityResult,
    geom: PairGeometry,
    t_map: ProximityMap,
    *,
    tol: float = DEFAULT_TOL,
    induced: InducedMap | None = None,
) -> Checklist:
    """Audit a solve independently of how it was produced.

    Checks the residual against ``tol`` (boundary inclusive), the exact lower
    bound d(z, T(z)) >= d(A,B), the triangles d(x_k, z) <= d(x_k, x_{k+1}) +
    d(x_{k+1}, z) that the a-priori bounds rest on, and -- when an induced
    map is supplied -- that z is literally a fixed point of its table.
    """
    sp = geom.pair
    z = result.index
    # d(x_k, z) for every k, then each step gap, in one kernel call.  The
    # triangle's witness (i, j, m) reads d(i,j) > d(i,m) + d(m,j).
    idx = list(result.indices)
    both = paired_distances(sp.metric, sp.a[idx + idx[:-1]], sp.a[[z] * len(idx) + idx[1:]])
    to_z, gaps = both[: len(idx)], both[len(idx) :]
    hit = triangle_violation(sp.metric, to_z[:-1], gaps, to_z[1:])
    if hit is None:
        orbit = Check("orbit-triangle", True, f"d(x_k, z) <= d(x_k, x_k+1) + d(x_k+1, z) at all {len(gaps)} steps")
    else:
        (k,) = hit
        i, m = idx[k], idx[k + 1]
        detail = f"k = {k}: d(A[{i}], A[{z}]) = {to_z[k]} > d(A[{i}], A[{m}]) + d(A[{m}], A[{z}]) = {gaps[k]} + {to_z[k + 1]}"
        orbit = Check("orbit-triangle", False, detail, (i, z, m))
    d_img = distance(sp.metric, sp.a[z], sp.b[t_map.image[z]])
    residual = abs(d_img - geom.pair_distance)
    checks = [
        Check(
            "residual-within-tol",
            residual <= tol,
            f"|d(z,T(z)) - d(A,B)| = {residual} (tol {tol})",
        ),
        Check(
            "lower-bound",
            d_img >= geom.pair_distance,
            f"d(z,T(z)) = {d_img} >= d(A,B) = {geom.pair_distance}",
        ),
        orbit,
    ]
    if induced is not None:
        image = int(induced.table[z])
        s_z = image if image >= 0 and z in induced.geometry.a0 else None  # S is defined on A0 only
        checks.append(Check("fixed-point", s_z == z, f"S(z) = A[{s_z}]"))
    return Checklist(tuple(checks))

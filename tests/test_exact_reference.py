"""An exact reference for every decision of ``certify`` and ``oracle``.

The reference reads an instance's floats as ``Fraction``s and works on
squared distances only, so it shares no code with the distance kernel: it
decides d(A,B)^2, the proximal partners at ``eps_prox`` (``d <= d* + e``
squared twice), A0 and B0, T(A0) in B0 with unique partners, the
contraction verdict (d(Sx, Sy)^2 < d(x, y)^2 on every pair of A0) and the
oracle's argmin set.  The reported floats are not compared.

On integer coordinates of magnitude below 2^23 on at most 3 axes every
squared distance is an integer below 2^50.  There the kernel's sums are
exact and its square root is correctly rounded and monotone; distinct
squares below 2^50 have roots more than 2^-26 apart, which separates them
at eps_prox 0 and at the default 1e-9 alike, so every decision must agree.
Scaled by m = 100000003 the squares pass 2^53 and the kernel rounds them:
there the float A0 can disagree, which ROADMAP item 2 mends.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from test_known_defects import known_defect, tied_partners_instance

from bestprox import assess_instance, brute_force_solve, euclidean_metric, make_instance

# Below 2^23 in magnitude, a coordinate difference is below 2^24, and a
# squared distance over 3 axes below 3 * 2^48 < 2^50.
LIMIT = 2**23
SCALE = 100000003


@dataclass(frozen=True)
class Decisions:
    a0: tuple[int, ...]
    b0: tuple[int, ...]
    partners: tuple[tuple[int, tuple[int, ...]], ...]  # (j, partners of B[j]) over B0
    subset: bool  # T(A0) lies in B0
    s_map: tuple[int, ...] | None  # S over A0, where every image has one partner
    contraction: bool | None  # d(Sx, Sy) < d(x, y) on every pair of A0, where S exists
    hypotheses: bool
    argmin: tuple[int, ...]
    best_proximity: bool


def squared(p, q) -> Fraction:
    return sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(p, q))


def within(dd: Fraction, best: Fraction, eps: Fraction) -> bool:
    """sqrt(dd) <= sqrt(best) + eps, squared twice: dd - best - eps^2 <= 2 eps sqrt(best)."""
    lhs = dd - best - eps * eps
    return lhs <= 0 or lhs * lhs <= 4 * eps * eps * best


def exact_decisions(inst) -> Decisions:
    a, b = inst.pair.a.tolist(), inst.pair.b.tolist()
    t, eps = inst.t_map.image.tolist(), Fraction(inst.eps_prox)
    dd = [[squared(p, q) for q in b] for p in a]
    best = min(map(min, dd))
    partners = [tuple(i for i in range(len(a)) if within(dd[i][j], best, eps)) for j in range(len(b))]
    a0 = tuple(sorted({i for group in partners for i in group}))
    b0 = tuple(j for j in range(len(b)) if partners[j])
    subset = all(partners[t[i]] for i in a0)
    s_map = tuple(partners[t[i]][0] for i in a0) if all(len(partners[t[i]]) == 1 for i in a0) else None
    contraction = None
    if s_map is not None:
        s = dict(zip(a0, s_map))
        contraction = all(squared(a[s[x]], a[s[y]]) < squared(a[x], a[y]) for x, y in combinations(a0, 2))
    values = [squared(p, b[j]) for p, j in zip(a, t)]
    low = min(values)
    return Decisions(
        a0=a0,
        b0=b0,
        partners=tuple((j, partners[j]) for j in b0),
        subset=subset,
        s_map=s_map,
        contraction=contraction,
        # The metric row holds on distinct integer coordinates, and A0, B0 are nonempty.
        hypotheses=s_map is not None and contraction,
        argmin=tuple(i for i, v in enumerate(values) if v == low),
        best_proximity=within(low, best, eps),
    )


def program_decisions(inst) -> Decisions:
    """The same decisions as ``certify`` (its checklist) and ``oracle`` make them."""
    assessment = assess_instance(inst)
    geom, s_map = assessment.geometry, assessment.s_map
    a0 = geom.a0
    unique = (s_map.count[a0] == 1).all()
    cert = assessment.certificate
    oracle = brute_force_solve(inst.pair, inst.t_map, inst.eps_prox)
    return Decisions(
        a0=tuple(a0.tolist()),
        b0=tuple(geom.b0.tolist()),
        partners=tuple((j, geom.partners_in_a(j)) for j in geom.b0.tolist()),
        subset=assessment.check("T(A0)-subset-B0").passed,
        s_map=tuple(s_map.table[a0].tolist()) if unique else None,
        contraction=None if cert is None else cert.verdict == "contraction",
        hypotheses=assessment.passed,
        argmin=oracle.argmin_indices,
        best_proximity=oracle.is_best_proximity,
    )


@st.composite
def integer_instances(draw):
    """1-6 points a side, repeats dropped, on 1-3 axes, coordinates integers
    below 2^23 in magnitude, and any T.  Half the draws put small grid
    coordinates on one drawn scale, so exact ties between distances are
    common.  The coordinates are drawn as one flat list, which hypothesis
    generates at half the cost of a list of tuples."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        scale = draw(st.integers(1, (LIMIT - 1) // 4))
        coord = st.integers(-4, 4).map(lambda k: float(k * scale))
    else:
        coord = st.integers(-(LIMIT - 1), LIMIT - 1).map(float)
    flat = draw(st.lists(coord, min_size=2 * dim, max_size=12 * dim))
    points = [tuple(flat[i : i + dim]) for i in range(0, len(flat) - dim + 1, dim)]
    cut = draw(st.integers(max(1, len(points) - 6), min(6, len(points) - 1)))
    a, b = list(dict.fromkeys(points[:cut])), list(dict.fromkeys(points[cut:]))
    t = draw(st.lists(st.integers(0, len(b) - 1), min_size=len(a), max_size=len(a)))
    return a, b, t


@pytest.mark.parametrize("eps_prox", [0.0, None], ids=["eps0", "default"])
@given(case=integer_instances())
@settings(max_examples=750, deadline=None)
def test_every_decision_matches_the_exact_reference(case, eps_prox):
    inst = make_instance(euclidean_metric(), *case, eps_prox=eps_prox)
    assert program_decisions(inst) == exact_decisions(inst)


# Grid coordinates which, times SCALE and with T sending A onto B[0], make
# the float A0 lose a point that the exact one holds; found with the reference
# on random grid shapes.  ROADMAP item 2's instance comes first.
SCALED_GRIDS = [
    ([(4, -4, -2), (-4, -4, -2), (0, 0, 0), (2, -1, -3), (-3, -4, 0)], [(4, 4, -4), (1, 4, -3)]),
    ([(0, -1, 4), (-2, -2, -3), (1, 0, 2)], [(-3, -1, 1)]),
    ([(-2, 0), (4, -4)], [(4, 3), (1, 4), (4, 1)]),
]


def scaled_instances():
    yield tied_partners_instance()
    for a, b in SCALED_GRIDS:
        yield make_instance(euclidean_metric(), [[k * SCALE for k in p] for p in a], [[k * SCALE for k in q] for q in b], [0] * len(a))


@known_defect
@pytest.mark.parametrize("inst", scaled_instances())
def test_scaled_grid_a0_matches_the_exact_reference(inst):
    assert program_decisions(inst).a0 == exact_decisions(inst).a0

"""Hypothesis checklist and report payloads shared by the CLI commands.

Reports always show the full hypothesis list of the best-proximity theorem,
pass or fail, so its preconditions stay visible:

* the distance table/function is a metric;
* A, B nonempty (closedness and completeness are automatic for finite sets);
* B approximatively compact with respect to A (trivial at finite scale);
* A0 and B0 nonempty;
* T maps A0 into B0;
* T is a proximal contraction: unique partners and alpha_hat < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .engine import (
    ContractionCertificate,
    InducedMap,
    BestProximityResult,
    IterationTrace,
    certify_contraction,
    classify_partners,
)
from .geometry import PairGeometry, check_approximative_compactness, proximal_subsets
from .instance import Instance
from .metric import EXPLICIT_MATRIX, MetricValidation, as_point, validate_metric

DECLARED_ALPHA_SLACK = 1e-12


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    detail: str
    witness: object = None


@dataclass(frozen=True)
class InstanceAssessment:
    geometry: PairGeometry
    induced: InducedMap | None
    certificate: ContractionCertificate | None
    checks: tuple[CheckRow, ...]
    declared_alpha_ok: bool | None
    # The A0-scope certificate of the single-partner part of the induced map
    # (all of it when the map exists), computed on first call and then reused.
    a0_certificate: Callable[[], ContractionCertificate]

    @property
    def hypotheses_ok(self) -> bool:
        return all(row.passed for row in self.checks)


def assess_instance(inst: Instance, *, wide: bool = False) -> InstanceAssessment:
    """Evaluate every theorem hypothesis on a loaded instance (non-raising)."""
    sp = inst.pair
    pool = np.concatenate([sp.a, sp.b]) if sp.metric.kind != EXPLICIT_MATRIX else None
    validation = validate_metric(sp.metric, 1000, points=pool)
    geom = proximal_subsets(sp, inst.eps_prox)
    compactness = check_approximative_compactness(sp)

    rows = [
        CheckRow(
            "metric-axioms",
            validation.passed,
            _metric_detail(validation),
            tuple(c.witness for c in validation.failures) or None,
        ),
        CheckRow(
            "nonempty-A-B",
            True,
            f"|A| = {len(sp.a)}, |B| = {len(sp.b)}; finite sets are closed and complete",
        ),
        CheckRow(
            "approximative-compactness",
            compactness.holds,
            f"{compactness.status}: {compactness.reason}",
        ),
        CheckRow(
            "nonempty-A0-B0",
            bool(geom.a0) and bool(geom.b0),
            f"|A0| = {len(geom.a0)}, |B0| = {len(geom.b0)} at eps_prox = {geom.eps_prox}",
        ),
    ]

    classes = classify_partners(geom, inst.t_map)
    if classes.missing:
        i = classes.missing[0]
        rows.append(
            CheckRow(
                "T(A0)-subset-B0",
                False,
                f"image of A[{i}] (= B[{inst.t_map.image[i]}]) has no proximal partner in A; "
                f"{len(classes.missing)} of {len(geom.a0)} images unpartnered",
                (i, inst.t_map.image[i]),
            )
        )
    else:
        rows.append(
            CheckRow(
                "T(A0)-subset-B0",
                True,
                f"all {len(geom.a0)} images of A0 have proximal partners",
            )
        )

    single = InducedMap(geom, inst.t_map, classes.table)
    a0_certificate = cache(partial(certify_contraction, single))
    induced = None
    certificate = None
    if not classes.missing and not classes.ambiguous:
        induced = single
        certificate = certify_contraction(induced, wide=True) if wide else a0_certificate()

    declared_ok: bool | None = None
    if classes.ambiguous:
        i, partners = next(iter(classes.ambiguous.items()))
        contraction = (
            False,
            f"non-unique proximal partner: image of A[{i}] pairs with A indices "
            f"{partners}; a proximal contraction forces them to coincide",
            (i, *partners),
        )
    elif certificate is not None:
        detail = (
            f"alpha_hat = {certificate.alpha_hat!r} over {certificate.pair_count} "
            f"pairs ({certificate.scope} scope)"
        )
        if certificate.witness is not None:
            detail += f"; witness A-pair {certificate.witness}"
        if inst.alpha_declared is not None:
            declared_ok = certificate.alpha_hat <= inst.alpha_declared + DECLARED_ALPHA_SLACK
            detail += (
                f"; declared alpha {inst.alpha_declared!r} "
                + ("confirmed" if declared_ok else "CONTRADICTED by alpha_hat")
            )
        contraction = (certificate.alpha_hat < 1.0, detail, certificate.witness)
    else:
        # Partner structure is broken; measure what the well-defined part shows.
        part = a0_certificate()
        contraction = (
            False,
            f"not certifiable (T(A0) ⊄ B0); partial alpha over {part.pair_count} "
            f"well-defined pairs = {part.alpha_hat!r}",
            part.witness,
        )
    rows.append(CheckRow("proximal-contraction", *contraction))

    return InstanceAssessment(
        geometry=geom,
        induced=induced,
        certificate=certificate,
        checks=tuple(rows),
        declared_alpha_ok=declared_ok,
        a0_certificate=a0_certificate,
    )


def _metric_detail(validation: MetricValidation) -> str:
    mode = "exhaustive" if validation.exhaustive else f"sampled ({validation.samples} triples)"
    if validation.passed:
        return f"symmetry, identity, nonnegativity, triangle all hold ({mode})"
    parts = [f"{c.name} fails: witness {c.witness}; {c.detail}" for c in validation.failures]
    return f"{mode}: " + " | ".join(parts)


def assessment_payload(inst: Instance, assessment: InstanceAssessment) -> dict:
    sp = inst.pair
    geom = assessment.geometry
    cert = assessment.certificate
    return {
        "metric": {"kind": sp.metric.kind},
        "sizes": {"A": len(sp.a), "B": len(sp.b)},
        "pair_distance": geom.pair_distance,
        "a0_size": len(geom.a0),
        "b0_size": len(geom.b0),
        "a0": list(geom.a0),
        "b0": list(geom.b0),
        "eps_prox": inst.eps_prox,
        "tol": inst.tol,
        "checks": [
            {
                "name": row.name,
                "passed": row.passed,
                "detail": row.detail,
                "witness": _jsonable(row.witness),
            }
            for row in assessment.checks
        ],
        "hypotheses_ok": assessment.hypotheses_ok,
        "alpha_hat": cert.alpha_hat if cert else None,
        "alpha_witness": list(cert.witness) if cert and cert.witness else None,
        "alpha_pair_count": cert.pair_count if cert else None,
        "contraction_verdict": cert.verdict if cert else None,
        "alpha_declared": inst.alpha_declared,
        "declared_alpha_ok": assessment.declared_alpha_ok,
    }


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def trace_payload(trace: IterationTrace) -> dict:
    return {
        "indices": list(trace.indices),
        "points": trace.points.tolist(),
        "step_gaps": list(trace.step_gaps),
        "residuals": list(trace.residuals),
        "a_priori_bounds": list(trace.a_priori_bounds),
        "alpha_hat": trace.alpha_hat,
        "stop_reason": trace.stop_reason,
    }


def result_payload(result: BestProximityResult) -> dict:
    return {
        "index": result.index,
        "point": result.point.tolist(),
        "residual": result.residual,
        "iterations": result.iterations,
        "stop_reason": result.trace.stop_reason,
        "guaranteed": result.guaranteed,
        "trace": trace_payload(result.trace),
    }


def format_point(p) -> str:
    p = as_point(p)
    if isinstance(p, tuple):
        return "(" + ", ".join(repr(c) for c in p) + ")"
    return f"#{p}"


def render_checklist(assessment: InstanceAssessment) -> list[str]:
    lines = ["hypothesis checklist:"]
    for row in assessment.checks:
        mark = "PASS" if row.passed else "FAIL"
        lines.append(f"  [{mark}] {row.name}: {row.detail}")
    return lines


def render_assessment(inst: Instance, assessment: InstanceAssessment) -> list[str]:
    sp = inst.pair
    geom = assessment.geometry
    lines = [
        f"metric: {sp.metric.kind}",
        f"|A| = {len(sp.a)}, |B| = {len(sp.b)}",
        f"pair distance d(A,B) = {geom.pair_distance!r}",
        f"|A0| = {len(geom.a0)}, |B0| = {len(geom.b0)} (eps_prox = {geom.eps_prox!r})",
    ]
    lines += render_checklist(assessment)
    return lines


def render_trace(trace: IterationTrace, head_tail: int = 10) -> list[str]:
    steps = list(zip(trace.indices, trace.residuals))
    lines = [f"trace ({len(trace.indices)} points, stop: {trace.stop_reason}):"]

    def fmt(k, idx, res):
        return f"  step {k}: A[{idx}], residual {res!r}"

    if len(steps) <= 2 * head_tail:
        shown = [fmt(k, i, r) for k, (i, r) in enumerate(steps)]
    else:
        head = [fmt(k, i, r) for k, (i, r) in enumerate(steps[:head_tail])]
        tail_start = len(steps) - head_tail
        tail = [fmt(tail_start + k, i, r) for k, (i, r) in enumerate(steps[-head_tail:])]
        shown = head + [f"  ... {len(steps) - 2 * head_tail} steps elided ..."] + tail
    return lines + shown


def render_result(label: str, result: BestProximityResult) -> list[str]:
    lines = [
        f"result ({label}): A[{result.index}] = {format_point(result.point)}",
        f"  residual |d(z,T(z)) - d(A,B)| = {result.residual!r}",
        f"  iterations = {result.iterations} ({result.trace.stop_reason})",
        f"  guaranteed: {'yes' if result.guaranteed else 'no (unguaranteed best effort)'}",
    ]
    lines += ["  " + l for l in render_trace(result.trace)]
    return lines

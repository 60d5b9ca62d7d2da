"""Hypothesis checklist and the reports of the CLI commands.

A command's report is one payload dict, built from :func:`assessment_payload`
and :func:`result_payload`, with a non-finite float written as a string
(:func:`strict_payload`).  The CLI prints it as JSON, or as text through
:func:`render_text`, which reads nothing but the payload: the text report is a
function of the JSON report, so every value it shows is a JSON field.

Reports always show the full hypothesis list of the best-proximity theorem,
pass or fail, so its preconditions stay visible:

* the distance table/function is a metric;
* A, B nonempty (closedness and completeness are automatic for finite sets);
* B approximatively compact with respect to A (trivial at finite scale);
* A0 and B0 nonempty;
* T maps A0 into B0;
* T is a proximal contraction: unique partners and 0 <= alpha_hat < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import (
    CONTRACTION,
    ContractionCertificate,
    InducedMap,
    BestProximityResult,
    certify_contraction,
    classify_partners,
)
from .geometry import PairGeometry, proximal_subsets
from .instance import Instance
from .metric import SAMPLED, SAMPLES, Check, Checklist, MetricValidation, validate_metric

DECLARED_ALPHA_SLACK = 1e-12

# A text trace longer than twice this shows its first and last this many steps.
TRACE_HEAD_TAIL = 10

# The methods of ``solve``, in the order its text report lists them.
SOLVE_METHODS = ("induced", "direct")


@dataclass(frozen=True)
class InstanceAssessment(Checklist):
    """The hypothesis checklist (``checks``) and what was computed for it.
    ``s_map`` is S, maybe partial on A0; ``induced`` is S where it is a self-map of A0."""

    geometry: PairGeometry
    s_map: InducedMap
    certificate: ContractionCertificate | None
    declared_alpha_ok: bool | None

    @property
    def induced(self) -> InducedMap | None:
        return self.s_map if (self.s_map.count[self.geometry.a0] == 1).all() else None

    @property
    def hypotheses_ok(self) -> bool:
        # The package reads ``passed``; bench/tests/test_bench.py reads this.
        return self.passed


def assess_instance(inst: Instance, *, wide: bool = False) -> InstanceAssessment:
    """Evaluate every theorem hypothesis on a loaded instance (non-raising)."""
    sp = inst.pair
    geom = proximal_subsets(sp, inst.eps_prox)

    rows = [
        _metric_row(validate_metric(sp.metric, geom)),
        Check(
            "nonempty-A-B",
            True,
            f"|A| = {len(sp.a)}, |B| = {len(sp.b)}; finite sets are closed and complete",
        ),
        # Every sequence in a finite set has a constant, hence convergent,
        # subsequence, so this holds trivially; the row shows the hypothesis
        # rather than silently assuming it.
        Check(
            "approximative-compactness",
            True,
            f"holds-trivially: B is finite ({len(sp.b)} points): any sequence in B "
            "has a constant, hence convergent, subsequence",
        ),
        Check(
            "nonempty-A0-B0",
            len(geom.a0) > 0 and len(geom.b0) > 0,
            f"|A0| = {len(geom.a0)}, |B0| = {len(geom.b0)} at eps_prox = {geom.eps_prox}",
        ),
    ]

    # S from the one partner classification; it is certified only where it
    # is a self-map of A0.
    s_map = classify_partners(geom, inst.t_map)
    count = s_map.count[geom.a0]
    missing, ambiguous = geom.a0[count == 0], geom.a0[count > 1]
    if len(missing):
        i = int(missing[0])
        subset = (
            False,
            f"image of A[{i}] (= B[{inst.t_map.image[i]}]) has no proximal partner in A; "
            f"{len(missing)} of {len(geom.a0)} images unpartnered",
            (i, int(inst.t_map.image[i])),
        )
    else:
        subset = (True, f"all {len(geom.a0)} images of A0 have proximal partners")
    rows.append(Check("T(A0)-subset-B0", *subset))

    certificate = certify_contraction(s_map, wide=wide) if not len(missing) and not len(ambiguous) else None

    declared_ok: bool | None = None
    if len(ambiguous):
        i = int(ambiguous[0])
        partners = geom.partners_in_a(int(inst.t_map.image[i]))
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
        contraction = (certificate.verdict == CONTRACTION, detail, certificate.witness)
    else:
        # Partner structure is broken; measure what the well-defined part shows.
        part = certify_contraction(s_map)
        contraction = (
            False,
            f"not certifiable (T(A0) ⊄ B0); partial alpha over {part.pair_count} "
            f"well-defined pairs = {part.alpha_hat!r}",
            part.witness,
        )
    rows.append(Check("proximal-contraction", *contraction))

    return InstanceAssessment(
        geometry=geom,
        s_map=s_map,
        certificate=certificate,
        checks=tuple(rows),
        declared_alpha_ok=declared_ok,
    )


def _metric_row(validation: MetricValidation) -> Check:
    """The ``metric-axioms`` row: every failing axiom, with its witness."""
    mode = f"{SAMPLED} ({SAMPLES} triples)" if validation.triangle_by == SAMPLED else validation.triangle_by
    if validation.passed:
        return Check("metric-axioms", True, f"symmetry, identity, nonnegativity, triangle all hold ({mode})")
    parts = [f"{c.name} fails: witness {c.witness}; {c.detail}" for c in validation.failures]
    return Check("metric-axioms", False, f"{mode}: " + " | ".join(parts), tuple(c.witness for c in validation.failures))


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
        "a0": geom.a0.tolist(),
        "b0": geom.b0.tolist(),
        "eps_prox": inst.eps_prox,
        "tol": inst.tol,
        "checks": [
            {
                "name": row.name,
                "passed": row.passed,
                "detail": row.detail,
                "witness": row.witness,
            }
            for row in assessment.checks
        ],
        "hypotheses_ok": assessment.passed,
        "alpha_hat": cert.alpha_hat if cert else None,
        "alpha_witness": list(cert.witness) if cert and cert.witness else None,
        "alpha_pair_count": cert.pair_count if cert else None,
        "contraction_verdict": cert.verdict if cert else None,
        "alpha_declared": inst.alpha_declared,
        "declared_alpha_ok": assessment.declared_alpha_ok,
    }


def result_payload(inst: Instance, result: BestProximityResult) -> dict:
    rows = inst.pair.a[list(result.indices)]
    return {
        "index": result.index,
        "point": rows[-1].tolist(),
        "residual": result.residuals[-1],
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "guaranteed": result.guaranteed,
        "trace": {
            "indices": list(result.indices),
            "points": rows.tolist(),
            "step_gaps": list(result.step_gaps),
            "residuals": list(result.residuals),
            "a_priori_bounds": list(result.a_priori_bounds),
            "alpha_hat": result.alpha_hat,
            "stop_reason": result.stop_reason,
        },
    }


def strict_payload(value):
    """``value`` with each non-finite float written as the string ``"inf"``,
    ``"-inf"`` or ``"nan"``: RFC 8259 JSON has no number for them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {key: strict_payload(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_payload(item) for item in value]
    return value


def format_number(x) -> str:
    """A number of the payload as the text report shows it: ``repr`` of a
    float, and a non-finite float, which :func:`strict_payload` wrote as a
    string, as that string (``inf``, not ``'inf'``)."""
    return x if isinstance(x, str) else repr(x)


def format_point(p) -> str:
    """A point as the JSON report holds it: a list of coordinates, or an int
    naming a point of a distance table."""
    if isinstance(p, list):
        return "(" + ", ".join(format_number(c) for c in p) + ")"
    return f"#{p}"


def render_assessment(doc: dict) -> list[str]:
    return [
        f"metric: {doc['metric']['kind']}",
        f"|A| = {doc['sizes']['A']}, |B| = {doc['sizes']['B']}",
        f"pair distance d(A,B) = {format_number(doc['pair_distance'])}",
        f"|A0| = {doc['a0_size']}, |B0| = {doc['b0_size']} (eps_prox = {format_number(doc['eps_prox'])})",
        "hypothesis checklist:",
        *(f"  [{'PASS' if row['passed'] else 'FAIL'}] {row['name']}: {row['detail']}" for row in doc["checks"]),
    ]


def render_result(label: str, res: dict) -> list[str]:
    trace = res["trace"]
    steps = [f"  step {k}: A[{i}], residual {format_number(r)}" for k, (i, r) in enumerate(zip(trace["indices"], trace["residuals"]))]
    if len(steps) > 2 * TRACE_HEAD_TAIL:
        steps[TRACE_HEAD_TAIL:-TRACE_HEAD_TAIL] = [f"  ... {len(steps) - 2 * TRACE_HEAD_TAIL} steps elided ..."]
    return [
        f"result ({label}): A[{res['index']}] = {format_point(res['point'])}",
        f"  residual |d(z,T(z)) - d(A,B)| = {format_number(res['residual'])}",
        f"  iterations = {res['iterations']} ({res['stop_reason']})",
        f"  guaranteed: {'yes' if res['guaranteed'] else 'no (unguaranteed best effort)'}",
        f"  trace ({len(trace['indices'])} points, stop: {trace['stop_reason']}):",
        *("  " + step for step in steps),
    ]


def _solve_lines(doc: dict) -> list[str]:
    lines = [f"start: A[{doc['start_index']}] = {format_point(doc['start_point'])}, method: {doc['method']}"]
    # A fixed order, not the dicts' own: a sort_keys round trip reorders them.
    for label in SOLVE_METHODS:
        if label in doc["results"]:
            lines += render_result(label, doc["results"][label])
            lines.append(f"verified ({label}): {'yes' if doc['verified'][label] else 'no'}")
    for label in SOLVE_METHODS:
        if label in doc["failures"]:
            info = doc["failures"][label]
            lines.append(f"result ({label}): FAILED - {info['error']}: {info['detail']}")
            if info.get("partial_indices"):
                lines.append(f"  partial iterate indices: {info['partial_indices']}")
    if doc["traces_equal"] is not None:
        lines.append(f"traces equal: {'yes' if doc['traces_equal'] else 'NO - scheme mismatch'}")
    return lines


def render_text(doc: dict) -> str:
    """The text report of a command, read from its JSON payload alone."""
    if doc["command"] == "generate":
        return (
            f"wrote {doc['out_path']}: {doc['kind']} instance, "
            f"|A| = {doc['sizes']['A']}, |B| = {doc['sizes']['B']}, "
            f"alpha target {doc['alpha_target']}, seed {doc['seed']}"
        )
    lines = [f"instance: {doc['instance']}"]
    if doc["command"] == "oracle":
        lines += [
            f"min over A of d(x, T(x)) = {format_number(doc['min_value'])}",
            f"argmin indices: {doc['argmin_indices']}",
            "argmin points: " + ", ".join(format_point(p) for p in doc["argmin_points"]),
            f"pair distance d(A,B) = {format_number(doc['pair_distance'])}",
            f"minimum attains d(A,B): {'yes (best proximity point exists)' if doc['is_best_proximity'] else 'no'}",
        ]
    else:
        lines += render_assessment(doc)
        if doc["command"] == "solve":
            lines += _solve_lines(doc)
        lines.append(f"exit code: {doc['exit_code']}")
    return "\n".join(lines)

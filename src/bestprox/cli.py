"""Command-line front end.

Commands: solve, certify, oracle, generate.  Exit codes are a contract:

* 0 -- success (verified convergence for solve, all hypotheses green for certify)
* 1 -- parse or usage error
* 2 -- a theorem hypothesis is violated (the report names it, with witnesses)
* 3 -- no verified convergence (budget exhausted, cycle, or trace mismatch)
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .engine import (
    DEFAULT_MAX_ITER,
    HypothesisViolation,
    MaxIterationsExceeded,
    NonUniquePartner,
    StartNotInA0,
    verify_result,
    banach_iterate,
    direct_iterate,
)
from .instance import Instance, InstanceFormatError, checked_tolerance, load_instance, save_instance
from .metric import EUCLIDEAN, EXPLICIT_MATRIX
from .oracle import GeneratorConfig, brute_force_solve, generate_instance
from .report import (
    assess_instance,
    assessment_payload,
    format_point,
    render_assessment,
    render_result,
    result_payload,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_NO_CONVERGENCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the exit-code contract
    # reserves 2 for hypothesis violations, so route usage errors to 1.
    def error(self, message):
        raise _UsageError(message)


def _flag(check):
    """An argparse ``type`` that reports ``check``'s ValueError under the flag's name."""

    def parse(text):
        try:
            return check(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return parse


def _max_iter(text: str) -> int:
    if int(text) < 1:
        raise ValueError(f"max_iter must be >= 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--format", choices=("text", "json"), default="text")
    shared.add_argument("--tol", type=_flag(partial(checked_tolerance, "tol")), default=None, help="convergence tolerance (default 1e-9)")
    shared.add_argument("--max-iter", type=_flag(_max_iter), default=None, help="iteration budget (default 10000)")
    shared.add_argument("--eps-prox", type=_flag(partial(checked_tolerance, "eps_prox")), default=None, help="override the instance proximity tolerance")

    parser = _Parser(prog="bestprox", description="Best proximity point solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[shared], help="run the fixed-point iteration")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", choices=("induced", "direct", "both"), default="both")
    p_solve.add_argument("--start-index", type=int, default=None, help="position in A to start from (default: first point of A0)")

    p_cert = sub.add_parser("certify", parents=[shared], help="check hypotheses and measure alpha; never iterates")
    p_cert.add_argument("instance")
    p_cert.add_argument("--wide", action="store_true", help="scan all of A, not only A0")

    p_oracle = sub.add_parser("oracle", parents=[shared], help="brute-force minimize d(x, T(x)) over A")
    p_oracle.add_argument("instance")

    p_gen = sub.add_parser("generate", parents=[shared], help="write a solvable random instance")
    p_gen.add_argument("out_path")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--alpha", type=float, default=0.5)
    p_gen.add_argument("--a-size", type=int, default=12)
    p_gen.add_argument("--b-size", type=int, default=0)
    p_gen.add_argument("--decoys", type=int, default=2)
    p_gen.add_argument("--gap", type=float, default=1.0)
    p_gen.add_argument("--kind", choices=(EUCLIDEAN, EXPLICIT_MATRIX), default=EUCLIDEAN)

    return parser


def _load(args) -> Instance:
    inst = load_instance(args.instance)
    return inst.with_tolerances(args.eps_prox, args.tol)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


def cmd_solve(args) -> int:
    inst = _load(args)
    tol = inst.tol
    max_iter = args.max_iter if args.max_iter is not None else DEFAULT_MAX_ITER
    assessment = assess_instance(inst)
    geom = assessment.geometry

    if args.start_index is not None:
        if not 0 <= args.start_index < len(inst.pair.a):
            raise _UsageError(f"--start-index {args.start_index} outside A (size {len(inst.pair.a)})")
        start = args.start_index
    else:
        start = geom.a0[0]

    results = {}
    failures = {}

    def run(label, fn):
        try:
            results[label] = fn()
        except MaxIterationsExceeded as err:
            failures[label] = {"error": "max-iterations", "detail": str(err)}
        except (HypothesisViolation, NonUniquePartner) as err:
            failures[label] = {
                "error": type(err).__name__,
                "detail": str(err),
                "partial_indices": list(err.partial_indices),
            }

    if args.method in ("induced", "both"):
        if assessment.induced is None:
            failures["induced"] = {
                "error": "HypothesisViolation",
                "detail": "induced map cannot be built (see checklist)",
            }
        else:
            run(
                "induced",
                lambda: banach_iterate(
                    assessment.induced,
                    start,
                    tol=tol,
                    max_iter=max_iter,
                    certificate=assessment.certificate,
                ),
            )
    if args.method in ("direct", "both"):
        alpha_hat = assessment.a0_certificate().alpha_hat
        run("direct", lambda: direct_iterate(geom, inst.t_map, start, alpha_hat=alpha_hat, tol=tol, max_iter=max_iter))

    traces_equal = None
    if args.method == "both" and len(results) == 2:
        traces_equal = results["induced"].trace.indices == results["direct"].trace.indices

    verifications = {
        label: verify_result(res, geom, inst.t_map, tol=tol, induced=assessment.induced)
        for label, res in results.items()
    }

    if not assessment.hypotheses_ok:
        code = EXIT_HYPOTHESIS
    elif failures or not results or traces_equal is False:
        code = EXIT_NO_CONVERGENCE
    elif all(v.passed for v in verifications.values()):
        code = EXIT_OK
    else:
        code = EXIT_NO_CONVERGENCE

    payload = assessment_payload(inst, assessment)
    payload.update(
        {
            "command": "solve",
            "instance": args.instance,
            "method": args.method,
            "start_index": start,
            "max_iter": max_iter,
            "results": {k: result_payload(r) for k, r in results.items()},
            "failures": failures,
            "traces_equal": traces_equal,
            "verified": {k: v.passed for k, v in verifications.items()},
            "exit_code": code,
        }
    )

    lines = [f"instance: {args.instance}"]
    lines += render_assessment(inst, assessment)
    lines.append(f"start: A[{start}] = {format_point(inst.pair.a[start])}, method: {args.method}")
    for label, res in results.items():
        lines += render_result(label, res)
        lines.append(f"verified ({label}): {'yes' if verifications[label].passed else 'no'}")
    for label, info in failures.items():
        lines.append(f"result ({label}): FAILED - {info['error']}: {info['detail']}")
        if info.get("partial_indices"):
            lines.append(f"  partial iterate indices: {info['partial_indices']}")
    if traces_equal is not None:
        lines.append(f"traces equal: {'yes' if traces_equal else 'NO - scheme mismatch'}")
    lines.append(f"exit code: {code}")
    _emit(args, payload, lines)
    return code


def cmd_certify(args) -> int:
    inst = _load(args)
    assessment = assess_instance(inst, wide=args.wide)
    code = EXIT_OK if assessment.hypotheses_ok else EXIT_HYPOTHESIS
    payload = assessment_payload(inst, assessment)
    payload.update({"command": "certify", "instance": args.instance, "exit_code": code})
    lines = [f"instance: {args.instance}"]
    lines += render_assessment(inst, assessment)
    lines.append(f"exit code: {code}")
    _emit(args, payload, lines)
    return code


def cmd_oracle(args) -> int:
    inst = _load(args)
    sol = brute_force_solve(inst.pair, inst.t_map, eps_prox=inst.eps_prox)
    payload = {
        "command": "oracle",
        "instance": args.instance,
        "min_value": sol.min_value,
        "argmin_indices": list(sol.argmin_indices),
        "argmin_points": sol.argmin_points.tolist(),
        "pair_distance": sol.pair_distance,
        "is_best_proximity": sol.is_best_proximity,
        "exit_code": EXIT_OK,
    }
    lines = [
        f"instance: {args.instance}",
        f"min over A of d(x, T(x)) = {sol.min_value!r}",
        f"argmin indices: {list(sol.argmin_indices)}",
        "argmin points: " + ", ".join(format_point(p) for p in sol.argmin_points),
        f"pair distance d(A,B) = {sol.pair_distance!r}",
        f"minimum attains d(A,B): {'yes (best proximity point exists)' if sol.is_best_proximity else 'no'}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        cfg = GeneratorConfig(
            seed=args.seed,
            space_kind=args.kind,
            a_size=args.a_size,
            b_size=args.b_size,
            alpha_target=args.alpha,
            slab_gap=args.gap,
            decoy_count=args.decoys,
        )
        inst = generate_instance(cfg)
    except ValueError as err:
        raise _UsageError(str(err)) from None
    save_instance(inst, args.out_path)
    payload = {
        "command": "generate",
        "out_path": args.out_path,
        "seed": cfg.seed,
        "kind": cfg.space_kind,
        "alpha_target": cfg.alpha_target,
        "sizes": {"A": len(inst.pair.a), "B": len(inst.pair.b)},
        "exit_code": EXIT_OK,
    }
    lines = [
        f"wrote {args.out_path}: {cfg.space_kind} instance, "
        f"|A| = {len(inst.pair.a)}, |B| = {len(inst.pair.b)}, "
        f"alpha target {cfg.alpha_target}, seed {cfg.seed}"
    ]
    _emit(args, payload, lines)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "oracle": cmd_oracle,
    "generate": cmd_generate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, InstanceFormatError, StartNotInA0) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line front end.

Commands: solve, certify, oracle, generate.  Exit codes are a contract:

* 0 -- success (verified convergence for solve, all hypotheses green for certify)
* 1 -- parse or usage error, out of memory, or stdout closed before the report was written
* 2 -- a theorem hypothesis is violated (the report names it, with witnesses)
* 3 -- no verified convergence (cycle, trace mismatch, or a failed check)

A walk of `solve` takes at most |A0| iterations, as each step stops or visits
a new point of A0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from .engine import (
    HypothesisViolation,
    NonUniquePartner,
    verify_result,
    banach_iterate,
    direct_iterate,
)
from .instance import Instance, InstanceFormatError, checked_tolerance, load_instance, save_instance
from .metric import EUCLIDEAN, EXPLICIT_MATRIX
from .oracle import GeneratorConfig, brute_force_solve, generate_instance
from .report import SOLVE_METHODS, assess_instance, assessment_payload, render_text, result_payload, strict_payload

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


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it reads: --format everywhere,
    # --eps-prox where an instance is loaded, --tol where it is reported.
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    eps = _Parser(add_help=False, parents=[fmt])
    eps.add_argument("--eps-prox", type=_flag(lambda text: checked_tolerance("tolerances.eps_prox", float(text))), default=None, help="override the instance proximity tolerance")
    tol = _Parser(add_help=False, parents=[eps])
    tol.add_argument("--tol", type=_flag(lambda text: checked_tolerance("tolerances.tol", float(text))), default=None, help="tolerance on the residual |d(z, T(z)) - d(A,B)| (default 1e-9)")

    parser = _Parser(prog="bestprox", description="Best proximity point solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[tol], help="run the fixed-point iteration")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", choices=(*SOLVE_METHODS, "both"), default="both")
    p_solve.add_argument("--start-index", type=int, default=None, help="position in A to start from (default: first point of A0)")

    p_cert = sub.add_parser("certify", parents=[tol], help="check hypotheses and measure alpha; never iterates")
    p_cert.add_argument("instance")
    p_cert.add_argument("--wide", action="store_true", help="scan all of A, not only A0")

    p_oracle = sub.add_parser("oracle", parents=[eps], help="brute-force minimize d(x, T(x)) over A")
    p_oracle.add_argument("instance")

    # Each generator flag is stored under its GeneratorConfig field, and only
    # when given, so the config's defaults are the only ones.
    p_gen = sub.add_parser("generate", parents=[fmt], argument_default=argparse.SUPPRESS, help="write a solvable random instance")
    p_gen.add_argument("out_path")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--alpha", type=float, dest="alpha_target", metavar="ALPHA")
    p_gen.add_argument("--a-size", type=int, help="at most this many points of A (default 12): the ladder ends where its rungs would shrink below about 1e-6 of the first, and a table's at 12 rungs")
    p_gen.add_argument("--b-size", type=int)
    p_gen.add_argument("--decoys", type=int, dest="decoy_count", metavar="DECOYS")
    p_gen.add_argument("--gap", type=float, dest="slab_gap", metavar="GAP")
    p_gen.add_argument("--kind", choices=(EUCLIDEAN, EXPLICIT_MATRIX), dest="space_kind")

    return parser


def _load(args) -> Instance:
    inst = load_instance(args.instance)
    return inst.with_tolerances(args.eps_prox, getattr(args, "tol", None))


def _emit(args, payload: dict) -> None:
    # The JSON payload is the report; the text report is rendered from it alone.
    # The JSON is written piece by piece as it is encoded: json.dumps joins
    # these same pieces, so the bytes are its own without its whole text.
    payload = strict_payload(payload)
    if args.format == "json":
        sys.stdout.writelines(json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(payload))
        sys.stdout.write("\n")
    else:
        print(render_text(payload))


def cmd_solve(args) -> int:
    inst = _load(args)
    assessment = assess_instance(inst)
    geom = assessment.geometry

    start = int(geom.a0[0]) if args.start_index is None else args.start_index
    results = {}
    failures = {}
    # Only the checklist's certificate may guarantee either walk.  Each walk
    # checks the start itself, and banach_iterate then refuses a partial S,
    # naming the first failing point of A0.
    for label in SOLVE_METHODS:
        if args.method not in (label, "both"):
            continue
        walk, *inputs = (banach_iterate, assessment.s_map) if label == "induced" else (direct_iterate, geom, inst.t_map)
        try:
            res = walk(*inputs, start, certificate=assessment.certificate)
        except ValueError as err:  # the start, refused before any step
            raise _UsageError(str(err)) from None
        except (HypothesisViolation, NonUniquePartner) as err:
            failures[label] = {
                "error": type(err).__name__,
                "detail": str(err),
                "partial_indices": list(err.partial_indices),
            }
        else:
            # A checklist that fails certifies nothing, so no result is guaranteed.
            results[label] = res if assessment.passed else replace(res, guaranteed=False)

    traces_equal = results["induced"].trace.indices == results["direct"].trace.indices if len(results) == 2 else None

    verifications = {
        label: verify_result(res, geom, inst.t_map, tol=inst.tol, induced=assessment.induced)
        for label, res in results.items()
    }

    if not assessment.passed:
        code = EXIT_HYPOTHESIS
    elif failures or traces_equal is False or not all(v.passed for v in verifications.values()):
        code = EXIT_NO_CONVERGENCE
    else:
        code = EXIT_OK

    payload = assessment_payload(inst, assessment)
    payload.update(
        {
            "command": "solve",
            "instance": args.instance,
            "method": args.method,
            "start_index": start,
            "start_point": inst.pair.a[start].tolist(),
            "results": {k: result_payload(r) for k, r in results.items()},
            "failures": failures,
            "traces_equal": traces_equal,
            "verified": {k: v.passed for k, v in verifications.items()},
            "exit_code": code,
        }
    )

    _emit(args, payload)
    return code


def cmd_certify(args) -> int:
    inst = _load(args)
    assessment = assess_instance(inst, wide=args.wide)
    code = EXIT_OK if assessment.passed else EXIT_HYPOTHESIS
    payload = assessment_payload(inst, assessment)
    payload.update({"command": "certify", "instance": args.instance, "exit_code": code})
    _emit(args, payload)
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
    _emit(args, payload)
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        cfg = GeneratorConfig(**{f.name: getattr(args, f.name) for f in fields(GeneratorConfig) if hasattr(args, f.name)})
        inst = generate_instance(cfg)
    except ValueError as err:
        raise _UsageError(str(err)) from None
    try:
        save_instance(inst, args.out_path)
    except OSError as err:
        raise _UsageError(f"cannot write {args.out_path}: {err.strerror or err}") from None
    payload = {
        "command": "generate",
        "out_path": args.out_path,
        "seed": cfg.seed,
        "kind": cfg.space_kind,
        "alpha_target": cfg.alpha_target,
        "sizes": {"A": len(inst.pair.a), "B": len(inst.pair.b)},
        "exit_code": EXIT_OK,
    }
    _emit(args, payload)
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
    except (_UsageError, InstanceFormatError, MemoryError) as err:
        # numpy's MemoryError names the allocation it could not make.
        print(f"error: {'out of memory: ' if isinstance(err, MemoryError) else ''}{err}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so the flush
        # at interpreter exit cannot fail again (the SIGPIPE note of the
        # Python docs), and report the unwritten report as exit code 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()

"""Command-line surface: reproduction commands emitting JSON, CSV, and files.

Exit codes: 0 success, 2 invalid arguments or inputs, 3 verification or
precondition failure, 4 cap or timeout refusal. All numbers print with 12
significant digits; the graph-size cap can be overridden with ZECAP_MAX_N.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import log2

from .capacity import CapacityResult, bounds_table, capacity, lambda_root, omega_root
from .channel import ChannelParams
from .codesearch import (
    DEFAULT_TIME_LIMIT,
    Code,
    optimal_code,
    rate,
    read_code_file,
    verify_code,
    write_code_file,
)
from .confusability import GRAPH_CAP, build_graph
from .constructions import (
    forbidden_run_code,
    forbidden_run_counts,
    no_run_break_counts,
    pairwise_block_code,
)
from .errors import CapExceededError, PreconditionError
from .simulate import zero_error_trial

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_REFUSED = 4


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _emit_json(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload))


def _graph_cap() -> int:
    env = os.environ.get("ZECAP_MAX_N")
    return int(env) if env else GRAPH_CAP


def _capacity_payload(result: CapacityResult) -> dict:
    payload: dict = {"kind": result.kind, "provenance": result.provenance}
    if result.kind == "exact":
        payload["value"] = _sig12(result.value)
    else:
        payload["lower"] = _sig12(result.lower)
        payload["upper"] = _sig12(result.upper)
    return payload


def _cmd_capacity(args: argparse.Namespace) -> int:
    result = capacity(args.k1, args.k2)
    _emit_json(_capacity_payload(result))
    return EXIT_OK


def _cmd_roots(args: argparse.Namespace) -> int:
    if args.k1 is None and args.k2 is None:
        raise ValueError("pass --k1 and/or --k2")
    payload: dict = {}
    if args.k1 is not None:
        root = lambda_root(args.k1)
        payload["lambda"] = {
            "k1": args.k1,
            "root": _sig12(root),
            "log2": _sig12(log2(root)),
        }
    if args.k2 is not None:
        root = omega_root(args.k2)
        payload["omega"] = {
            "k2": args.k2,
            "root": _sig12(root),
            "log2": _sig12(log2(root)),
        }
    _emit_json(payload)
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    graph = build_graph(ChannelParams(args.k1, args.k2), args.n, max_n=_graph_cap())
    text = graph.adjacency_text()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    params = ChannelParams(args.k1, args.k2)
    graph = build_graph(params, args.n, max_n=_graph_cap())
    result = optimal_code(graph, time_limit=args.time_limit)
    witness_file = args.witness_file
    if witness_file:
        write_code_file(witness_file, params, result.witness)
    _emit_json(
        {
            "size": result.size,
            "rate": _sig12(rate(args.n, result.size)),
            "optimal": result.optimal,
            "witness_file": witness_file,
        }
    )
    if not result.optimal:
        print("search timed out; size is a lower bound", file=sys.stderr)
        return EXIT_REFUSED
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "pairwise":
        code = pairwise_block_code(args.n)
        params = ChannelParams(args.k1 or 2, args.k2 or 1)
        default_name = f"code_pairwise_n{args.n}.txt"
    else:
        if args.run_bound is None:
            raise ValueError("forbidden-run needs --L")
        code = forbidden_run_code(args.n, args.run_bound)
        span = args.run_bound + 1
        params = ChannelParams(args.k1 or span, args.k2 or span)
        default_name = f"code_forbidden_run_n{args.n}_L{args.run_bound}.txt"
    out = args.out or default_name
    write_code_file(out, params, code)
    _emit_json({"file": out, "size": len(code), "n": code.n, "k1": params.k1, "k2": params.k2})
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    if args.family == "forbidden-run":
        if args.run_bound is None:
            raise ValueError("forbidden-run needs --L")
        table = forbidden_run_counts(args.run_bound, args.n_max)
    else:
        if args.k2 is None:
            raise ValueError("no-run-break needs --k2")
        table = no_run_break_counts(args.k2, args.n_max)
    print("n,count,rate_bits")
    for n in range(1, args.n_max + 1):
        count = table.counts[n]
        print(f"{n},{count},{rate(n, count):.12g}")
    return EXIT_OK


def _load_code(args: argparse.Namespace) -> tuple[ChannelParams, Code]:
    file_params, code = read_code_file(args.code)
    k1 = args.k1 if args.k1 is not None else file_params.k1
    k2 = args.k2 if args.k2 is not None else file_params.k2
    return ChannelParams(k1, k2), code


def _cmd_verify(args: argparse.Namespace) -> int:
    params, code = _load_code(args)
    valid = verify_code(params, code)
    _emit_json({"valid": valid, "size": len(code), "n": code.n})
    return EXIT_OK if valid else EXIT_VERIFICATION


def _cmd_simulate(args: argparse.Namespace) -> int:
    params, code = _load_code(args)
    report = zero_error_trial(params, code, args.trials, args.seed, force=args.force)
    _emit_json(report.to_json_dict())
    return EXIT_OK


def _cmd_bounds_table(args: argparse.Namespace) -> int:
    print("k1,lower_bits,upper_bits")
    for k1, lower, upper in bounds_table(args.start, args.stop):
        print(f"{k1},{lower:.12g},{upper:.12g}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecap",
        description="Zero-error coding workbench for binary run-break memory channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="capacity value or bounds for a channel")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("roots", help="characteristic roots and their log2 values")
    p.add_argument("--k1", type=int, help="input-memory root parameter (>= 2)")
    p.add_argument("--k2", type=int, help="output-memory root parameter (>= 3)")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("graph", help="emit the confusability graph adjacency list")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("search", help="exact optimal zero-error code at length n")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT)
    p.add_argument("--witness-file", help="write the witness code here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("construct", help="write a construction-family code file")
    p.add_argument("family", choices=["pairwise", "forbidden-run"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", dest="run_bound", type=int, help="run bound (forbidden-run)")
    p.add_argument("--k1", type=int, help="override header channel parameter")
    p.add_argument("--k2", type=int, help="override header channel parameter")
    p.add_argument("--out", help="output path (default derived from arguments)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("count", help="family counts as CSV n,count,rate_bits")
    p.add_argument("family", choices=["forbidden-run", "no-run-break"])
    p.add_argument("--L", dest="run_bound", type=int, help="run bound (forbidden-run)")
    p.add_argument("--k2", type=int, help="output span (no-run-break)")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="check a code file for zero-error validity")
    p.add_argument("--code", required=True)
    p.add_argument("--k1", type=int, help="override the file header")
    p.add_argument("--k2", type=int, help="override the file header")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="seeded trial batch through the channel")
    p.add_argument("--code", required=True)
    p.add_argument("--k1", type=int, help="override the file header")
    p.add_argument("--k2", type=int, help="override the file header")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true", help="simulate an unverified code")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds-table", help="CSV of capacity bounds in the open regime")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.set_defaults(func=_cmd_bounds_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: reproduction commands emitting JSON, CSV, and files.

Exit codes: 0 success, 2 invalid arguments or inputs, 3 verification or
precondition failure, 4 cap or timeout refusal. All numbers print with 12
significant digits; every size cap is a module constant, with no override.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from itertools import chain
from math import log2
from re import finditer

from .capacity import bounds_table, capacity, lambda_root, omega_root
from .channel import ChannelParams
from .codesearch import (
    DEFAULT_TIME_LIMIT,
    Code,
    _deadline,
    rate,
    read_code_file,
    search,
    verify_code,
    write_code_file,
)
from .confusability import half_rows
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


def _cmd_capacity(args: argparse.Namespace) -> int:
    result = capacity(args.k1, args.k2)
    payload: dict = {"kind": result.kind, "provenance": result.provenance}
    if result.kind == "exact":
        payload["value"] = _sig12(result.value)
    else:
        payload["lower"] = _sig12(result.lower)
        payload["upper"] = _sig12(result.upper)
    _emit_json(payload)
    return EXIT_OK


def _cmd_roots(args: argparse.Namespace) -> int:
    if args.k1 is None and args.k2 is None:
        raise ValueError("pass --k1 and/or --k2")
    payload: dict = {}
    for name, flag, solve in (("lambda", "k1", lambda_root), ("omega", "k2", omega_root)):
        k = getattr(args, flag)
        if k is not None:
            root = solve(k)
            payload[name] = {flag: k, "root": _sig12(root), "log2": _sig12(log2(root))}
    _emit_json(payload)
    return EXIT_OK


def _adjacency_lines(half: tuple[int, ...]) -> Iterator[str]:
    """`i: j1 j2 ...` per vertex, neighbours ascending, from the 0-half rows alone."""
    spec = f"0{2 * len(half)}b"  # row i read from its top bit lists vertex N-1-i's neighbours
    halves = (f"{row:b}"[::-1] for row in half), (format(row, spec) for row in reversed(half))
    for i, bits in enumerate(chain(*halves)):
        neighbors = " ".join(str(one.start()) for one in finditer("1", bits))
        yield f"{i}: {neighbors}\n" if neighbors else f"{i}:\n"


def _cmd_graph(args: argparse.Namespace) -> int:
    lines = _adjacency_lines(tuple(half_rows(ChannelParams(args.k1, args.k2), args.n)))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.writelines(lines)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.writelines(lines)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    params = ChannelParams(args.k1, args.k2)
    result = search(params, args.n, time_limit=args.time_limit)
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


def _cmd_rates(args: argparse.Namespace) -> int:
    params = ChannelParams(args.k1, args.k2)
    # search checks the limit and the cap too, but a bad one is refused before
    # the CSV header; half_rows checks n when called and walks nothing
    _deadline(args.time_limit)
    if not 1 <= args.n_min <= args.n_max:
        raise ValueError("need 1 <= n-min <= n-max")
    half_rows(params, args.n_max)
    with_families = args.k1 == 1 and args.k2 >= 4
    if with_families:
        lower = forbidden_run_counts(args.k2 - 1, args.n_max)
        upper = no_run_break_counts(args.k2, args.n_max)
    print("n,size,rate_bits,optimal" + (",family_lower,family_upper" if with_families else ""))
    status = EXIT_OK
    for n in range(args.n_min, args.n_max + 1):
        result = search(params, n, time_limit=args.time_limit)
        row = f"{n},{result.size},{rate(n, result.size):.12g},{int(result.optimal)}"
        if with_families:
            row += f",{lower[n]},{upper[n]}"
        print(row)
        if not result.optimal:
            print(f"n={n}: search timed out, size is a lower bound", file=sys.stderr)
            status = EXIT_REFUSED
    return status


def _params_or(args: argparse.Namespace, k1: int, k2: int) -> ChannelParams:
    """Channel from --k1/--k2 where given, else the defaults k1, k2."""
    return ChannelParams(
        k1 if args.k1 is None else args.k1, k2 if args.k2 is None else args.k2
    )


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "pairwise":
        code = pairwise_block_code(args.n)
        params = _params_or(args, 2, 1)
        default_name = f"code_pairwise_n{args.n}.txt"
    else:
        if args.run_bound is None:
            raise ValueError("forbidden-run needs --L")
        code = forbidden_run_code(args.n, args.run_bound)
        span = args.run_bound + 1
        params = _params_or(args, span, span)
        default_name = f"code_forbidden_run_n{args.n}_L{args.run_bound}.txt"
    out = args.out or default_name
    write_code_file(out, params, code)
    _emit_json({"file": out, "size": len(code), "n": code.n, "k1": params.k1, "k2": params.k2})
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    if args.family == "forbidden-run":
        if args.run_bound is None:
            raise ValueError("forbidden-run needs --L")
        counts = forbidden_run_counts(args.run_bound, args.n_max)
    else:
        if args.k2 is None:
            raise ValueError("no-run-break needs --k2")
        counts = no_run_break_counts(args.k2, args.n_max)
    print("n,count,rate_bits")
    for n in range(1, args.n_max + 1):
        print(f"{n},{counts[n]},{rate(n, counts[n]):.12g}")
    return EXIT_OK


def _load_code(args: argparse.Namespace) -> tuple[ChannelParams, Code]:
    file_params, code = read_code_file(args.code)
    return _params_or(args, file_params.k1, file_params.k2), code


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
    rows = bounds_table(args.start, args.stop)
    print("k1,lower_bits,upper_bits")
    for k1, lower, upper in rows:
        print(f"{k1},{lower:.12g},{upper:.12g}")
    return EXIT_OK


def _channel_flags(p: argparse.ArgumentParser, *, required: bool) -> None:
    """--k1 and --k2: the channel, or optional overrides of a code file's header."""
    note = None if required else "override the file header"
    for flag in ("--k1", "--k2"):
        p.add_argument(flag, type=int, required=required, help=note)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecap",
        description="Zero-error coding workbench for binary run-break memory channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="capacity value or bounds for a channel")
    _channel_flags(p, required=True)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("roots", help="characteristic roots and their log2 values")
    p.add_argument("--k1", type=int, help="input-memory root parameter (>= 2)")
    p.add_argument("--k2", type=int, help="output-memory root parameter (>= 3)")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("graph", help="emit the confusability graph adjacency list")
    _channel_flags(p, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("search", help="exact optimal zero-error code at length n")
    _channel_flags(p, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT)
    p.add_argument("--witness-file", help="write the witness code here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "rates",
        help="CSV n,size,rate_bits,optimal of exact optima per block length, "
        "with the bracketing family counts where they apply (k1 = 1, k2 >= 4)",
    )
    _channel_flags(p, required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("construct", help="write a construction-family code file")
    p.add_argument("family", choices=["pairwise", "forbidden-run"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", dest="run_bound", type=int, help="run bound (forbidden-run)")
    _channel_flags(p, required=False)
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
    _channel_flags(p, required=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="seeded trial batch through the channel")
    p.add_argument("--code", required=True)
    _channel_flags(p, required=False)
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

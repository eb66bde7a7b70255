#!/usr/bin/env python3
"""Sweep exact optimal code sizes over block lengths for one channel.

Emits CSV rows n,size,rate_bits plus, where the construction families apply,
the family counts bracketing the optimum. These finite-length rates are
empirical data points; no claim is made about how they relate to the
infinite-length limit.
"""

import argparse
import sys

from zecap import (
    CapExceededError,
    ChannelParams,
    build_graph,
    count_forbidden_run,
    count_no_run_break,
    optimal_code,
    rate,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k1", type=int, required=True)
    parser.add_argument("--k2", type=int, required=True)
    parser.add_argument("--n-min", type=int, default=1)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--time-limit", type=float, default=120.0)
    args = parser.parse_args()

    params = ChannelParams(args.k1, args.k2)
    bound = min(args.k1, args.k2) - 1
    with_families = args.k1 == 1 and args.k2 >= 4

    header = "n,size,rate_bits,optimal"
    if with_families:
        header += ",family_lower,family_upper"
    print(header)
    for n in range(args.n_min, args.n_max + 1):
        try:
            graph = build_graph(params, n)
        except CapExceededError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 4
        result = optimal_code(graph, time_limit=args.time_limit)
        row = f"{n},{result.size},{rate(n, result.size):.12g},{int(result.optimal)}"
        if with_families:
            row += f",{count_forbidden_run(n, args.k2 - 1)},{count_no_run_break(n, args.k2)}"
        print(row)
        if not result.optimal:
            print(f"n={n}: search timed out, size is a lower bound", file=sys.stderr)
    if bound >= 2:
        print(f"# run-limited family uses runs < {bound}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

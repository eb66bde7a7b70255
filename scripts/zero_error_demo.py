#!/usr/bin/env python3
"""End-to-end demonstration: build a construction code, verify it, push
seeded traffic through the channel, and report decode failures as JSON."""

import argparse
import json

from zecap import (
    ChannelParams,
    forbidden_run_code,
    pairwise_block_code,
    zero_error_trial,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("family", choices=["pairwise", "forbidden-run"])
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--L", dest="run_bound", type=int, default=3)
    parser.add_argument("--trials", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    if args.family == "pairwise":
        params = ChannelParams(2, 1)
        code = pairwise_block_code(args.n)
    else:
        span = args.run_bound + 1
        params = ChannelParams(span, span)
        code = forbidden_run_code(args.n, args.run_bound)

    report = zero_error_trial(params, code, args.trials, args.seed)
    print(
        json.dumps(
            {
                "k1": params.k1,
                "k2": params.k2,
                "n": code.n,
                "codewords": len(code),
                **report.to_json_dict(),
            }
        )
    )
    return 0 if report.failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

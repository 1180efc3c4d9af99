#!/usr/bin/env python3
"""A stand-in for moment_perfbench's untraced output, made in milliseconds.

    python3 tools/ab_pairs_stub.py --workload W --seed S [--seconds N]
        [--trace 0] [--tiny] [--speed F] [--drop-seed S] [--loss-diff-epoch E]
        [--io-diff-epoch E] [--fail]

It prints what tools/ab_pairs.py reads from the benchmark: a provenance
line, `untraced epoch N: loss X` lines for epochs 1-5, each followed by its
`io:` line, and the result JSON line with BENCHMARK.json's end-to-end
metrics. Every value follows from the seed alone: seeds_per_s is
(1000 + 10 * seed) * speed and the round latencies shrink by the same
factor. --drop-seed leaves seeds_per_s out of that seed's result,
--loss-diff-epoch changes that epoch's loss in its last digit,
--io-diff-epoch adds one command to that epoch's `io:` line, and --fail
prints a malformed provenance line and exits 3.
"""

import argparse
import json
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=1)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--speed", type=float, default=1.0)
    ap.add_argument("--drop-seed", type=int)
    ap.add_argument("--loss-diff-epoch", type=int)
    ap.add_argument("--io-diff-epoch", type=int)
    ap.add_argument("--fail", action="store_true")
    args = ap.parse_args()

    if args.fail:
        print('provenance {"workload": ')
        return 3
    print("provenance " + json.dumps({"workload": args.workload,
                                      "seed": str(args.seed)}))
    for epoch in range(1, 6):
        loss = 1.0 / (epoch + args.seed)
        if epoch == args.loss_diff_epoch:
            loss += 1e-6
        print(f"  untraced epoch {epoch}: loss {loss:.6f}  rounds 4")
        cmds = 100 * epoch + args.seed + (epoch == args.io_diff_epoch)
        print(f"    io: rows SSD 50.0% | cmds {cmds} (rows {2 * cmds})")
    metrics = {
        "seeds_per_s": (1000.0 + 10.0 * args.seed) * args.speed,
        "round_p50_ms": (10.0 + 0.01 * args.seed) / args.speed,
        "round_p90_ms": (12.0 + 0.01 * args.seed) / args.speed,
        "setup_s": 0.4,
        "peak_rss_mb": 140.0,
        "io_ok_frac": 1.0,
    }
    if args.seed == args.drop_seed:
        del metrics["seeds_per_s"]
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {k: {"value": v, "unit": ""}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

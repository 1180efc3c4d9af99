#!/usr/bin/env python3
"""Interleaved A/B pairs of the end-to-end benchmark, for speed claims.

    python3 tools/ab_pairs.py --parent P --change C [--workload W ...]
        [--pairs 10] [--seed-start 1] [--seconds 20] [--tiny]
        [--out ab_pairs.json]

P and C are each a built moment_perfbench binary or a source tree; a tree
is built with its own perfbench/run.py into <tree>/.bench_build/perfbench.

Pair i runs seed seed-start + i on every workload, untraced, once with each
binary; even pairs run the parent first, odd pairs the change. Host steal
(the share of CPU time the hypervisor took, from /proc/stat, read only) is
recorded for every run, and runs above 1% steal are listed, never
dropped. For each metric of BENCHMARK.json's end_to_end list it prints the
parent and change medians with their interquartile ranges, the relative
change, wins out of N (pairs where the change is better), the metric's
bound, whether a gain holds (at least 10 pairs, the change better in 9 of
10 and the medians apart by more than the parent's IQR) and whether the
parent's own spread exceeds the bound. It compares the `untraced epoch N:
loss` lines of the two runs of each pair on their common epochs, and the
`io:` line printed under each of those epoch lines, and prints the first
mismatch and the count of each kind. The JSON written to --out holds every
run and the summary.

Exits 1 when a run fails or a loss line differs, else 0: a change to the IO
stack moves the `io:` lines by design, so their mismatches are reported
but do not fail the session.
"""

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(ROOT, "BENCHMARK.json")
STEAL_MAX_PCT = 1.0  # a run above this host steal is flagged
LOSS_RE = re.compile(r"untraced epoch (\d+): loss (\S+)")


def io_lines(lines):
    """(epoch, line) for each `io:` line right under an untraced epoch."""
    out = []
    for prev, line in zip(lines, lines[1:]):
        m = LOSS_RE.search(prev)
        if m and line.strip().startswith("io:"):
            out.append((int(m.group(1)), line.strip()))
    return out


def load_run_py(tree):
    """perfbench/run.py of a source tree, as a module."""
    path = os.path.join(tree, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location(
        "perfbench_run_" + str(abs(hash(tree))), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(path):
    """(binary, source revision) for a binary or a source tree."""
    path = os.path.abspath(path)
    if not os.path.isdir(path):
        return path, None
    run_py = load_run_py(path)
    saved = os.environ.pop("CARGO_TARGET_DIR", None)
    try:
        binary = run_py.build()  # into the tree's own .bench_build
    finally:
        if saved is not None:
            os.environ["CARGO_TARGET_DIR"] = saved
    return binary, run_py.source_rev()


def cpu_times():
    """(steal, total) jiffies since boot, or None without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def run_once(binary, rev, workload, seed, seconds, tiny):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    if rev is not None:
        env["PERFBENCH_SOURCE_REV"] = rev
    before = cpu_times()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(170, 8 * seconds))
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = 124, ""
    after = cpu_times()
    steal = None
    if before is not None and after is not None and after[1] > before[1]:
        steal = 100.0 * (after[0] - before[0]) / (after[1] - before[1])
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    provenance = None
    for line in lines:
        if line.startswith("provenance "):
            try:
                provenance = json.loads(line[len("provenance "):])
            except ValueError:
                provenance = None
    ok = code == 0 and isinstance(result, dict) and result.get("correct")
    return {
        "seed": seed,
        "ok": bool(ok),
        "exit_code": code,
        "steal_pct": steal,
        "provenance": provenance,
        "metrics": {k: v["value"] for k, v in
                    (result or {}).get("metrics", {}).items()},
        "losses": [(int(m.group(1)), m.group(2))
                   for m in map(LOSS_RE.search, lines) if m],
        "io": io_lines(lines),
    }


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(metric, pairs):
    """Medians, IQRs, relative change and wins of one metric."""
    name, better = metric["name"], metric["better"]
    both = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs
            if name in p["metrics"] and name in c["metrics"]]
    if not both:
        return None
    ps, cs = [p for p, _ in both], [c for _, c in both]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in both if sign * (c - p) > 0)
    p_med, c_med = statistics.median(ps), statistics.median(cs)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    p_q1, p_q3 = quartiles(ps)
    return {
        "metric": name, "unit": metric["unit"], "better": better,
        "bound": metric["bound"], "n": len(ps), "wins": wins,
        "parent_median": p_med, "parent_iqr": [p_q1, p_q3],
        "change_median": c_med, "change_iqr": list(quartiles(cs)),
        "relative_change": rel,
        "worse_beyond_bound": -sign * rel > metric["bound"],
        # A gain holds over at least ten pairs when the change wins 9 of 10
        # and the medians differ by more than the parent's own IQR.
        "gain_holds": len(ps) >= 10 and wins >= 0.9 * len(ps)
                      and sign * (c_med - p_med) > p_q3 - p_q1,
        # The parent's spread alone exceeds the bound: no verdict either way.
        "spread_wider_than_bound": p_med != 0
                                   and (p_q3 - p_q1) / abs(p_med)
                                   > metric["bound"],
    }


def mismatches(parent, change, key):
    """The epochs of one pair whose `key` lines differ, on common epochs."""
    return [{"seed": parent["seed"], "epoch": pe, "parent": pl, "change": cl}
            for (pe, pl), (ce, cl) in zip(parent[key], change[key])
            if pe != ce or pl != cl]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", default="ab_pairs.json")
    args = ap.parse_args()

    with open(BENCH_JSON) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": resolve(args.parent), "change": resolve(args.change)}

    runs = {w: [] for w in workloads}  # per workload: [(parent, change)]
    for i in range(args.pairs):
        seed = args.seed_start + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            done = {}
            for side in order:
                binary, rev = sides[side]
                done[side] = run_once(binary, rev, w, seed, args.seconds,
                                      args.tiny)
            runs[w].append((done["parent"], done["change"]))
            p, c = done["parent"], done["change"]
            print(f"{w} seed {seed} ({order[0]} first): "
                  f"parent {p['metrics'].get('seeds_per_s', float('nan')):.0f}"
                  f" change {c['metrics'].get('seeds_per_s', float('nan')):.0f}"
                  f" seeds/s, steal {p['steal_pct'] or 0:.2f}%/"
                  f"{c['steal_pct'] or 0:.2f}%", flush=True)

    failed = False
    report = {"args": vars(args), "workloads": {}}
    for w in workloads:
        pairs = runs[w]
        bad = [(side, r["seed"], r["exit_code"]) for pr in pairs
               for side, r in zip(("parent", "change"), pr) if not r["ok"]]
        good = [pr for pr in pairs if pr[0]["ok"] and pr[1]["ok"]]
        steal_high = [(side, r["seed"], r["steal_pct"]) for pr in pairs
                      for side, r in zip(("parent", "change"), pr)
                      if r["steal_pct"] is not None
                      and r["steal_pct"] > STEAL_MAX_PCT]
        loss_diff = [m[0] for m in (mismatches(p, c, "losses")
                                    for p, c in good) if m]
        compared = sum(min(len(p["losses"]), len(c["losses"]))
                       for p, c in good)
        io_diff = [m for p, c in good for m in mismatches(p, c, "io")]
        io_compared = sum(min(len(p["io"]), len(c["io"])) for p, c in good)
        summary = [s for s in (summarize(m, good) for m in bench["end_to_end"])
                   if s]
        failed |= bool(bad) or bool(loss_diff)
        report["workloads"][w] = {
            "summary": summary, "failed_runs": bad, "steal_over_max": steal_high,
            "loss_epochs_compared": compared, "loss_mismatches": loss_diff,
            "io_epochs_compared": io_compared,
            "io_mismatch_count": len(io_diff),
            "io_first_mismatch": io_diff[0] if io_diff else None,
            "pairs": [{"parent": p, "change": c} for p, c in pairs],
        }

        print(f"\n{w}: {len(good)} of {len(pairs)} pairs complete")
        for s in summary:
            print(f"  {s['metric']:<14} {s['parent_median']:>11.4g} "
                  f"[{s['parent_iqr'][0]:.4g}-{s['parent_iqr'][1]:.4g}] -> "
                  f"{s['change_median']:>11.4g} "
                  f"[{s['change_iqr'][0]:.4g}-{s['change_iqr'][1]:.4g}] "
                  f"{100 * s['relative_change']:+6.1f}%  better in "
                  f"{s['wins']}/{s['n']}  bound {100 * s['bound']:.0f}%"
                  f"{'  gain holds' if s['gain_holds'] else ''}"
                  f"{'  WORSE BEYOND BOUND' if s['worse_beyond_bound'] else ''}"
                  f"{'  spread > bound' if s['spread_wider_than_bound'] else ''}")
        print(f"  loss lines: {compared} epochs compared, "
              f"{len(loss_diff)} pair(s) differ")
        for m in loss_diff[:1]:
            print(f"  first mismatch: seed {m['seed']} epoch {m['epoch']}: "
                  f"{m['parent']} vs {m['change']}")
        print(f"  io: lines: {io_compared} epochs compared, "
              f"{len(io_diff)} differ")
        for m in io_diff[:1]:
            print(f"  first io: mismatch: seed {m['seed']} epoch "
                  f"{m['epoch']}:\n    parent {m['parent']}\n"
                  f"    change {m['change']}")
        for side, seed, code in bad:
            print(f"  FAILED RUN: {side} seed {seed} exit {code}")
        for side, seed, steal in steal_high:
            print(f"  steal {steal:.2f}% > {STEAL_MAX_PCT}%: "
                  f"{side} seed {seed}")

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nwrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

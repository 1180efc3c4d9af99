#!/usr/bin/env python3
"""Self-test of tools/ab_pairs.py against tools/ab_pairs_stub.py.

    python3 tools/test_ab_pairs.py WORKDIR

Each case writes a parent and a change wrapper (shell scripts that run the
stub with fixed flags) into WORKDIR, runs ab_pairs.py on them for
sage-ssd-1gpu and checks its exit code and the JSON it writes. Exits 1 on
the first case that does not hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STUB = os.path.join(HERE, "ab_pairs_stub.py")
WORKLOAD = "sage-ssd-1gpu"


def wrapper(workdir, name, flags):
    path = os.path.join(workdir, name)
    with open(path, "w") as f:
        f.write(f'#!/bin/sh\nexec "{sys.executable}" "{STUB}" {flags} "$@"\n')
    os.chmod(path, 0o755)
    return path


def run_case(workdir, name, parent_flags, change_flags, pairs=10):
    """(exit code, report of the workload) of one ab_pairs.py session."""
    out = os.path.join(workdir, name + ".json")
    if os.path.exists(out):
        os.remove(out)  # a session that dies must not pass on an old report
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "ab_pairs.py"),
         "--parent", wrapper(workdir, name + "_parent", parent_flags),
         "--change", wrapper(workdir, name + "_change", change_flags),
         "--workload", WORKLOAD, "--pairs", str(pairs), "--seed-start", "1",
         "--seconds", "1", "--tiny", "--out", out],
        capture_output=True, text=True, timeout=120)
    with open(out) as f:
        return proc.returncode, json.load(f)["workloads"][WORKLOAD]


def metric(report, name):
    return next(s for s in report["summary"] if s["metric"] == name)


def main():
    workdir = sys.argv[1]
    os.makedirs(workdir, exist_ok=True)
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    # The same program on both sides: no wins, no gain, no loss mismatch.
    code, r = run_case(workdir, "same", "", "")
    s = metric(r, "seeds_per_s")
    check(code == 0, "same: exit 0")
    check(s["n"] == 10 and s["wins"] == 0 and not s["gain_holds"],
          "same: 0/10 wins, no gain")
    check(r["loss_epochs_compared"] == 50 and not r["loss_mismatches"],
          "same: 50 loss epochs compared, none differ")
    check(r["io_epochs_compared"] == 50 and r["io_mismatch_count"] == 0
          and r["io_first_mismatch"] is None,
          "same: 50 io: epochs compared, none differ")

    # A change 20% faster on every seed: the gain holds for the throughput
    # and both round latencies, and a metric that did not move wins nothing.
    code, r = run_case(workdir, "faster", "", "--speed 1.2")
    check(code == 0, "faster: exit 0")
    for name in ("seeds_per_s", "round_p50_ms", "round_p90_ms"):
        s = metric(r, name)
        check(s["wins"] == 10 and s["gain_holds"], f"faster: {name} gain")
    s = metric(r, "peak_rss_mb")
    check(s["wins"] == 0 and not s["gain_holds"], "faster: RSS unchanged")

    # seeds_per_s is missing from the parent's seed 1 and the change's seed
    # 2: the 8 remaining pairs compare the same seeds, and all are wins.
    code, r = run_case(workdir, "gaps", "--drop-seed 1",
                       "--speed 1.05 --drop-seed 2")
    s = metric(r, "seeds_per_s")
    check(code == 0, "gaps: exit 0")
    check(s["n"] == 8 and s["wins"] == 8, "gaps: 8/8 wins on aligned pairs")

    # One loss line differs: exit 1 and the first mismatch names it.
    code, r = run_case(workdir, "loss", "", "--loss-diff-epoch 3", pairs=2)
    check(code == 1, "loss: exit 1")
    m = r["loss_mismatches"]
    check(len(m) == 2 and m[0]["seed"] == 1 and m[0]["epoch"] == 3,
          "loss: mismatch at seed 1 epoch 3")

    # One io: line differs in each pair: it is counted and the first one
    # named, but an IO change moves these lines by design, so exit 0.
    code, r = run_case(workdir, "io", "", "--io-diff-epoch 2", pairs=2)
    check(code == 0, "io: exit 0")
    m = r["io_first_mismatch"]
    check(r["io_mismatch_count"] == 2 and m is not None and m["seed"] == 1
          and m["epoch"] == 2 and m["parent"] != m["change"],
          "io: 2 mismatches, the first at seed 1 epoch 2")
    check(not r["loss_mismatches"], "io: loss lines still match")

    # A failing run with a malformed provenance line: the session still
    # writes its JSON, lists the run and exits 1.
    code, r = run_case(workdir, "fail", "", "--fail", pairs=2)
    check(code == 1, "fail: exit 1")
    check(len(r["failed_runs"]) == 2
          and r["pairs"][0]["change"]["provenance"] is None,
          "fail: both change runs listed, provenance None")

    for f in failures:
        print(f"CHECK FAILED: {f}")
    print("ab_pairs self-test: " + ("FAILED" if failures else "all passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

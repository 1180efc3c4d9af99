#!/usr/bin/env python3
"""Golden outputs: what a deterministic program prints, checked in and compared.

    python3 tools/golden.py check BUILD_DIR [NAME ...]
    python3 tools/golden.py regen BUILD_DIR [NAME ...]

Both act on the goldens whose names match a NAME pattern (shell-style, e.g.
`bench_*`; all of them when none is given), running the programs built in
BUILD_DIR. `check` compares each program's output byte
for byte with tests/golden/NAME.txt, prints the first line that differs
for each golden that does not match, and exits 1 if any does not. `regen`
rewrites the goldens. A change that regenerates a golden lists each
changed file, and why, in CHANGES.md.

The goldens are the deterministic paper benches (their whole output),
`train_graphsage 3 2` with and without `--comm-plan=auto` (its epoch lines
with the wall-time field masked, and its `io:`, `comm:` and `hot-row cache:`
lines) and `golden_library_run` (its whole output: SAGE and GAT losses as
hex floats over a 2-SSD store). Each program runs in a fresh temporary
directory, with the caller's environment (MOMENT_COMPUTE_THREADS included).
"""

import fnmatch
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

# The paper benches whose output is the same on every run and at any pool
# size. bench_ablation_maxflow, bench_ablation_symmetry and
# bench_preprocessing_cost print timings, so they have no golden.
BENCHES = [
    "fig01_02_placements", "fig03_04_mhyperion", "fig05_06_gpu_expansion",
    "fig07_moment_placement", "fig10_end_to_end", "fig11_12_placement_sweep",
    "fig13_prediction", "fig14_15_ddak", "fig16_scalability",
    "fig17_qpi_traffic", "fig18_nvlink", "table01_platforms",
    "table02_datasets", "ablation_iops", "ext_featdim", "ext_adaptive",
    "ext_multinode",
]
TRAIN_RUNS = [["3", "2"], ["3", "2", "--comm-plan=auto"]]
TRAIN_KEEP = ("epoch", "io:", "comm:", "hot-row cache:")
EPOCH_WALL = re.compile(r"\(\d+\.\d+ s,")


def run(argv):
    argv = [os.path.abspath(argv[0])] + argv[1:]
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return proc.stdout


def train_graphsage_output(binary):
    out = []
    for args in TRAIN_RUNS:
        out.append("$ train_graphsage " + " ".join(args))
        for line in run([binary] + args).splitlines():
            if line.strip().startswith(TRAIN_KEEP):
                out.append(EPOCH_WALL.sub("(wall s,", line))
    return "\n".join(out) + "\n"


def goldens():
    """NAME -> (binary path under the build dir, output of a binary)."""
    table = {"train_graphsage": (os.path.join("examples", "train_graphsage"),
                                 train_graphsage_output),
             "golden_library_run": (os.path.join("tests", "golden_library_run"),
                                    lambda binary: run([binary]))}
    for b in BENCHES:
        table["bench_" + b] = (os.path.join("bench", "bench_" + b),
                               lambda binary: run([binary]))
    return table


def selected(table, patterns):
    return [n for n in sorted(table)
            if not patterns or any(fnmatch.fnmatch(n, p) for p in patterns)]


def golden_path(name):
    return os.path.join(GOLDEN_DIR, name + ".txt")


def check(build_dir, names):
    table = goldens()
    failed = 0
    for name in selected(table, names):
        rel, output = table[name]
        actual = output(os.path.join(build_dir, rel))
        with open(golden_path(name)) as f:
            expected = f.read()
        if actual == expected:
            print(f"golden {name}: {expected.count(chr(10))} lines match")
            continue
        failed += 1
        want, got = expected.split("\n"), actual.split("\n")
        i = next((i for i, (w, g) in enumerate(zip(want, got)) if w != g),
                 min(len(want), len(got)))
        print(f"golden {name}: line {i + 1} differs\n"
              f"  golden: {want[i] if i < len(want) else '<end of golden>'}\n"
              f"  actual: {got[i] if i < len(got) else '<end of output>'}")
    return 1 if failed else 0


def regen(build_dir, names):
    table = goldens()
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in selected(table, names):
        rel, output = table[name]
        text = output(os.path.join(build_dir, rel))
        with open(golden_path(name), "w") as f:
            f.write(text)
        print(f"wrote {os.path.relpath(golden_path(name), ROOT)}")
    return 0


def main():
    if len(sys.argv) >= 3 and sys.argv[1] in ("check", "regen"):
        action = check if sys.argv[1] == "check" else regen
        return action(sys.argv[2], sys.argv[3:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())

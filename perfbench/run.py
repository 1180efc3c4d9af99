#!/usr/bin/env python3
"""Builds and runs the end-to-end out-of-core training benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to stderr. The benchmark's own
output, whose last line is the JSON result, goes to stdout. Extra arguments
(--tiny, --trace-out PATH) are passed on to the benchmark.

Exits non-zero, without a result line, when the build fails, the benchmark
fails a check or crashes, or it runs longer than RUN_TIMEOUT_S.

Workloads: sage-ssd-1gpu and gat-mem-2gpu (listed in BENCHMARK.json) and
sage-ssd-2gpu. The last stalls ~31 s per epoch on the shared-SSD
dropped-completion defect, so a run outlasts RUN_TIMEOUT_S; run the built
binary directly for it:
    .bench_build/perfbench/moment_perfbench --workload sage-ssd-2gpu \
        --seed 1 --seconds 1 --trace 1
"""

import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "moment_perfbench"])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "moment_perfbench")


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run(binary, args, timeout_s=RUN_TIMEOUT_S):
    """Runs the benchmark. Returns (exit code, stdout lines, last line); a run
    past the timeout is killed and reported as exit code 124."""
    env = dict(os.environ, PERFBENCH_SOURCE_REV=source_rev())
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: benchmark exceeded {timeout_s} s; killed",
              file=sys.stderr)
        return 124, [], ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.rstrip("\n").split("\n")
    return proc.returncode, lines, lines[-1] if lines else ""


def parse_result(line):
    """The result object of a last line, or None when it is not one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    code, lines, last = run(binary, sys.argv[1:])
    if code == 124:
        return 1
    # The result line is printed only for a run that passed its checks.
    for line in lines[:-1]:
        print(line)
    if code != 0 or parse_result(last) is None:
        print(last, file=sys.stderr)
        print(f"run.py: benchmark failed (exit code {code})", file=sys.stderr)
        return 1
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark: output schema and checks, never
timings.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload it runs the benchmark
with --tiny (a 1,024-vertex graph) untraced and traced, and checks:
  - exit code 0, a provenance line and "checks: all passed";
  - the last line is {"correct", "attempted", "failed", "metrics"} with
    correct true, attempted >= 1 and failed 0;
  - the metric names and units are exactly BENCHMARK.json's end_to_end list
    (untraced) or per_layer list (traced);
  - the trace file is Chrome trace-event JSON whose spans each carry a name,
    start, end, parent span, worker and round, with every parent present;
  - bad arguments exit non-zero without a result line.
Exits 1 on the first failure.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as perfrun  # noqa: E402

WORKLOADS = ["sage-ssd-1gpu", "sage-ssd-2gpu", "gat-mem-2gpu"]
PROVENANCE_KEYS = {"workload", "seed", "cpu_model", "nproc", "compiler",
                   "build_type", "cxx_flags", "compute_pool_threads",
                   "source_rev"}
# Spans the traced run must contain, by layer.
REQUIRED_SPANS = {"setup", "setup.workbench", "setup.task", "setup.trainer",
                  "runtime.warmup_epoch", "runtime.epoch",
                  "iostack.gather_begin", "iostack.gather", "sampling.sample",
                  "gnn.forward", "gnn.loss", "gnn.backward", "gnn.optimizer"}
SSD_SPANS = {"setup.plan", "iostack.store_build", "iostack.cache_warm",
             "iostack.gather_wait"}


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def check_trace(path, workload):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    expect(events, f"{workload}: empty trace")
    ids = {e["args"]["id"] for e in events}
    for e in events:
        args = e["args"]
        for key in ("id", "parent", "worker", "round", "start_us", "end_us"):
            expect(key in args, f"{workload}: span {e['name']} lacks {key}")
        expect(e["ph"] == "X" and e["dur"] >= 0,
               f"{workload}: span {e['name']} is not a complete event")
        expect(args["end_us"] >= args["start_us"],
               f"{workload}: span {e['name']} ends before it starts")
        expect(args["parent"] == 0 or args["parent"] in ids,
               f"{workload}: span {e['name']} has an unknown parent")
    names = {e["name"] for e in events}
    required = REQUIRED_SPANS | (SSD_SPANS if "ssd" in workload else set())
    missing = required - names
    expect(not missing, f"{workload}: trace lacks spans {sorted(missing)}")
    rounds = [e["args"]["round"] for e in events
              if e["name"] == "iostack.gather_begin"]
    expect(min(rounds) == 0, f"{workload}: gather rounds do not start at 0")
    expect(PROVENANCE_KEYS <= set(doc["metadata"]),
           f"{workload}: trace metadata lacks provenance")


def main():
    with open(os.path.join(perfrun.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = perfrun.build()
    out_dir = os.path.join(perfrun.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for workload in WORKLOADS:
            for trace in (0, 1):
                trace_path = os.path.join(tmp, f"{workload}.json")
                code, lines, last = perfrun.run(binary, [
                    "--workload", workload, "--seed", "7", "--seconds", "0.3",
                    "--trace", str(trace), "--tiny",
                    "--trace-out", trace_path])
                label = f"{workload} trace {trace}"
                expect(code == 0, f"{label}: exit code {code}")
                expect(any(l.startswith("provenance {") for l in lines),
                       f"{label}: no provenance line")
                prov = json.loads(next(l for l in lines
                                       if l.startswith("provenance {"))
                                  [len("provenance "):])
                expect(PROVENANCE_KEYS <= set(prov),
                       f"{label}: provenance lacks keys")
                expect("checks: all passed" in lines, f"{label}: checks")
                result = perfrun.parse_result(last)
                expect(result is not None, f"{label}: bad result line")
                expect(result["correct"] is True, f"{label}: not correct")
                expect(isinstance(result["attempted"], int)
                       and result["attempted"] >= 1, f"{label}: attempted")
                expect(result["failed"] == 0, f"{label}: failed batches")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == expected[trace],
                       f"{label}: metrics differ from BENCHMARK.json: "
                       f"{sorted(set(got) ^ set(expected[trace]))}")
                for name, m in result["metrics"].items():
                    expect(isinstance(m["value"], (int, float)),
                           f"{label}: {name} is not a number")
                if trace:
                    check_trace(trace_path, workload)
                print(f"selftest: ok  {label}")
        for bad in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                     "--trace", "0"],
                    ["--workload", "sage-ssd-1gpu", "--seed", "x",
                     "--seconds", "1", "--trace", "0"],
                    ["--workload", "sage-ssd-1gpu", "--seed", "1",
                     "--seconds", "1", "--trace", "2"]):
            code, _, last = perfrun.run(binary, bad)
            expect(code != 0 and perfrun.parse_result(last) is None,
                   f"bad arguments {bad} were accepted")
        print("selftest: ok  bad arguments rejected")
    print("selftest: all passed")


if __name__ == "__main__":
    main()

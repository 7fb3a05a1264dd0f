#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ from source and runs one
seeded workload.

    python3 perfbench/run.py --workload service_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # the three in turn
    python3 perfbench/run.py --selftest

Workloads (perfbench/catalog.json has the full tags):
  service_mix   open loop against a QueryService on a 4-core board
  board_bulk    closed loop driving a 16-core board
  planner_skew  closed loop of adaptive-planner Selects on one Processor

--trace 0 measures the end-to-end metrics; --trace 1 measures the
per-layer metrics and writes the spans to perfbench/out/<workload>.spans.json
(Chrome trace events, loadable in ui.perfetto.dev). Every metric is printed
with its unit and clock; a tagged report lands in
perfbench/out/<workload>[.trace].json. The last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when any answer is wrong or the benchmark cannot run.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/) in
the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("service_mix", "board_bulk", "planner_skew")
# A run (after the build) must end well within 180 seconds.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        sys.exit(2)
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def load_catalog():
    with open(os.path.join(HERE, "catalog.json")) as f:
        return json.load(f)


def run_workload(binary, args, workload, out_dir):
    """Runs the binary; returns (exit code, parsed result or None)."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, None
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
    return proc.returncode, result


def report(catalog, args, result, out_dir):
    """Prints every metric with its unit and clock, writes the tagged
    report, and returns the metric object of the result line."""
    workload = next(w for w in catalog["workloads"]
                    if w["name"] == result["workload"])
    wanted = catalog["per_layer"] if args.trace else catalog["end_to_end"]
    extra = [] if args.trace else [
        m for m in catalog["report_only"] if workload["name"] in m["workloads"]]
    measured = result["metrics"]
    if args.trace:
        # A layer this workload bypasses reads 0; one it drives must have
        # been measured.
        for metric in wanted:
            if workload["name"] not in metric["workloads"]:
                measured.setdefault(metric["name"], 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        log("perfbench: the run did not report " + ", ".join(missing))
        sys.exit(1)

    print(f"== perfbench {workload['name']} (seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}) ==")
    print(f"   {workload['loop']} loop; {workload['offered']}")
    print(f"   stresses {', '.join(workload['stresses'])}; "
          f"bypasses {', '.join(workload['bypasses'])}")
    tagged = {}
    for metric in wanted + extra:
        value = measured[metric["name"]]
        tagged[metric["name"]] = {
            "value": value, "unit": metric["unit"], "clock": metric["clock"],
            "better": metric["better"]}
        print(f"   {metric['name']:36s} {value:>16.6f} {metric['unit']:7s} "
              f"[{metric['clock']}] ({metric['better']} is better)")
    print(f"   attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for key, value in sorted(result["info"].items()):
        print(f"   {key}: {value}")

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, workload["name"] + (".trace" if args.trace else "") + ".json")
    with open(path, "w") as f:
        json.dump({"schema": "dba.perfbench.report.v1", "workload": workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "correct": result["correct"],
                   "attempted": result["attempted"],
                   "failed": result["failed"], "metrics": tagged,
                   "info": result["info"]}, f, indent=2)
        f.write("\n")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in wanted}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check seed purity and host-thread invariance")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    started = time.time()
    binary = build()
    log(f"perfbench: build ready in {time.time() - started:.1f} s")
    if args.selftest:
        sys.exit(subprocess.run([binary, "selftest"]).returncode)

    catalog = load_catalog()
    out_dir = os.path.join(HERE, "out")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    ok = True
    for workload in workloads:
        code, result = run_workload(binary, args, workload, out_dir)
        if result is None:
            log(f"perfbench: {workload}: no result (exit code {code})")
            sys.exit(code or 1)
        results[workload] = {
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": report(catalog, args, result, out_dir)}
        ok = ok and code == 0 and result["correct"]
    print(json.dumps(results[workloads[0]] if len(workloads) == 1
                     else results))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

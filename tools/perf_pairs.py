#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --workload board_bulk --seeds 2001-2010 [--seconds 20] [--trace]

Runs `perfbench/run.py --workload W --seed S --seconds T` from two
checkouts, one pair per seed; the side that runs first alternates from
pair to pair. Each checkout builds into its own CARGO_TARGET_DIR
(<checkout>/.bench_build), so the two binaries never share a build tree.

For every end-to-end metric of the workload, and for the `qps_unscaled`
and `host_probe_rate` info fields where the workload reports them, it
prints each side's median and quartiles over the pairs and how many pairs
the change won (ties count for neither side). It also prints the address
of `HostSpeedProbe::Run` in each binary (from `nm`): board_bulk scales
its `qps` by that probe loop's speed, which follows its code address, so
a probe that moved shows up next to the numbers it scaled. Every run's
figures are written to --json when given.

Last, each end-to-end metric gets a no-regression verdict, with its
`bound` and `better` read from the change checkout's BENCHMARK.json:
the change median's move against the parent median, and

  worse beyond bound  the change median is worse by more than the bound;
  unresolved          the parent's quartile spread (relative to its
                      median) exceeds the bound, and not every change
                      run beats every parent run;
  within bound        otherwise;

followed by `gain` when, over ten or more pairs, the change wins at
least nine in ten and its median is better than the parent's by more
than the parent's quartile spread.

Every end-to-end metric on the modeled clock (the report's `clock`) is
deterministic per seed, so it is also compared pair by pair: the last
lines say "identical on all N seeds" or name the seeds that differ.

With --trace the pairs are traced runs (`run.py --trace 1`), and the
figures are the per-layer metrics of the workload (those whose
perfbench/catalog.json entry names it; a traced report also carries the
layers it bypasses, at 0): medians, quartiles and win counts only, since
per-layer metrics have no bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Info fields reported next to the gated metrics: (name, better).
INFO_FIELDS = (("qps_unscaled", "higher"), ("host_probe_rate", None))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            first, last = part.split("-")
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(part))
    return seeds


def target_dir(checkout):
    return os.path.join(checkout, ".bench_build")


def run_side(checkout, workload, seed, seconds, trace):
    """One benchmark run; returns {metric: value}, info and failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(checkout))
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(command, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perf_pairs: {checkout}: run.py exited {proc.returncode}")
    report_path = os.path.join(checkout, "perfbench", "out",
                               workload + (".trace" if trace else "") + ".json")
    with open(report_path) as f:
        report = json.load(f)
    return {
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
        "better": {name: m["better"] for name, m in report["metrics"].items()},
        "clock": {name: m["clock"] for name, m in report["metrics"].items()},
        "info": report["info"],
        "failed": report["failed"],
        "attempted": report["attempted"],
    }


def probe_address(checkout):
    binary = os.path.join(target_dir(checkout), "perfbench", "perfbench")
    try:
        symbols = subprocess.run(["nm", "-C", binary], stdout=subprocess.PIPE,
                                 text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"
    for line in symbols.splitlines():
        if "HostSpeedProbe::Run" in line:
            return "0x" + line.split()[0].lstrip("0")
    return "not found"


def compared_metrics(checkout, workload, trace, reported):
    """The reported metrics to compare: all of an untraced report, the
    per-layer metrics the workload drives of a traced one."""
    if not trace:
        return list(reported)
    with open(os.path.join(checkout, "perfbench", "catalog.json")) as f:
        per_layer = json.load(f)["per_layer"]
    return [m["name"] for m in per_layer
            if workload in m["workloads"] and m["name"] in reported]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent, change, better):
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return None


def relative(value, base):
    """(value - base) / |base|; 0 when both are 0, infinite otherwise."""
    if base == 0:
        return 0.0 if value == 0 else float("inf")
    return (value - base) / abs(base)


def verdict(parent, change, better, bound):
    """The change median's relative move, the parent's relative quartile
    spread and the verdict on one metric."""
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    move = relative(c_median, p_median)
    sign = 1 if better == "higher" else -1
    spread = relative(p_median + (p_q3 - p_q1), p_median)
    if better == "higher":
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if -sign * move > bound:
        text = "worse beyond bound"
    elif spread > bound and not every_run_better:
        text = "unresolved"
    else:
        text = "within bound"
    pairs = len(parent)
    if (pairs >= 10 and 10 * wins(parent, change, better) >= 9 * pairs and
            sign * (c_median - p_median) > p_q3 - p_q1):
        text += ", gain"
    return move, spread, text


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds or ranges, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs: compare the per-layer metrics")
    parser.add_argument("--json", help="write every run's figures here")
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = {"parent": [], "change": []}
    names = None
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_side(sides[side], args.workload, seed, args.seconds,
                           args.trace)
            run["seed"] = seed
            runs[side].append(run)
        p, c = runs["parent"][-1]["metrics"], runs["change"][-1]["metrics"]
        if names is None:
            names = compared_metrics(sides["change"], args.workload,
                                     args.trace, p)
        print(f"pair {index + 1} seed {seed} ({order[0]} first): " +
              ", ".join(f"{name} {p[name]:.6g} -> {c[name]:.6g}"
                        for name in names), flush=True)

    pairs = len(runs["parent"])
    print(f"\n== {args.workload}: {pairs} pairs, {args.seconds:g} s "
          f"{'traced ' if args.trace else ''}runs ==")
    print(f"{'metric':34s} {'side':7s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s}  change wins")
    first = runs["parent"][0]
    rows = [(name, first["better"][name], "metrics") for name in names]
    rows += [(name, better, "info") for name, better in INFO_FIELDS
             if name in first["info"]]
    for name, better, kind in rows:
        values = {side: [float(run[kind][name]) for run in runs[side]]
                  for side in runs}
        won = wins(values["parent"], values["change"], better)
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(values[side])
            tail = ""
            if side == "change":
                tail = (f"  {won}/{pairs} ({better} is better)"
                        if won is not None else "  (no direction)")
            print(f"{name:34s} {side:7s} {median:14.6f} {q1:14.6f} "
                  f"{q3:14.6f}{tail}")
    for side in ("parent", "change"):
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        print(f"{side}: failed {failed} of {attempted} attempted; "
              f"HostSpeedProbe::Run at {probe_address(sides[side])}")
    if args.trace:
        write_json(args, sides, runs)
        return

    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    print(f"\n{'end-to-end metric':24s} {'better':7s} {'bound':>7s} "
          f"{'move':>9s} {'spread':>9s}  verdict")
    for metric in end_to_end:
        name = metric["name"]
        if name not in first["metrics"]:
            continue
        values = {side: [float(run["metrics"][name]) for run in runs[side]]
                  for side in runs}
        move, spread, text = verdict(values["parent"], values["change"],
                                     metric["better"], metric["bound"])
        print(f"{name:24s} {metric['better']:7s} {metric['bound']:7.1%} "
              f"{move:+9.2%} {spread:9.2%}  {text}")
    for metric in end_to_end:
        name = metric["name"]
        if first["clock"].get(name) != "modeled":
            continue
        differ = [str(p["seed"])
                  for p, c in zip(runs["parent"], runs["change"])
                  if p["metrics"][name] != c["metrics"][name]]
        print(f"{name}: " + (f"differs on seeds {', '.join(differ)}"
                             if differ else
                             f"identical on all {pairs} seeds"))
    write_json(args, sides, runs)


def write_json(args, sides, runs):
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "checkouts": sides, "runs": runs},
                      f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()

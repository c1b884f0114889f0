#!/usr/bin/env python3
"""End-to-end benchmark of the autoresched simulator.

Builds the harness (perfbench/CMakeLists.txt, which compiles ../src), makes
the workload inputs from --seed, runs the harness for --seconds, checks its
outputs and prints every metric.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer split.

  python3 perfbench/run.py --workload fleet-20k --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all            # every workload in turn
  python3 perfbench/run.py --self-test               # build, test the spy
  python3 perfbench/run.py --write-manifest          # regenerate BENCHMARK.json

Run it from the root of a checkout.  Build files go to .bench_build/ (or
$CARGO_TARGET_DIR), results and span logs to .perfbench_out/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import benchlib  # noqa: E402

HARNESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def fail(message: str, code: int = 2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir() -> str:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build() -> str:
    """Configure (once) and build the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no autoresched sources next to perfbench/ (expected "
             "src/CMakeLists.txt at %s)" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error), 1)
            if code != 0:
                fail("build failed (%s); see %s" % (" ".join(step), log_path),
                     1)
    return os.path.join(out, "perfbench_harness")


def run_harness(harness: str, argv: list) -> dict:
    try:
        proc = subprocess.run([harness] + argv, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("harness timed out: %s" % " ".join(argv), 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("harness failed (exit %d): %s" % (proc.returncode,
                                               " ".join(argv)), 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(harness: str, name: str, seed: int, seconds: int,
                 trace: bool, out_dir: str, fp: dict) -> dict:
    work = benchlib.workload(name)
    tag = "%s-seed%d-trace%d" % (name, seed, int(trace))
    spans_path = os.path.join(out_dir, "spans-%s.json" % tag)
    argv = ["--seconds", str(seconds)]
    if trace:
        argv += ["--trace", "--spans", spans_path]
    if work.kind == "fleet":
        plan_path = os.path.join(out_dir, "plan-%s.json" % tag)
        with open(plan_path, "w", encoding="utf-8") as plan:
            json.dump(benchlib.fleet_plan(work.shards, seed), plan, indent=1)
        doc = run_harness(harness, ["fleet", "--plan", plan_path] + argv)
        outcome = benchlib.fleet_outcome(doc, trace)
    else:
        doc = run_harness(harness, [
            "storm", "--seed-base", str(benchlib.storm_seed_base(seed)),
            "--plans-dir", os.path.join(ROOT, "plans")] + argv)
        outcome = benchlib.storm_outcome(doc, trace)

    print("== %s  seed=%d  trace=%d  seconds=%d" % (name, seed, int(trace),
                                                    seconds))
    print("   fingerprint: %s" % json.dumps(fp, sort_keys=True))
    for metric in benchlib.END_TO_END:
        print("   %-18s %12.6g %s" % (metric.name,
                                      outcome.end_to_end[metric.name],
                                      metric.unit))
    for key, value in outcome.extra.items():
        unit = "sim_s" if key.startswith("sim_") else ""
        print("   %-18s %12.6g %s" % (key, value, unit))
    for key, values in outcome.samples.items():
        summary = benchlib.summarize(values)
        tail = ("p%d=%.6g" % (summary["tail_pct"], summary["tail"])
                if summary["tail_pct"] else "no percentile has 10 beyond it")
        print("   samples %-22s p50=%.6g  %s  n=%d" % (
            key, summary["p50"], tail, summary["n"]))
    if trace:
        print("   -- per-layer split")
        for metric in benchlib.PER_LAYER:
            print("   %-30s %14.6g %s" % (metric.name,
                                          outcome.per_layer[metric.name],
                                          metric.unit))
        with open(spans_path, encoding="utf-8") as spans_file:
            self_times = benchlib.span_self_times(json.load(spans_file))
        print("   -- span self time (ms, traced invocation)")
        for span, row in sorted(self_times.items(),
                                key=lambda item: -item[1]["self_ms"])[:12]:
            print("   %-24s n=%-5d total=%10.2f self=%10.2f" % (
                span, row["count"], row["total_ms"], row["self_ms"]))
    for description, passed in outcome.checks:
        print("   check %-4s %s" % ("ok" if passed else "FAIL", description))
    for failure in outcome.failures:
        print("   failed: %s" % failure)

    chosen = benchlib.PER_LAYER if trace else benchlib.END_TO_END
    values = outcome.per_layer if trace else outcome.end_to_end
    result = {
        "correct": outcome.failed == 0 and all(p for _, p in outcome.checks),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in chosen},
    }
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "fingerprint": fp, "result": result,
              "extra": outcome.extra, "checks": outcome.checks,
              "failures": outcome.failures,
              "samples": {k: benchlib.summarize(v)
                          for k, v in outcome.samples.items()}}
    result_path = os.path.join(out_dir, "result-%s.json" % tag)
    with open(result_path, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    print("   result file: %s" % os.path.relpath(result_path, ROOT))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [w.name for w in benchlib.WORKLOADS]
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchlib.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build the harness and run its spy self-test")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from benchlib")
    args = parser.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as out:
            json.dump(benchlib.manifest(), out, indent=2)
            out.write("\n")
        return 0
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    harness = build()
    if args.self_test:
        return subprocess.run([harness, "self-test"], check=False).returncode
    info = run_harness(harness, ["info"])
    fp = benchlib.fingerprint(info["compiler"], info["build_type"])
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    print("perfbench: harness ready in %.1f s" % (time.monotonic() - started))

    selected = names if args.workload == "all" else [args.workload]
    results = {name: run_workload(harness, name, args.seed, args.seconds,
                                  bool(args.trace), out_dir, fp)
               for name in selected}
    if len(results) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (name, metric): value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

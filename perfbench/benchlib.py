"""Helpers of the perfbench end-to-end benchmark.

Holds the metric table (the source of BENCHMARK.json), the workload inputs
derived from a seed, the statistics rules, the derivation of every metric
from the harness's JSON output, the correctness checks, and the host
fingerprint that guards wall-clock comparisons.  run.py and compare.py are
thin command-line wrappers around this module; test_benchlib.py tests it.
"""

import os
import platform
import statistics
from typing import NamedTuple, Optional

RUN_SECONDS = 50
FLEET_HOSTS = 20000
FLEET_DURATION_S = 35.0
# Seeds of one storm batch: seed_base .. seed_base + STORM_ROUNDS - 1.
STORM_ROUNDS = 17
STORM_CELLS = ("migration", "precopy", "resize", "ckpt_periodic", "ckpt_coop",
               "fig7")
CKPT_CELLS = ("ckpt_periodic", "ckpt_coop")


class Workload(NamedTuple):
    name: str
    kind: str  # "fleet" | "storm"
    shards: int
    why: str
    # Listed in BENCHMARK.json.  fleet-20k is not: on a shared 4-core host
    # its run-to-run spread reached 0.27, past the largest bound the
    # manifest allows, and fleet-20k-2shard measures the same layers.
    in_manifest: bool = True


WORKLOADS = (
    Workload("fleet-20k", "fleet", 1,
             "20k-host heartbeat ingest on the inline 1-shard engine: codec, "
             "net, registry ingest and dispatch do the work",
             in_manifest=False),
    Workload("fleet-20k-2shard", "fleet", 2,
             "20k-host heartbeat ingest on 2 shards: codec, net, registry "
             "ingest, dispatch, ShardGroup epochs and the ShardRouter"),
    Workload("storm-mix", "storm", 1,
             "102-scenario chaos batch plus the Fig-7 script: migration, "
             "pre-copy, resize and checkpoint transactions under faults"),
)


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(name)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: Optional[float]  # end-to-end only: allowed worsening share
    wall: bool  # True: wall-clock dependent, compared on one machine only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, True),
    Metric("host_s_per_s", "host-s/s", "higher", 0.25, True),
    Metric("peak_rss_mb", "MB", "lower", 0.1, True),
    Metric("scenarios_per_s", "1/s", "higher", 0.25, True),
    Metric("scenario_p50_ms", "ms", "lower", 0.25, True),
)

VERBS = ("register", "update", "update_batch", "health", "consult", "migrate",
         "ack", "process_register", "process_deregister", "migration_outcome")


def _layer(name, unit, better, wall=False):
    return Metric(name, unit, better, None, wall)


PER_LAYER = (
    _layer("sim.events", "count", "lower"),
    _layer("sim.events_per_s", "1/s", "higher", wall=True),
    _layer("sim.epochs", "count", "lower"),
    _layer("sim.cpu_per_wall", "ratio", "higher", wall=True),
    _layer("sim.shard_imbalance", "ratio", "lower"),
    _layer("net.msgs", "count", "lower"),
    _layer("net.bytes", "bytes", "lower"),
    _layer("net.rerate_visits", "count", "lower"),
    _layer("net.cross_msgs", "count", "lower"),
    _layer("net.dropped", "count", "lower"),
    *(_layer("xmlproto.msgs." + verb, "count", "lower") for verb in VERBS),
    _layer("xmlproto.decode_ns_per_msg", "ns", "lower", wall=True),
    _layer("xmlproto.encode_ns_per_msg", "ns", "lower", wall=True),
    _layer("xmlproto.share", "ratio", "lower", wall=True),
    _layer("registry.deliver_ns_per_msg", "ns", "lower", wall=True),
    _layer("registry.share", "ratio", "lower", wall=True),
    _layer("registry.renewals_applied", "count", "lower"),
    _layer("registry.lease_expirations", "count", "lower"),
    _layer("registry.decisions", "count", "lower"),
    _layer("registry.consults", "count", "lower"),
    _layer("monitor.consults_sent", "count", "lower"),
    _layer("rules.state_transitions", "count", "lower"),
    _layer("hpcm.migrations", "count", "lower"),
    _layer("hpcm.precopy_rounds", "count", "lower"),
    _layer("hpcm.commit_ratio", "ratio", "higher"),
    _layer("malleable.resizes", "count", "lower"),
    _layer("malleable.commit_ratio", "ratio", "higher"),
    _layer("ckpt.commits", "count", "lower"),
    _layer("ckpt.deferred", "count", "lower"),
    _layer("ckpt.preempted", "count", "lower"),
    _layer("ckpt.commit_ratio", "ratio", "higher"),
    _layer("chaos.faults", "count", "lower"),
    # Per-layer, not end-to-end: a fleet run holds about 40 operations, too
    # few for a p90 with ten samples beyond it, and its run-to-run spread
    # (0.34) passed every bound the manifest allows.
    _layer("scenario_p90_ms", "ms", "lower", wall=True),
    *(_layer("storm.%s.p50_ms" % cell, "ms", "lower", wall=True)
      for cell in STORM_CELLS),
    _layer("obs.trace_overhead", "ratio", "lower", wall=True),
    _layer("sim_migration_s", "sim_s", "lower"),
    _layer("sim_freeze_s", "sim_s", "lower"),
    _layer("sim_waste_s", "sim_s", "lower"),
)

METRICS = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The BENCHMARK.json document, generated from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS
                      if w.in_manifest],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


# -- workload inputs ---------------------------------------------------------

def fleet_plan(shards: int, seed: int) -> dict:
    """The 20k-host hierarchical cluster plan (core::load_cluster_plan
    format) with delta heartbeats and the default busy/overloaded split.
    The plan is lossless, so its seed does not change the run."""
    return {
        "name": "fleet-20k" if shards == 1 else "fleet-20k-%dshard" % shards,
        "hosts": FLEET_HOSTS,
        "shards": shards,
        "duration": FLEET_DURATION_S,
        "cross_latency": 0.005,
        "hierarchical": True,
        "delta_heartbeats": True,
        "seed": seed,
        "busy_fraction": 0.30,
        "overloaded_fraction": 0.05,
        "tracing": True,
        "trace_capacity": 4096,
    }


def storm_seed_base(seed: int) -> int:
    """First scenario seed of the storm batch; batches of different
    benchmark seeds never overlap."""
    return seed * 1000 + 1


# -- statistics ----------------------------------------------------------------

def median(values):
    return statistics.median(values)


def _rank(pct: int, n: int) -> int:
    """1-based nearest rank of the pct-th percentile of n samples (integer
    arithmetic, so 90 % of 100 samples is rank 90, not 91)."""
    return max(1, -(-pct * n // 100))


def nearest_rank(values, pct: int) -> float:
    """The pct-th percentile (whole percent) by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile whose nearest-rank value still has at
    least ten samples beyond it; None when even the median has fewer."""
    for pct in range(99, 49, -1):
        if n - _rank(pct, n) >= 10:
            return pct
    return None


def summarize(values) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    pct = tail_percentile(len(values))
    return {"p50": median(values), "n": len(values), "tail_pct": pct,
            "tail": nearest_rank(values, pct) if pct else None}


def ratio(numerator: float, base: float) -> float:
    """numerator / base, defined as 0 when the base is 0 (no attempts)."""
    return numerator / base if base else 0.0


# -- metric derivation ---------------------------------------------------------

class Outcome(NamedTuple):
    end_to_end: dict  # name -> value
    per_layer: dict   # name -> value (traced runs only)
    extra: dict       # printed end-to-end results that are not gated
    samples: dict     # name -> list of samples behind a timing metric
    checks: list      # (description, passed)
    attempted: int
    failed: int
    failures: tuple = ()  # one line per distinct failed operation


def _zero_layers() -> dict:
    return {metric.name: 0.0 for metric in PER_LAYER}


def _replay_layers(layers: dict, replay: dict, run_s: float) -> None:
    msgs = replay["msgs"]
    for verb in VERBS:
        layers["xmlproto.msgs." + verb] = replay["verbs"].get(verb, 0)
    layers["xmlproto.decode_ns_per_msg"] = ratio(replay["decode_s"] * 1e9, msgs)
    layers["xmlproto.encode_ns_per_msg"] = ratio(replay["encode_s"] * 1e9, msgs)
    layers["xmlproto.share"] = ratio(replay["decode_s"] + replay["encode_s"],
                                     run_s)
    layers["registry.deliver_ns_per_msg"] = ratio(replay["registry_s"] * 1e9,
                                                  replay["registry_msgs"])
    layers["registry.share"] = ratio(replay["registry_s"], run_s)


def _codec_check(replay: dict) -> tuple:
    """The replay measures the program's own codec work only if every
    captured payload decodes and re-encodes to the same bytes."""
    return ("replay decodes and re-encodes every captured message "
            "byte-identically",
            replay["decode_errors"] == 0
            and replay["roundtrip_mismatches"] == 0)


def _obs_layers(layers: dict, counters: dict, per: float = 1.0) -> None:
    def total(name):
        return ratio(counters.get(name, 0.0), per)

    layers["registry.renewals_applied"] = total("registry.renewals_applied")
    layers["registry.lease_expirations"] = total("registry.lease_expirations")
    layers["registry.decisions"] = total("scheduler.decisions")
    layers["registry.consults"] = total("scheduler.consults")
    layers["monitor.consults_sent"] = total("monitor.consults_sent")
    layers["rules.state_transitions"] = total("rules.state_transitions")


def fleet_outcome(doc: dict, trace: bool) -> Outcome:
    hosts = doc["hosts"]
    host_seconds = hosts * doc["duration"]
    ops = doc["ops"]
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    op_s = [op["op_s"] for op in untraced]
    run_s = [op["run_s"] for op in untraced]

    reference = doc["warmup"]["digest"]
    attempted = failed = 0
    deterministic = identical_traced = all_registered = True
    for op in [doc["warmup"]] + ops:
        attempted += hosts
        digest = op["digest"]
        missing = max(hosts - digest["registered_hosts"], 0)
        all_registered &= missing == 0
        if digest != reference:
            if op["traced"]:
                identical_traced = False
            else:
                deterministic = False
            failed += hosts
        else:
            failed += missing
    checks = [("every host registered at the horizon", all_registered),
              ("untraced runs are identical (events, trace and metrics "
               "digests)", deterministic)]
    if trace:
        checks.append(("traced runs are identical to untraced runs",
                       identical_traced))

    end_to_end = {
        "setup_s": median([op["setup_s"] for op in untraced]),
        "host_s_per_s": median([host_seconds / s for s in run_s]),
        "peak_rss_mb": doc["peak_rss_kib"] / 1024.0,
        "scenarios_per_s": len(op_s) / sum(op_s),
        "scenario_p50_ms": median(op_s) * 1e3,
    }
    samples = {"setup_s": [op["setup_s"] for op in untraced],
               "run_s": run_s, "scenario_ms": [s * 1e3 for s in op_s]}

    layers = {}
    if trace:
        layers = _zero_layers()
        run_med = median(run_s)
        events = reference["events"]
        shard_events = reference["shard_events"]
        first = traced[0]
        layers["sim.events"] = events
        layers["sim.events_per_s"] = events / run_med
        layers["sim.epochs"] = reference["epochs"]
        layers["sim.cpu_per_wall"] = median(
            [op["cpu_s"] / op["run_s"] for op in untraced])
        layers["sim.shard_imbalance"] = ratio(
            max(shard_events), sum(shard_events) / len(shard_events))
        layers["net.msgs"] = first["spy_msgs"]
        layers["net.bytes"] = first["spy_bytes"]
        layers["net.rerate_visits"] = first["spy_rerates"]
        layers["net.cross_msgs"] = reference["cross_messages"]
        layers["net.dropped"] = reference["dropped"]
        _replay_layers(layers, doc["replay"], run_med)
        _obs_layers(layers, doc["obs"])
        layers["scenario_p90_ms"] = nearest_rank(op_s, 90) * 1e3
        layers["obs.trace_overhead"] = ratio(
            sum(op["op_s"] for op in traced), sum(op_s))
        checks.append(_codec_check(doc["replay"]))
    return Outcome(end_to_end, layers,
                   {"fail_ratio": ratio(failed, attempted)}, samples, checks,
                   attempted, failed)


def storm_outcome(doc: dict, trace: bool) -> Outcome:
    untraced = [r for r in doc["scenarios"] if not r["traced"]]
    traced = [r for r in doc["scenarios"] if r["traced"]]
    batch = untraced[:len(STORM_CELLS) * STORM_ROUNDS]  # the first pass

    # Every repeat of a (cell, seed) is a replay: it must reproduce the
    # first run's trace hash, report digest and event count exactly.
    first_run = {}
    attempted = failed = 0
    failures = set()
    invariants_ok = replays_ok = traced_ok = True
    for record in doc["scenarios"]:
        key = (record["cell"], record["seed"])
        signature = (record["trace_hash"], record["report_digest"],
                     record["events"])
        reference = first_run.setdefault(key, signature)
        attempted += 1
        replay_ok = signature == reference
        if record["traced"]:
            traced_ok &= replay_ok
        else:
            replays_ok &= replay_ok
        invariants_ok &= record["ok"]
        if not (record["ok"] and replay_ok):
            failed += 1
            failures.add("%s seed %d: %s" % (
                record["cell"], record["seed"],
                record["violations"] or "replay differs from the first run"))
    fig7 = [r for r in untraced if r["cell"] == "fig7"]
    checks = [
        ("batch holds >= 100 scenarios", len(batch) >= 100),
        ("every scenario holds its invariants (Fig-7: shape check)",
         invariants_ok),
        ("repeated seeds replay identically", replays_ok),
    ]
    if trace:
        checks.append(("traced runs are identical to untraced runs",
                       traced_ok))

    wall = [r["wall_s"] for r in untraced]
    end_to_end = {
        "setup_s": median(doc["setup_s"]),
        "host_s_per_s": sum(r["hosts"] * r["sim_s"] for r in untraced)
        / sum(wall),
        # The heaviest cell's typical scenario: per-cell medians of the
        # memory probe's per-scenario peaks, so one seed's outlier does not
        # set the figure.
        "peak_rss_mb": max(
            median([m["peak_rss_kib"] for m in doc["memory"]
                    if m["cell"] == cell])
            for cell in STORM_CELLS) / 1024.0,
        "scenarios_per_s": len(wall) / sum(wall),
        "scenario_p50_ms": median(wall) * 1e3,
    }
    extra = {
        "fail_ratio": ratio(failed, attempted),
        "sim_migration_s": fig7[0]["sim_migration_s"],
        "sim_freeze_s": fig7[0]["sim_freeze_s"],
        "sim_waste_s": sum(r["waste_s"] for r in batch
                           if r["cell"] in CKPT_CELLS),
    }
    samples = {"setup_s": doc["setup_s"],
               "scenario_ms": [w * 1e3 for w in wall]}
    for cell in STORM_CELLS:
        samples["storm.%s_ms" % cell] = [
            r["wall_s"] * 1e3 for r in untraced if r["cell"] == cell]

    layers = {}
    if trace:
        layers = _zero_layers()

        def batch_sum(key):
            return sum(r.get(key, 0) for r in batch)

        layers["sim.events"] = batch_sum("events")
        layers["sim.events_per_s"] = sum(r["events"] for r in untraced) / sum(
            wall)
        layers["sim.cpu_per_wall"] = sum(r["cpu_s"] for r in untraced) / sum(
            wall)
        layers["sim.shard_imbalance"] = 1.0  # one engine per scenario
        fig7_traced = sum(1 for r in traced if r["cell"] == "fig7")
        layers["net.msgs"] = ratio(doc["spy"]["msgs"], fig7_traced)
        layers["net.bytes"] = ratio(doc["spy"]["bytes"], fig7_traced)
        layers["net.rerate_visits"] = ratio(doc["spy"]["rerates"], fig7_traced)
        layers["net.dropped"] = batch_sum("dropped")
        fig7_wall = median([r["wall_s"] for r in untraced
                            if r["cell"] == "fig7"])
        _replay_layers(layers, doc["replay"], fig7_wall)
        _obs_layers(layers, doc["obs"], per=doc["passes"])
        layers["hpcm.migrations"] = batch_sum("migrations")
        layers["hpcm.precopy_rounds"] = batch_sum("precopy_rounds")
        layers["hpcm.commit_ratio"] = ratio(batch_sum("migrations_committed"),
                                            batch_sum("migrations"))
        layers["malleable.resizes"] = batch_sum("resizes")
        layers["malleable.commit_ratio"] = ratio(
            batch_sum("resizes_committed"), batch_sum("resizes"))
        commits = batch_sum("ckpt_commits")
        layers["ckpt.commits"] = commits
        layers["ckpt.deferred"] = batch_sum("ckpt_deferred")
        layers["ckpt.preempted"] = batch_sum("ckpt_preempted")
        layers["ckpt.commit_ratio"] = ratio(
            commits, commits + batch_sum("ckpt_aborts"))
        layers["chaos.faults"] = batch_sum("faults")
        layers["scenario_p90_ms"] = nearest_rank(wall, 90) * 1e3
        for cell in STORM_CELLS:
            layers["storm.%s.p50_ms" % cell] = median(
                samples["storm.%s_ms" % cell])
        layers["obs.trace_overhead"] = ratio(
            sum(r["wall_s"] for r in traced), sum(wall))
        for name in ("sim_migration_s", "sim_freeze_s", "sim_waste_s"):
            layers[name] = extra[name]
        checks.append(_codec_check(doc["replay"]))
    return Outcome(end_to_end, layers, extra, samples, checks, attempted,
                   failed, tuple(sorted(failures)))


def span_self_times(spans: list) -> dict:
    """Per span name: count, total and self time in ms, where self time is
    the span's duration minus the part covered by its child spans."""
    child_ms = {}
    for span in spans:
        if span["parent"]:
            child_ms[span["parent"]] = child_ms.get(span["parent"], 0.0) + (
                span["end_us"] - span["start_us"]) / 1e3
    table = {}
    for span in spans:
        total = (span["end_us"] - span["start_us"]) / 1e3
        row = table.setdefault(span["name"],
                               {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += total
        row["self_ms"] += total - child_ms.get(span["id"], 0.0)
    return table


# -- host fingerprint ------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(compiler: str, build_type: str) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {"cpu_model": cpu_model(), "nproc": nproc, "compiler": compiler,
            "build_type": build_type}


def fingerprint_mismatch(a: dict, b: dict) -> list:
    """Fingerprint fields on which two results differ."""
    return sorted(key for key in set(a) | set(b) if a.get(key) != b.get(key))


def compare(old: dict, new: dict) -> tuple:
    """Compare two result files of one workload.  Wall-clock metrics are
    compared only when both ran on the same machine fingerprint; exact
    metrics (counts, simulated seconds) always.  Returns (lines, regressed,
    refused)."""
    lines = []
    regressed = refused = False
    if old["workload"] != new["workload"]:
        return (["different workloads: %s vs %s" % (old["workload"],
                                                     new["workload"])],
                False, True)
    differ = fingerprint_mismatch(old["fingerprint"], new["fingerprint"])
    if differ:
        lines.append("fingerprints differ on %s" % ", ".join(differ))
    old_metrics = old["result"]["metrics"]
    new_metrics = new["result"]["metrics"]
    for name in sorted(set(old_metrics) & set(new_metrics)):
        metric = METRICS.get(name)
        if metric is None:
            continue
        a = old_metrics[name]["value"]
        b = new_metrics[name]["value"]
        if metric.wall and differ:
            lines.append("%s: different machine, re-measure" % name)
            refused = True
            continue
        if not metric.wall:
            verdict = "same" if a == b else "CHANGED %s -> %s" % (a, b)
            lines.append("%s: %s" % (name, verdict))
            continue
        change = ratio(b, a)
        worse = change - 1 if metric.better == "lower" else 1 - change
        verdict = "ok"
        if metric.bound is not None and worse > metric.bound:
            verdict = "REGRESSION (bound %.0f%%)" % (metric.bound * 100)
            regressed = True
        lines.append("%s: %.6g -> %.6g %s (x%.3f) %s" % (
            name, a, b, metric.unit, change, verdict))
    return lines, regressed, refused

"""Tests of the perfbench helpers.

  python3 -m unittest discover -s perfbench -p 'test_*.py'

The spy test runs the harness's self-test and is skipped until the harness
has been built (python3 perfbench/run.py --self-test builds it).
"""

import copy
import json
import os
import subprocess
import unittest

import benchlib
import run

HERE = os.path.dirname(os.path.abspath(__file__))


def fleet_doc():
    digest = {"events": 100, "shard_events": [60, 40], "epochs": 7,
              "cross_messages": 1, "dropped": 0, "consults": 0,
              "registered_hosts": 10, "trace_events": 5,
              "trace_hash": "aa", "metrics_hash": "bb"}

    def op(traced, run_s, op_s):
        return {"traced": traced, "setup_s": 0.01, "run_s": run_s,
                "cpu_s": run_s * 1.5, "op_s": op_s, "spy_msgs": 8 if traced
                else 0, "spy_bytes": 800 if traced else 0,
                "spy_rerates": 9 if traced else 0,
                "digest": copy.deepcopy(digest)}

    return {"hosts": 10, "duration": 35.0, "peak_rss_kib": 2048,
            "warmup": op(False, 1.0, 1.1),
            "ops": [op(False, 1.0, 1.2), op(True, 1.0, 1.5),
                    op(False, 2.0, 2.4), op(True, 1.0, 3.0)],
            "obs": {"registry.renewals_applied": 4.0,
                    "rules.state_transitions": 2.0},
            "replay": {"msgs": 8, "decode_errors": 0,
                       "roundtrip_mismatches": 0, "decode_s": 0.4,
                       "encode_s": 0.1, "registry_msgs": 4,
                       "registry_s": 0.2, "verbs": {"register": 8}}}


class PercentileRule(unittest.TestCase):
    def test_p90_has_ten_beyond_at_100_samples(self):
        self.assertEqual(benchlib.tail_percentile(100), 90)
        values = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(values, 90), 90)
        self.assertEqual(sum(1 for v in values if v > 90), 10)

    def test_highest_percentile_grows_with_samples(self):
        self.assertEqual(benchlib.tail_percentile(1000), 99)
        self.assertEqual(benchlib.tail_percentile(612), 98)
        self.assertEqual(benchlib.tail_percentile(20), 50)

    def test_no_percentile_below_twenty_samples(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        summary = benchlib.summarize([3.0, 1.0, 2.0])
        self.assertEqual(summary["p50"], 2.0)
        self.assertIsNone(summary["tail"])
        self.assertEqual(summary["n"], 3)

    def test_every_reported_tail_keeps_ten_beyond(self):
        for n in range(20, 400):
            pct = benchlib.tail_percentile(n)
            cut = benchlib.nearest_rank(list(range(n)), pct)
            self.assertGreaterEqual(sum(1 for v in range(n) if v > cut), 10)
            if pct < 99:  # one percent higher would leave fewer than ten
                cut = benchlib.nearest_rank(list(range(n)), pct + 1)
                self.assertLess(sum(1 for v in range(n) if v > cut), 10)


class RatioMetrics(unittest.TestCase):
    def test_zero_base_is_zero(self):
        self.assertEqual(benchlib.ratio(5, 0), 0.0)
        self.assertEqual(benchlib.ratio(3, 4), 0.75)

    def test_fleet_ratios_and_their_bases(self):
        outcome = benchlib.fleet_outcome(fleet_doc(), trace=True)
        e2e, layers = outcome.end_to_end, outcome.per_layer
        # median over untraced ops of host-seconds per run() wall (1 s, 2 s)
        self.assertAlmostEqual(e2e["host_s_per_s"], (350.0 + 175.0) / 2)
        self.assertAlmostEqual(e2e["scenarios_per_s"], 2 / 3.6)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 2.0)
        # codec/registry replay time over the median untraced run() time
        self.assertAlmostEqual(layers["xmlproto.share"], 0.5 / 1.5)
        self.assertAlmostEqual(layers["registry.share"], 0.2 / 1.5)
        self.assertAlmostEqual(layers["xmlproto.decode_ns_per_msg"], 5e7)
        self.assertAlmostEqual(layers["registry.deliver_ns_per_msg"], 5e7)
        self.assertAlmostEqual(layers["sim.shard_imbalance"], 60 / 50)
        self.assertAlmostEqual(layers["sim.cpu_per_wall"], 1.5)
        self.assertAlmostEqual(layers["obs.trace_overhead"], 4.5 / 3.6)
        self.assertEqual(layers["hpcm.commit_ratio"], 0.0)  # no attempts
        self.assertEqual(set(layers), {m.name for m in benchlib.PER_LAYER})
        self.assertEqual(outcome.failed, 0)
        self.assertTrue(all(passed for _, passed in outcome.checks))

    def test_traced_mismatch_fails_the_op(self):
        doc = fleet_doc()
        doc["ops"][1]["digest"]["trace_hash"] = "cc"
        outcome = benchlib.fleet_outcome(doc, trace=True)
        self.assertEqual(outcome.failed, 10)
        self.assertEqual(outcome.attempted, 50)
        checks = dict(outcome.checks)
        self.assertFalse(checks["traced runs are identical to untraced runs"])

    def test_missing_registrations_count_as_failures(self):
        doc = fleet_doc()
        doc["ops"][0]["digest"]["registered_hosts"] = 7
        outcome = benchlib.fleet_outcome(doc, trace=False)
        # the digest differs too, so the whole op counts as failed
        self.assertEqual(outcome.failed, 10)
        self.assertAlmostEqual(outcome.extra["fail_ratio"], 10 / 50)


def storm_doc():
    scenarios = []
    for traced in (False, True):
        for round_ in range(benchlib.STORM_ROUNDS):
            for cell in benchlib.STORM_CELLS:
                record = {"cell": cell, "seed": 1001 + round_,
                          "traced": traced, "violations": "",
                          "wall_s": 0.01 if cell != "fig7"
                          else 0.05, "cpu_s": 0.01, "ok": True, "hosts": 4,
                          "sim_s": 700.0, "events": 10, "trace_hash": "t",
                          "report_digest": "r", "dropped": 1,
                          "migrations": 2, "migrations_committed": 1,
                          "precopy_rounds": 0, "resizes": 0,
                          "resizes_committed": 0, "ckpt_commits": 3,
                          "ckpt_aborts": 1, "ckpt_deferred": 0,
                          "ckpt_preempted": 0, "faults": 1,
                          "waste_s": 2.0 if cell in benchlib.CKPT_CELLS
                          else 5.0}
                if cell == "fig7":
                    record.update(sim_migration_s=6.5, sim_freeze_s=1.5)
                scenarios.append(record)
    memory = [{"cell": cell, "peak_rss_kib": 1024 * (
        (5 if cell == "fig7" else 2) + round_ % 3)}
        for round_ in range(benchlib.STORM_ROUNDS)
        for cell in benchlib.STORM_CELLS]
    return {"setup_s": [1e-4, 2e-4, 3e-4], "passes": 1, "memory": memory,
            "scenarios": scenarios, "obs": {"scheduler.decisions": 4.0},
            "spy": {"msgs": 170, "bytes": 1700, "rerates": 34},
            "replay": {"msgs": 10, "decode_errors": 0,
                       "roundtrip_mismatches": 0, "decode_s": 0.001,
                       "encode_s": 0.001, "registry_msgs": 10,
                       "registry_s": 0.0001, "verbs": {"update": 10}}}


class StormMetrics(unittest.TestCase):
    def test_bases_of_the_storm_ratios(self):
        outcome = benchlib.storm_outcome(storm_doc(), trace=True)
        batch = len(benchlib.STORM_CELLS) * benchlib.STORM_ROUNDS
        self.assertEqual(outcome.attempted, 2 * batch)
        self.assertEqual(outcome.failed, 0)
        layers = outcome.per_layer
        self.assertEqual(layers["hpcm.migrations"], 2 * batch)
        self.assertAlmostEqual(layers["hpcm.commit_ratio"], 0.5)
        self.assertAlmostEqual(layers["ckpt.commit_ratio"], 0.75)
        self.assertEqual(layers["malleable.commit_ratio"], 0.0)  # no resizes
        self.assertEqual(layers["net.msgs"], 10)  # per traced Fig-7 run
        self.assertAlmostEqual(layers["xmlproto.share"], 0.002 / 0.05)
        self.assertAlmostEqual(layers["obs.trace_overhead"], 1.0)
        self.assertAlmostEqual(outcome.extra["sim_waste_s"],
                               2.0 * 2 * benchlib.STORM_ROUNDS)
        self.assertAlmostEqual(layers["storm.fig7.p50_ms"], 50.0)
        # heaviest cell (fig7) median per-scenario peak: 5, 6, 7 MB -> 6 MB
        self.assertAlmostEqual(outcome.end_to_end["peak_rss_mb"], 6.0)

    def test_replay_mismatch_and_violation_fail_scenarios(self):
        doc = storm_doc()
        doc["scenarios"][-1]["trace_hash"] = "different"  # a traced twin
        doc["scenarios"][0]["ok"] = False
        outcome = benchlib.storm_outcome(doc, trace=True)
        self.assertEqual(outcome.failed, 2)
        self.assertEqual(len(outcome.failures), 2)
        checks = dict(outcome.checks)
        self.assertFalse(checks["traced runs are identical to untraced runs"])
        self.assertFalse(
            checks["every scenario holds its invariants (Fig-7: shape check)"])


class Fingerprints(unittest.TestCase):
    def result(self, fp, value):
        return {"workload": "fleet-20k", "fingerprint": fp,
                "result": {"metrics": {
                    "host_s_per_s": {"value": value, "unit": "host-s/s"},
                    "sim.events": {"value": 5, "unit": "count"}}}}

    fp = {"cpu_model": "A", "nproc": 4, "compiler": "GNU 12.2.0",
          "build_type": "Release"}

    def test_mismatch_detection(self):
        other = dict(self.fp, nproc=8)
        self.assertEqual(benchlib.fingerprint_mismatch(self.fp, other),
                         ["nproc"])
        self.assertEqual(benchlib.fingerprint_mismatch(self.fp, self.fp), [])

    def test_refuses_wall_clock_across_machines(self):
        other = dict(self.fp, cpu_model="B")
        lines, regressed, refused = benchlib.compare(
            self.result(self.fp, 100.0), self.result(other, 10.0))
        self.assertTrue(refused)
        self.assertFalse(regressed)
        self.assertIn("host_s_per_s: different machine, re-measure", lines)
        self.assertIn("sim.events: same", lines)

    def test_same_machine_applies_the_bound(self):
        bound = benchlib.METRICS["host_s_per_s"].bound
        _, regressed, refused = benchlib.compare(
            self.result(self.fp, 100.0),
            self.result(self.fp, 100.0 * (1 - bound) - 1))
        self.assertTrue(regressed)
        self.assertFalse(refused)
        _, regressed, _ = benchlib.compare(
            self.result(self.fp, 100.0),
            self.result(self.fp, 100.0 * (1 - bound) + 1))
        self.assertFalse(regressed)

    def test_live_fingerprint_has_every_field(self):
        fp = benchlib.fingerprint("GNU 12.2.0", "Release")
        self.assertEqual(set(fp), {"cpu_model", "nproc", "compiler",
                                   "build_type"})
        self.assertGreater(fp["nproc"], 0)


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_table(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path, encoding="utf-8") as manifest:
            self.assertEqual(json.load(manifest), benchlib.manifest())

    def test_end_to_end_bounds_within_contract(self):
        for metric in benchlib.END_TO_END:
            self.assertLessEqual(metric.bound, 0.25)
        setup = benchlib.METRICS["setup_s"]
        self.assertEqual(setup.bound,
                         max(m.bound for m in benchlib.END_TO_END))


class SpySelfTest(unittest.TestCase):
    def test_spy_passes_verdicts_through(self):
        harness = os.path.join(run.build_dir(), "perfbench_harness")
        if not os.path.exists(harness):
            self.skipTest("harness not built; run perfbench/run.py "
                          "--self-test first")
        proc = subprocess.run([harness, "self-test"], capture_output=True,
                              text=True, timeout=120, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("observed fleet is identical to the unobserved fleet",
                      proc.stdout)


if __name__ == "__main__":
    unittest.main()

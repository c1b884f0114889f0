// Checkpoint I/O under a failure campaign (DESIGN.md §17): the ckpt-storm
// plan's exponential crash arrivals are deterministic, both checkpoint
// strategies hold every invariant through them, and a sabotaged store
// (torn commits) is caught by the no-torn-checkpoint invariant.

#include <gtest/gtest.h>

#include <string>

#include "ars/chaos/scenario.hpp"

namespace ars::chaos {
namespace {

ScenarioOptions storm_options(std::uint64_t seed, const std::string& strategy) {
  ScenarioOptions options;
  options.seed = seed;
  options.plan = *FaultPlan::builtin("ckpt-storm");
  options.ckpt_strategy = strategy;
  options.ckpt_mtbf = 150.0;  // matches the plan's injected crash rate
  options.ckpt_state_mb = 20.0;      // 1 s writes at the 20 MB/s host link
  options.ckpt_aggregate_mbps = 25.0;  // ~saturated with 2+ writers
  return options;
}

TEST(CkptStormTest, CrashRateArrivalsAreDeterministic) {
  const ScenarioOptions options = storm_options(5, "periodic");
  const ScenarioReport first = run_scenario(options);
  const ScenarioReport second = run_scenario(options);
  EXPECT_TRUE(first.ok()) << first.invariants.summary();
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.faults.rate_crashes, second.faults.rate_crashes);
  // A storm that crashed nobody would prove nothing.
  EXPECT_GT(first.faults.rate_crashes, 0);
}

TEST(CkptStormTest, PeriodicStrategySurvivesTheStorm) {
  // Seed 2: the storm's arrivals land while the apps still run, so the
  // waste ledger sees real lost work, not just write overhead.
  const ScenarioReport report = run_scenario(storm_options(2, "periodic"));
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  // Strategy-driven checkpoints actually flowed through the shared store,
  // and the crashes made the waste ledger earn its keep.
  EXPECT_GT(report.ckpt_commits, 0u);
  EXPECT_EQ(report.torn_restores, 0u);
  EXPECT_GT(report.waste_overhead_s, 0.0);
  EXPECT_GT(report.waste_total_s(), report.waste_overhead_s);
}

TEST(CkptStormTest, CooperativeStrategySurvivesTheStorm) {
  const ScenarioReport report = run_scenario(storm_options(2, "cooperative"));
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  EXPECT_GT(report.ckpt_commits, 0u);
  EXPECT_EQ(report.torn_restores, 0u);
}

TEST(CkptStormTest, TornCommitSabotageIsCaughtByTheChecker) {
  // A store without atomic rename: a crash racing an in-flight write
  // commits the torn partial, the relaunch restores it, and the
  // no-torn-checkpoint invariant must flag the run.  Big writes over a
  // narrow shared store keep a write in flight most of the time, so the
  // storm reliably catches one mid-write.
  ScenarioOptions options = storm_options(4, "periodic");
  options.ckpt_state_mb = 100.0;
  options.ckpt_aggregate_mbps = 10.0;
  options.sabotage = sim::Sabotage::kTornCheckpoint;
  const ScenarioReport report = run_scenario(options);
  ASSERT_FALSE(report.ok()) << "sabotaged store slipped past the checker";
  EXPECT_GT(report.torn_restores, 0u);
  bool torn_flagged = false;
  for (const Violation& violation : report.invariants.violations) {
    if (violation.invariant == "no-torn-checkpoint") {
      torn_flagged = true;
    }
  }
  EXPECT_TRUE(torn_flagged) << report.invariants.summary();
}

TEST(CkptStormTest, CleanStoreNeverTearsUnderTheSameStorm) {
  // The control for the sabotage test: identical pressure, atomic
  // shadow-commit on — zero torn restores and a green checker.
  ScenarioOptions options = storm_options(4, "periodic");
  options.ckpt_state_mb = 100.0;
  options.ckpt_aggregate_mbps = 10.0;
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  EXPECT_EQ(report.torn_restores, 0u);
  EXPECT_GT(report.ckpt_aborts, 0u);  // crashes did race writes...
  EXPECT_GT(report.ckpt_commits, 0u);
}

}  // namespace
}  // namespace ars::chaos

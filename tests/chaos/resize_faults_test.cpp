// Resize-window fault injection: malleable jobs under the resize-storm
// plan (spawn stalls into timeout, spawn-target crashes with reboot,
// redistribution stalls into rollback) must never leak a rank, aborts must
// restore the original world size, replays are byte-identical, and the
// sabotage knob proves the no-lost-rank invariant is load-bearing.

#include <string>

#include <gtest/gtest.h>

#include "ars/chaos/flight_recorder.hpp"
#include "ars/chaos/scenario.hpp"

namespace ars::chaos {
namespace {

ScenarioOptions storm_options(std::uint64_t seed) {
  ScenarioOptions options;
  options.hosts = 8;
  options.malleable_jobs = 2;
  options.horizon = 700.0;
  options.seed = seed;
  auto plan = FaultPlan::builtin("resize-storm");
  EXPECT_TRUE(plan.has_value());
  options.plan = *plan;
  return options;
}

TEST(ResizeFaultTest, StormKeepsInvariantsCleanAcrossSeeds) {
  bool saw_failure_path = false;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const ScenarioReport report = run_scenario(storm_options(seed));
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n"
                             << report.invariants.summary();
    EXPECT_EQ(report.ghost_ranks, 0) << "seed " << seed;
    // The planner really resized under fire.
    EXPECT_GT(report.resizes_attempted, 0U) << "seed " << seed;
    if (report.resizes_aborted + report.resizes_rolled_back > 0) {
      saw_failure_path = true;
    }
  }
  // At least one seed drove a transaction into abort/rollback — otherwise
  // the storm never actually tested the failure machinery.
  EXPECT_TRUE(saw_failure_path);
}

TEST(ResizeFaultTest, StormReplayIsByteIdentical) {
  const ScenarioReport first = run_scenario(storm_options(7));
  const ScenarioReport second = run_scenario(storm_options(7));
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.resizes_attempted, second.resizes_attempted);
  EXPECT_EQ(first.resizes_committed, second.resizes_committed);
}

TEST(ResizeFaultTest, TargetCrashAbortsAtOriginalSize) {
  // A dedicated plan that only crashes spawn targets: every aborted expand
  // must leave the job at its pre-resize size (checked by the invariant)
  // and the crash counter proves the fault fired.
  ScenarioOptions options;
  options.hosts = 8;
  options.malleable_jobs = 2;
  options.horizon = 700.0;
  options.seed = 11;
  FaultPlan plan{"target-crash"};
  plan.resize_target_crash(/*at=*/40.0, /*until=*/400.0, "spawn",
                           /*probability=*/1.0, /*reboot_after=*/30.0);
  options.plan = plan;
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  EXPECT_GT(report.faults.resize_target_crashes, 0);
  EXPECT_GT(report.resizes_aborted, 0U);
  EXPECT_EQ(report.ghost_ranks, 0);
}

TEST(ResizeFaultTest, SabotageSkipRollbackTripsNoLostRank) {
  // Seed 1 drives a redistribute-stall rollback; with the sabotage knob
  // the spawned ranks leak and the invariant must catch it.
  ScenarioOptions options = storm_options(1);
  options.sabotage = sim::Sabotage::kResizeRollback;
  const ScenarioReport report = run_scenario(options);
  ASSERT_FALSE(report.ok());
  EXPECT_GT(report.ghost_ranks, 0);
  bool found = false;
  for (const Violation& violation : report.invariants.violations) {
    if (violation.invariant == "no-lost-rank") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.invariants.summary();
  // Black-box rule: the failing run kept its evidence.
  EXPECT_FALSE(report.trace_jsonl.empty());
}

TEST(ResizeFaultTest, FlightRecorderBundleReproducesStormFailure) {
  ScenarioOptions options = storm_options(1);
  options.sabotage = sim::Sabotage::kResizeRollback;
  const ScenarioReport report = run_scenario(options);
  ASSERT_FALSE(report.ok());
  const obs::JsonValue bundle = make_bundle(
      options, report, FlightTrigger{"invariant-violation", "no-lost-rank"});
  const auto replay = replay_bundle(bundle.dump());
  ASSERT_TRUE(replay.has_value()) << replay.error().to_string();
  EXPECT_TRUE(replay->reproduced())
      << "trace_identical=" << replay->trace_identical
      << " violations_match=" << replay->violations_match;
  // The malleable options really round-tripped through the bundle.
  EXPECT_GT(replay->report.ghost_ranks, 0);
}

}  // namespace
}  // namespace ars::chaos

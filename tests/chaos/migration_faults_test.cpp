// Migration-window fault injection: the destination is crashed as the
// transaction enters each named phase, and every run must either abort
// (pre-commit, process rolls back to the source) or roll back to
// checkpoint-restart (post-commit) — never lose a process.  Replays are
// byte-identical, and the sabotage knob proves the no-lost-process
// invariant is load-bearing.

#include "ars/chaos/scenario.hpp"

#include <gtest/gtest.h>

namespace ars::chaos {
namespace {

/// Destination crashed (with a 30 s reboot) whenever a migration reaches
/// `phase` inside the scenario's migration window (~t=60-160, while the
/// CPU hog on ws1 drives processes off).
FaultPlan dest_crash_plan(const std::string& phase) {
  FaultPlan plan{"dest-crash-" + phase};
  plan.migration_dest_crash(/*at=*/50.0, /*until=*/400.0, phase,
                            /*probability=*/1.0, /*reboot_after=*/30.0);
  return plan;
}

class MigrationFaultTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MigrationFaultTest, DestCrashAtPhaseNeverLosesAProcess) {
  const std::string phase = GetParam();
  ScenarioOptions options;
  options.seed = 9;
  options.horizon = 900.0;  // room for 30 s reboots and full reruns
  options.plan = dest_crash_plan(phase);
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << "phase " << phase << ":\n"
                           << report.invariants.summary();
  // The fault actually fired and forced the transaction down its failure
  // path for this phase: aborts for pre-commit phases, rollbacks for the
  // post-commit restore window.
  EXPECT_GT(report.faults.migration_dest_crashes, 0) << "phase " << phase;
  if (phase == "restore") {
    EXPECT_GT(report.migrations_rolled_back, 0U);
  } else {
    EXPECT_GT(report.migrations_aborted, 0U) << "phase " << phase;
  }
  // Every application still finished exactly once.
  EXPECT_EQ(report.invariants.exits_seen, 3U) << "phase " << phase;
}

TEST_P(MigrationFaultTest, SameSeedReplaysByteIdentical) {
  ScenarioOptions options;
  options.seed = 13;
  options.horizon = 900.0;
  options.plan = dest_crash_plan(GetParam());
  options.keep_trace = true;
  const ScenarioReport first = run_scenario(options);
  const ScenarioReport second = run_scenario(options);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);  // byte-identical
}

INSTANTIATE_TEST_SUITE_P(Phases, MigrationFaultTest,
                         ::testing::Values("init", "eager", "ack", "restore"),
                         [](const auto& param_info) { return param_info.param; });

TEST(MigrationFaultSuiteTest, LinkCutDuringEagerHoldsInvariants) {
  FaultPlan plan{"eager-link-cut"};
  plan.migration_link_cut(/*at=*/50.0, /*until=*/400.0, "eager",
                          /*probability=*/1.0, /*heal_after=*/30.0);
  ScenarioOptions options;
  options.seed = 21;
  options.horizon = 900.0;
  options.plan = plan;
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  EXPECT_GT(report.faults.migration_link_cuts, 0);
}

TEST(MigrationFaultSuiteTest, SabotagedRollbackTripsNoLostProcess) {
  // With the abort path's rollback skipped, a destination crash loses the
  // logical process — the checker must flag exactly that.
  ScenarioOptions options;
  options.seed = 9;
  options.horizon = 900.0;
  options.plan = dest_crash_plan("init");
  options.sabotage = sim::Sabotage::kMigrationRollback;
  const ScenarioReport report = run_scenario(options);
  ASSERT_FALSE(report.ok());
  bool lost_process = false;
  for (const Violation& violation : report.invariants.violations) {
    if (violation.invariant == "no-lost-process") {
      lost_process = true;
    }
  }
  EXPECT_TRUE(lost_process) << report.invariants.summary();
}

TEST(MigrationFaultSuiteTest, MigrationStormHoldsAllInvariants) {
  // The shipped plans/migration-storm.json shape: per-phase destination
  // crashes plus mid-eager link cuts layered over a CPU slowdown.
  FaultPlan plan{"migration-storm"};
  plan.cpu_slowdown(30.0, 90.0, 0.5, "ws2")
      .migration_dest_crash(50.0, 140.0, "init", 0.35, 30.0)
      .migration_dest_crash(50.0, 200.0, "eager", 0.35, 30.0)
      .migration_dest_crash(60.0, 260.0, "ack", 0.4, 30.0)
      .migration_dest_crash(50.0, 320.0, "restore", 0.5, 30.0)
      .migration_link_cut(50.0, 320.0, "eager", 0.25, 30.0);
  ScenarioOptions options;
  options.seed = 17;
  options.plan = plan;
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
}

TEST(MigrationFaultSuiteTest, DestCrashDuringPrecopyNeverLosesAProcess) {
  // Pre-ACK failure with rounds already shipped: everything pre-copied is
  // discarded and the source keeps computing — abort, never a lost process.
  ScenarioOptions options;
  options.seed = 9;
  options.horizon = 900.0;
  options.precopy = true;
  options.plan = dest_crash_plan("precopy");
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  EXPECT_GT(report.faults.migration_dest_crashes, 0);
  EXPECT_GT(report.migrations_aborted, 0U);
  EXPECT_EQ(report.invariants.exits_seen, 3U);
}

TEST(MigrationFaultSuiteTest, PrecopyStormHoldsAllInvariants) {
  // The shipped plans/precopy-storm.json: destination crashes while rounds
  // are in flight and through the freeze tail, link cuts mid-round, and
  // stalled rounds driven into their timeout.
  const auto plan = FaultPlan::builtin("precopy-storm");
  ASSERT_TRUE(plan.has_value());
  ScenarioOptions options;
  options.seed = 29;
  options.horizon = 900.0;
  options.precopy = true;
  options.plan = *plan;
  const ScenarioReport report = run_scenario(options);
  EXPECT_TRUE(report.ok()) << report.invariants.summary();
  // The run exercised real pre-copy rounds, not just stop-and-copy.
  EXPECT_GT(report.precopy_rounds, 0U);
}

TEST(MigrationFaultSuiteTest, PrecopyStormReplaysByteIdentical) {
  ScenarioOptions options;
  options.seed = 31;
  options.horizon = 900.0;
  options.precopy = true;
  options.plan = *FaultPlan::builtin("precopy-storm");
  options.keep_trace = true;
  const ScenarioReport first = run_scenario(options);
  const ScenarioReport second = run_scenario(options);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);  // byte-identical
}

TEST(MigrationFaultSuiteTest, PhaseFieldRoundTripsInJson) {
  FaultPlan plan{"p"};
  plan.migration_dest_crash(50.0, 140.0, "eager", 0.35, 30.0)
      .migration_link_cut(60.0, 200.0, "ack", 0.25, 5.0, "ws2");
  const std::string text = plan.to_json();
  const auto reparsed = FaultPlan::from_json(text);
  ASSERT_TRUE(reparsed.has_value());
  ASSERT_EQ(reparsed->specs().size(), 2U);
  EXPECT_EQ(reparsed->specs()[0].kind, FaultKind::kMigrationDestCrash);
  EXPECT_EQ(reparsed->specs()[0].phase, "eager");
  EXPECT_EQ(reparsed->specs()[1].kind, FaultKind::kMigrationLinkCut);
  EXPECT_EQ(reparsed->specs()[1].phase, "ack");
  EXPECT_EQ(reparsed->specs()[1].host_a, "ws2");
  EXPECT_EQ(reparsed->to_json(), text);  // byte-identical canonical form
  // Plans without migration faults never carry a "phase" key, keeping the
  // pre-existing plan files byte-identical.
  EXPECT_EQ(FaultPlan::builtin("churn")->to_json().find("phase"),
            std::string::npos);
}

TEST(MigrationFaultSuiteTest, UnknownPhaseIsRejected) {
  EXPECT_FALSE(
      FaultPlan::from_json(
          R"({"name":"p","faults":[{"kind":"migration_dest_crash","at":1,)"
          R"("phase":"warp"}]})")
          .has_value());
}

}  // namespace
}  // namespace ars::chaos

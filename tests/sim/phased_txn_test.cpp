#include "ars/sim/phased_txn.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ars::sim {
namespace {

/// A phase body: sleep `dt`, then record that it ran to completion.
Task<> sleep_then_mark(Engine& engine, double dt, bool& finished) {
  co_await delay(engine, dt);
  finished = true;
}

Task<> sleep_then_throw(Engine& engine, double dt) {
  co_await delay(engine, dt);
  throw std::runtime_error("link severed");
}

/// The caller side of an awaited phase: record the verdict and when it came.
Task<> await_phase(Engine& engine, PhasedTxn& txn, Task<> body,
                   double timeout, PhaseResult& verdict, double& at,
                   PhasedTxn::OnFailure on_failure) {
  verdict = co_await txn.await(std::move(body), timeout, on_failure);
  at = engine.now();
}

struct Harness {
  Engine engine;
  PhaseKernel kernel{engine};
  bool finished = false;  // the phase body ran to completion
  PhaseResult verdict = PhaseResult::kRunning;
  double at = -1.0;  // when the awaited verdict came

  [[nodiscard]] static PhaseEntry identity() {
    return PhaseEntry{"migrate", "app.0", "", "ws1", {"ws2"}};
  }

  /// Await a phase whose body works `work` seconds, under `timeout`.
  void await(PhasedTxn& txn, double work, double timeout,
             PhasedTxn::OnFailure on_failure = PhasedTxn::OnFailure::kKill) {
    Fiber::spawn(engine,
                 await_phase(engine, txn,
                             sleep_then_mark(engine, work, finished), timeout,
                             verdict, at, on_failure));
  }
};

TEST(PhasedTxn, CompletionAtTheTimeoutInstantCountsAsDone) {
  Harness h;
  PhasedTxn txn(h.kernel, h.identity());
  txn.enter("eager");
  // The timeout event is queued before the body's own 5 s delay, so at t=5
  // the timeout fires first; the completion still lands before the waiter
  // resumes and wins.
  h.await(txn, 5.0, 5.0);
  h.engine.run();
  EXPECT_TRUE(h.finished);
  EXPECT_EQ(h.verdict, PhaseResult::kDone);
  EXPECT_DOUBLE_EQ(h.at, 5.0);
}

TEST(PhasedTxn, StallDrivesThePhaseIntoItsTimeout) {
  Harness h;
  h.kernel.set_stall("precopy", 10.0);
  PhasedTxn txn(h.kernel, h.identity());
  txn.enter("precopy");
  h.await(txn, 1.0, 4.0);
  h.engine.run();
  EXPECT_EQ(h.verdict, PhaseResult::kTimeout);
  EXPECT_FALSE(h.finished) << "a timed-out phase fiber must be killed";
  EXPECT_DOUBLE_EQ(h.at, 4.0);

  // Clearing the stall lets the same body finish well inside the budget.
  h.kernel.set_stall("precopy", 0.0);
  txn.enter("precopy");
  h.await(txn, 1.0, 4.0);
  h.engine.run();
  EXPECT_EQ(h.verdict, PhaseResult::kDone);
  EXPECT_TRUE(h.finished);
}

TEST(PhasedTxn, ExternalFailureWakesTheWaiterAndKillsThePhaseFiber) {
  Harness h;
  PhasedTxn txn(h.kernel, h.identity());
  txn.enter("init");
  h.await(txn, 100.0, 50.0);
  h.engine.schedule_at(3.0, [&] { txn.fail(); });
  h.engine.run_until(3.0);
  EXPECT_EQ(h.verdict, PhaseResult::kFailed);
  EXPECT_DOUBLE_EQ(h.at, 3.0);
  EXPECT_FALSE(txn.running());
  h.engine.run();
  EXPECT_FALSE(h.finished) << "the failed phase's fiber kept running";
  // The failure is sticky: it outlives the phase it hit.
  txn.enter("eager");
  EXPECT_EQ(txn.result(), PhaseResult::kFailed);
}

TEST(PhasedTxn, KeepRunningLeavesThePhaseToDrain) {
  Harness h;
  PhasedTxn txn(h.kernel, h.identity());
  txn.enter("spawn");
  h.await(txn, 8.0, 2.0, PhasedTxn::OnFailure::kKeepRunning);
  h.engine.run_until(2.0);
  EXPECT_EQ(h.verdict, PhaseResult::kTimeout);
  EXPECT_TRUE(txn.running());
  bool drained = false;
  auto drain = [](PhasedTxn& t, bool& flag) -> Task<> {
    co_await t.drain();
    flag = true;
  };
  Fiber::spawn(h.engine, drain(txn, drained));
  h.engine.run();
  EXPECT_TRUE(h.finished);
  EXPECT_TRUE(drained);
  EXPECT_DOUBLE_EQ(h.engine.now(), 8.0);
}

TEST(PhasedTxn, DetachedPhaseFlagsItsTimeoutWithNoWaiter) {
  Harness h;
  PhasedTxn txn(h.kernel, h.identity());
  txn.enter("precopy");
  txn.detach(sleep_then_mark(h.engine, 10.0, h.finished), 2.0);
  h.engine.run_until(1.0);
  EXPECT_EQ(txn.result(), PhaseResult::kRunning);
  h.engine.run_until(3.0);
  EXPECT_EQ(txn.result(), PhaseResult::kTimeout);
  EXPECT_TRUE(txn.running()) << "a detached phase is not killed by its timeout";
  h.engine.run();
  EXPECT_TRUE(h.finished);
  EXPECT_FALSE(txn.running());
  // The first verdict sticks: landing late does not clear the timeout.
  EXPECT_EQ(txn.result(), PhaseResult::kTimeout);
}

TEST(PhasedTxn, DetachedPhaseFlagsItsErrorWithNoWaiter) {
  Harness h;
  PhasedTxn txn(h.kernel, h.identity());
  txn.enter("precopy");
  txn.detach(sleep_then_throw(h.engine, 1.0), 60.0);
  h.engine.run();
  EXPECT_EQ(txn.result(), PhaseResult::kError);
  EXPECT_EQ(txn.error(), "link severed");
  EXPECT_FALSE(txn.running());
  // The phase fiber cancelled its own timeout: nothing is left to fire.
  EXPECT_DOUBLE_EQ(h.engine.now(), 1.0);

  // A round that lands in time is done; the next round starts clean.
  txn.enter("precopy");
  txn.detach(sleep_then_mark(h.engine, 1.0, h.finished), 60.0);
  h.engine.run();
  EXPECT_EQ(txn.result(), PhaseResult::kDone);
  EXPECT_TRUE(h.finished);
}

TEST(PhasedTxn, ListenerSeesPhaseEntriesInOrder) {
  Harness h;
  std::vector<std::string> seen;
  h.kernel.set_listener([&](const PhaseEntry& entry) {
    EXPECT_EQ(entry.verb, "expand");
    EXPECT_EQ(entry.subject, "job");
    ASSERT_EQ(entry.targets.size(), 2U);
    EXPECT_EQ(entry.targets[1], "ws4");
    seen.push_back(entry.phase + "@" + std::to_string(h.engine.now()));
  });
  PhasedTxn txn(h.kernel, PhaseEntry{"expand", "job", "", "", {"ws3", "ws4"}});
  txn.enter("plan");
  txn.enter("spawn");
  h.await(txn, 2.0, 9.0);
  h.engine.run();
  txn.enter("commit");
  ASSERT_EQ(seen.size(), 3U);
  EXPECT_EQ(seen[0], "plan@" + std::to_string(0.0));
  EXPECT_EQ(seen[1], "spawn@" + std::to_string(0.0));
  EXPECT_EQ(seen[2], "commit@" + std::to_string(2.0));
  EXPECT_EQ(txn.phase(), "commit");

  h.kernel.set_listener(nullptr);
  txn.enter("ignored");
  EXPECT_EQ(seen.size(), 3U);
}

TEST(PhasedTxn, AbortedAndFreedTransactionIsNeverTouched) {
  Harness h;
  // Detached: the phase fiber and the timeout both still hold the
  // transaction when the owner aborts and frees it.
  auto detached = std::make_unique<PhasedTxn>(h.kernel, h.identity());
  detached->enter("precopy");
  detached->detach(sleep_then_mark(h.engine, 10.0, h.finished), 5.0);
  h.engine.run_until(1.0);
  detached.reset();
  // Awaited with kKeepRunning: the verdict is in, the fiber still runs.
  auto awaited = std::make_unique<PhasedTxn>(h.kernel, h.identity());
  awaited->enter("spawn");
  h.await(*awaited, 10.0, 1.0, PhasedTxn::OnFailure::kKeepRunning);
  h.engine.run_until(3.0);
  EXPECT_EQ(h.verdict, PhaseResult::kTimeout);
  awaited.reset();
  // Nothing may fire into the freed transactions (ASan checks the rest).
  EXPECT_EQ(h.engine.run_until(100.0), 0U);
  EXPECT_FALSE(h.finished);
}

TEST(PhasedTxn, SabotageNamesRoundTrip) {
  for (const Sabotage sabotage :
       {Sabotage::kNone, Sabotage::kLeaseExpiry, Sabotage::kMigrationRollback,
        Sabotage::kResizeRollback, Sabotage::kTornCheckpoint}) {
    EXPECT_EQ(sabotage_from(to_string(sabotage)), sabotage);
  }
  EXPECT_FALSE(sabotage_from("skip-rollback").has_value());
  Engine engine;
  PhaseKernel kernel(engine);
  EXPECT_TRUE(kernel.sabotaged(Sabotage::kNone));
  kernel.set_sabotage(Sabotage::kResizeRollback);
  EXPECT_TRUE(kernel.sabotaged(Sabotage::kResizeRollback));
  EXPECT_FALSE(kernel.sabotaged(Sabotage::kMigrationRollback));
}

}  // namespace
}  // namespace ars::sim

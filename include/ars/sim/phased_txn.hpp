#pragma once
// Phased-transaction kernel: the one implementation of "run a protocol
// phase against a timeout" shared by every reconfiguration transaction —
// hpcm migration (init / precopy / eager / ack) and malleable resize
// (spawn / redistribute).  DESIGN.md §18.
//
// A PhasedTxn runs each phase body in its own fiber while a cancellable
// timeout event and an external-failure flag race it.  Two modes:
//
//   * awaited  — the caller suspends in await() until the phase completes,
//     times out, throws, or fail() is called (destination crashed, spawn
//     target lost).  A completion that lands at the same instant as the
//     timeout counts as done; an external failure beats everything.  On
//     failure the phase fiber is killed (or, with kKeepRunning, left for
//     the caller to drain()).
//   * detached — the caller keeps running (pre-copy rounds overlap the
//     application).  Nothing waits: a timeout or error is flagged on the
//     transaction for the caller's next poll of result().  Here the first
//     verdict sticks — a round that lands after its timeout fired stays
//     timed out.
//
// The shared PhaseKernel owns what is per-simulation rather than
// per-transaction: the single phase-entry listener (chaos fault
// injection), the chaos stall table (a stalled phase sleeps at entry, so a
// long enough stall drives it into its timeout), and the sabotage switch
// the invariant checker uses to prove itself non-vacuous.

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ars/sim/engine.hpp"
#include "ars/sim/task.hpp"
#include "ars/sim/wait.hpp"

namespace ars::sim {

/// Deliberate protocol breakage, one at a time, for validating the chaos
/// invariant checker.  Never set outside tests and sabotage campaigns.
enum class Sabotage {
  kNone,
  kLeaseExpiry,        // the registry's lease sweeper never fires
  kMigrationRollback,  // aborted migrations skip the roll-back to the source
  kResizeRollback,     // failed redistributions leak their spawned ranks
  kTornCheckpoint,     // aborted checkpoint writes replace the previous one
};

/// "none" | "lease-expiry" | "migration-rollback" | "resize-rollback" |
/// "torn-checkpoint".
[[nodiscard]] const char* to_string(Sabotage sabotage);
[[nodiscard]] std::optional<Sabotage> sabotage_from(std::string_view name);

/// The one phase-entry notification, fired synchronously when a
/// transaction enters a phase.  Listeners must not reenter the engine that
/// owns the transaction inline — schedule an event instead.
struct PhaseEntry {
  std::string verb;     // "migrate" | "expand" | "shrink"
  std::string subject;  // migrating process / resized job
  std::string phase;
  std::string source;   // migration source host (empty for resizes)
  /// Migration destination, spawn targets (expand) or hosts being vacated
  /// (shrink) — fault injectors aim at these.
  std::vector<std::string> targets;
};

/// How a phase ended.  kRunning only for a detached phase still in flight.
enum class PhaseResult { kRunning, kDone, kTimeout, kFailed, kError };

class PhaseKernel {
 public:
  using Listener = std::function<void(const PhaseEntry&)>;

  explicit PhaseKernel(Engine& engine) noexcept : engine_(&engine) {}
  PhaseKernel(const PhaseKernel&) = delete;
  PhaseKernel& operator=(const PhaseKernel&) = delete;

  /// At most one listener; nullptr uninstalls.
  void set_listener(Listener listener) { listener_ = std::move(listener); }
  /// Chaos hook: every phase named `phase` sleeps `seconds` at entry, inside
  /// its fiber and under its timeout.  Zero clears the stall.
  void set_stall(const std::string& phase, double seconds);
  void set_sabotage(Sabotage sabotage) noexcept { sabotage_ = sabotage; }
  [[nodiscard]] Sabotage sabotage() const noexcept { return sabotage_; }
  [[nodiscard]] bool sabotaged(Sabotage sabotage) const noexcept {
    return sabotage_ == sabotage;
  }
  [[nodiscard]] Engine& engine() const noexcept { return *engine_; }

 private:
  friend class PhasedTxn;

  Engine* engine_;
  Listener listener_;
  std::map<std::string, double> stalls_;
  Sabotage sabotage_ = Sabotage::kNone;
};

class PhasedTxn {
 public:
  /// What await() does with the phase fiber when the phase fails.
  enum class OnFailure {
    kKill,         // destroy it on the spot
    kKeepRunning,  // leave it alive; the caller stops it and drain()s
  };

  /// `identity` names the transaction in every phase-entry notification
  /// (its `phase` field is overwritten by enter()).
  PhasedTxn(PhaseKernel& kernel, PhaseEntry identity);
  /// Cancels the timeout and kills the phase fiber: neither can touch the
  /// transaction once it is gone.  There must be no waiter in await().
  ~PhasedTxn();
  PhasedTxn(const PhasedTxn&) = delete;
  PhasedTxn& operator=(const PhasedTxn&) = delete;

  /// Enter `phase`: reset the per-phase verdict and notify the listener.
  /// Phases without a body (plan, commit, restore) are entered only.
  void enter(std::string phase);
  [[nodiscard]] const std::string& phase() const noexcept {
    return entry_.phase;
  }

  /// Awaited mode: run `body` as the current phase with a `timeout` and
  /// wait for its verdict (never kRunning).  The phase fiber is named
  /// "<subject>.<verb>.<phase>".
  [[nodiscard]] Task<PhaseResult> await(
      Task<> body, double timeout, OnFailure on_failure = OnFailure::kKill);
  /// Detached mode: start `body` as the current phase and return at once;
  /// poll result() at the caller's next opportunity.
  void detach(Task<> body, double timeout);

  /// External failure: flag the transaction (sticky across phases) and
  /// wake an awaiting caller.
  void fail();
  /// Stop the phase: cancel its timeout and kill its fiber.
  void cancel();
  /// Wait until the phase fiber has finished (after a kKeepRunning failure).
  [[nodiscard]] Task<> drain();

  /// The verdict so far: external failure beats completion, which beats an
  /// error, which beats a timeout.
  [[nodiscard]] PhaseResult result() const noexcept;
  /// True while the phase fiber runs.
  [[nodiscard]] bool running() const noexcept { return running_; }
  /// What a failed body threw (empty unless result() is kError).
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  void launch(Task<> body, double timeout);
  [[nodiscard]] Task<> run(Task<> body);

  PhaseKernel* kernel_;
  PhaseEntry entry_;
  WaitQueue wake_;
  Fiber fiber_;
  Engine::EventHandle timeout_;
  bool detached_ = false;
  bool running_ = false;
  bool done_ = false;
  bool timed_out_ = false;
  bool failed_ = false;
  std::string error_;
};

}  // namespace ars::sim

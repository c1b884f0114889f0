#include "ars/sim/phased_txn.hpp"

#include <exception>
#include <iterator>
#include <utility>

namespace ars::sim {

namespace {

/// Indexed by Sabotage.
constexpr const char* kSabotageNames[] = {"none", "lease-expiry",
                                          "migration-rollback",
                                          "resize-rollback", "torn-checkpoint"};

}  // namespace

const char* to_string(Sabotage sabotage) {
  return kSabotageNames[static_cast<int>(sabotage)];
}

std::optional<Sabotage> sabotage_from(std::string_view name) {
  for (int i = 0; i < static_cast<int>(std::size(kSabotageNames)); ++i) {
    if (name == kSabotageNames[i]) {
      return static_cast<Sabotage>(i);
    }
  }
  return std::nullopt;
}

void PhaseKernel::set_stall(const std::string& phase, double seconds) {
  if (seconds > 0.0) {
    stalls_[phase] = seconds;
  } else {
    stalls_.erase(phase);
  }
}

PhasedTxn::PhasedTxn(PhaseKernel& kernel, PhaseEntry identity)
    : kernel_(&kernel), entry_(std::move(identity)), wake_(kernel.engine()) {}

PhasedTxn::~PhasedTxn() { cancel(); }

void PhasedTxn::enter(std::string phase) {
  entry_.phase = std::move(phase);
  done_ = false;
  timed_out_ = false;
  error_.clear();
  if (kernel_->listener_) {
    kernel_->listener_(entry_);
  }
}

void PhasedTxn::launch(Task<> body, double timeout) {
  Engine& engine = kernel_->engine();
  running_ = true;
  fiber_ = Fiber::spawn(
      engine, run(std::move(body)),
      entry_.subject + "." + entry_.verb + "." + entry_.phase);
  timeout_ = engine.schedule_after(timeout, [this] {
    timed_out_ = true;
    wake_.notify_all();
  });
}

Task<> PhasedTxn::run(Task<> body) {
  try {
    if (const auto stall = kernel_->stalls_.find(entry_.phase);
        stall != kernel_->stalls_.end()) {
      co_await delay(kernel_->engine(), stall->second);
    }
    co_await std::move(body);
    // A detached verdict is final: a round landing after its timeout fired
    // stays timed out.
    if (!(detached_ && timed_out_)) {
      done_ = true;
    }
  } catch (const std::exception& e) {
    error_ = e.what();
    if (error_.empty()) {
      error_ = "phase failed";
    }
  }
  running_ = false;
  if (detached_) {
    timeout_.cancel();  // nobody waits to cancel it
  }
  wake_.notify_all();
}

Task<PhaseResult> PhasedTxn::await(Task<> body, double timeout,
                                   OnFailure on_failure) {
  detached_ = false;
  launch(std::move(body), timeout);
  while (result() == PhaseResult::kRunning) {
    co_await wake_.wait();
  }
  timeout_.cancel();
  const PhaseResult verdict = result();
  if (verdict != PhaseResult::kDone && on_failure == OnFailure::kKill) {
    cancel();
  }
  co_return verdict;
}

void PhasedTxn::detach(Task<> body, double timeout) {
  detached_ = true;
  launch(std::move(body), timeout);
}

void PhasedTxn::fail() {
  failed_ = true;
  wake_.notify_all();
}

void PhasedTxn::cancel() {
  timeout_.cancel();
  fiber_.kill();
  running_ = false;
}

Task<> PhasedTxn::drain() {
  while (running_) {
    co_await wake_.wait();
  }
}

PhaseResult PhasedTxn::result() const noexcept {
  if (failed_) {
    return PhaseResult::kFailed;
  }
  if (done_) {
    return PhaseResult::kDone;
  }
  if (!error_.empty()) {
    return PhaseResult::kError;
  }
  if (timed_out_) {
    return PhaseResult::kTimeout;
  }
  return PhaseResult::kRunning;
}

}  // namespace ars::sim

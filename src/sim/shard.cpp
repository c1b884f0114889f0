#include "ars/sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>
#include <tuple>

#ifdef __linux__
#include <sched.h>
#endif

namespace ars::sim {

namespace {

/// How long a barrier waiter spins before it parks.  An epoch of the
/// 20k-host fleet takes tens of microseconds of wall time, and most waits
/// are shorter than one.
constexpr std::chrono::microseconds kSpinBudget{50};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// CPUs a CFS quota of `quota` per `period` grants, rounded up; 0 when no
/// quota is set or the period is not positive.
std::size_t cpus_from_quota(long long quota, long long period) noexcept {
  if (quota <= 0 || period <= 0) {
    return 0;
  }
  return static_cast<std::size_t>((quota + period - 1) / period);
}

std::size_t affinity_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return std::max(1U, std::thread::hardware_concurrency());
}

/// The CFS quota of one cgroup directory, in CPUs; 0 when none is set (v2
/// writes "max", v1 -1) or the files cannot be read.
std::size_t dir_quota_cpus(const std::filesystem::path& dir, bool v2) {
  long long quota = 0;  // a failed read leaves 0: no quota
  long long period = 0;
  if (v2) {
    std::ifstream(dir / "cpu.max") >> quota >> period;  // "<quota> <period>"
  } else {
    std::ifstream(dir / "cpu.cfs_quota_us") >> quota;
    std::ifstream(dir / "cpu.cfs_period_us") >> period;
  }
  return cpus_from_quota(quota, period);
}

template <typename Duration>
double seconds(Duration d) {
  return std::chrono::duration<double>(d).count();
}

/// See ShardGroup::fail_worker_start_for_testing; 0 = off.
std::atomic<std::size_t> fail_worker_start{0};

}  // namespace

std::size_t cgroup_quota_cpus(const std::string& cgroup_list,
                              const std::string& mount) {
  std::ifstream self(cgroup_list);
  std::size_t tightest = 0;
  std::string line;
  while (std::getline(self, line)) {
    // "<id>:<controllers>:<path>"; the v2 hierarchy lists no controllers.
    const std::size_t first = line.find(':');
    const std::size_t second = line.find(':', first + 1);
    if (first == std::string::npos || second == std::string::npos) {
      continue;
    }
    const std::string controllers =
        "," + line.substr(first + 1, second - first - 1) + ",";
    const bool v2 = controllers == ",,";
    if (!v2 && controllers.find(",cpu,") == std::string::npos) {
      continue;
    }
    std::filesystem::path root = mount;
    if (!v2) {
      root /= "cpu";
    }
    for (std::filesystem::path dir = line.substr(second + 1);;
         dir = dir.parent_path()) {
      const std::size_t cpus = dir_quota_cpus(root / dir.relative_path(), v2);
      if (cpus != 0 && (tightest == 0 || cpus < tightest)) {
        tightest = cpus;
      }
      if (!dir.has_relative_path()) {
        break;
      }
    }
  }
  return tightest;
}

std::size_t usable_cpus() {
  const std::size_t cpus = affinity_cpus();
  // Inside a container the cgroup mount's root is its own cgroup.
  const std::size_t quota =
      cgroup_quota_cpus("/proc/self/cgroup", "/sys/fs/cgroup");
  return quota != 0 ? std::min(cpus, quota) : cpus;
}

void ShardGroup::fail_worker_start_for_testing(std::size_t shard) noexcept {
  fail_worker_start.store(shard, std::memory_order_relaxed);
}

ShardGroup::ShardGroup(std::size_t shards) : ShardGroup(shards, Options{}) {}

ShardGroup::ShardGroup(std::size_t shards, Options options)
    : options_(options) {
  if (shards == 0) {
    throw std::invalid_argument("ShardGroup needs at least one shard");
  }
  if (!(options_.lookahead > 0.0)) {
    throw std::invalid_argument("ShardGroup lookahead must be > 0");
  }
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<ShardState>());
  }
  outbox_.resize(shards * shards);
  spin_ = shards > 1 && usable_cpus() >= shards;
}

ShardGroup::~ShardGroup() { stop_workers(); }

void ShardGroup::start_workers() {
  workers_.reserve(shards_.size() - 1);
  try {
    for (std::size_t shard = 1; shard < shards_.size(); ++shard) {
      if (shard == fail_worker_start.load(std::memory_order_relaxed)) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "ShardGroup: worker thread did not start");
      }
      workers_.emplace_back(
          [this, shard, round = job_round_] { worker_main(shard, round); });
    }
  } catch (...) {
    // A partial set of workers would leave every barrier one arrival
    // short; stop them all so the next call starts from none.
    stop_workers();
    throw;
  }
}

void ShardGroup::stop_workers() noexcept {
  if (workers_.empty()) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    exit_ = true;
  }
  job_start_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  exit_ = false;
}

void ShardGroup::post(std::size_t src, std::size_t dst, SimTime at,
                      Callback fn) {
  assert(src < shards_.size() && dst < shards_.size());
  if (src == dst) {
    // The caller owns this shard's engine right now; no mailbox needed.
    shards_[src]->engine.schedule_at(at, std::move(fn));
    return;
  }
  Mailbox& box = outbox(src, dst);
  box.items.push_back(Pending{at, box.next_seq++, std::move(fn)});
}

void ShardGroup::deliver_inbox(std::size_t dst) {
  ShardState& state = *shards_[dst];
  std::vector<Incoming>& incoming = state.scratch;
  incoming.clear();
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    Mailbox& box = outbox(src, dst);
    for (Pending& pending : box.items) {
      incoming.push_back(
          Incoming{pending.at, src, pending.seq, std::move(pending.fn)});
    }
    box.items.clear();
  }
  if (incoming.empty()) {
    return;
  }
  // The deterministic merge order the whole scheme hinges on: timestamp,
  // then source shard, then per-mailbox sequence.  Same-timestamp events
  // then enqueue in this order and the engine's structural FIFO chains keep
  // it — no further tie-breaking needed.
  std::sort(incoming.begin(), incoming.end(),
            [](const Incoming& a, const Incoming& b) {
              return std::tie(a.at, a.src, a.seq) <
                     std::tie(b.at, b.src, b.seq);
            });
  for (Incoming& item : incoming) {
    // Lookahead contract: the post may not land in this shard's past.  (The
    // engine would clamp to `now`, still deterministic, but a violation
    // means some cross-shard path undercuts the configured lookahead.)
    assert(item.at >= state.engine.now());
    state.engine.schedule_at(item.at, std::move(item.fn));
  }
  state.cross_in += incoming.size();
  incoming.clear();
}

bool ShardGroup::plan_epoch() {
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    deliver_inbox(dst);
  }
  SimTime next = std::numeric_limits<SimTime>::infinity();
  for (const auto& state : shards_) {
    next = std::min(next, state->engine.next_event_at());
  }
  if (!(next <= until_)) {
    return false;  // nothing left inside the window (covers next == +inf)
  }
  horizon_ = std::min(until_, next + options_.lookahead);
  ++epochs_;
  return true;
}

bool ShardGroup::arrive(bool epoch) {
  const std::uint32_t phase = phase_.load(std::memory_order_acquire);
  // acq_rel: the last arrival's increment reads the end of the chain of
  // every earlier one, so it sees every shard's epoch writes.
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 < shards_.size()) {
    return (await_phase(phase) & 1U) != 0;
  }
  // Completion step: every other shard is parked until the phase moves.
  arrived_.store(0, std::memory_order_relaxed);
  const bool done = !epoch || !plan_epoch();
  if (done) {
    close_job(epoch);
  }
  phase_.store((phase & ~1U) + 2U + (done ? 1U : 0U),
               std::memory_order_release);
  phase_.notify_all();
  return done;
}

std::uint32_t ShardGroup::await_phase(std::uint32_t phase) const {
  if (spin_) {
    const Clock::time_point deadline = Clock::now() + kSpinBudget;
    for (unsigned i = 1;; ++i) {
      cpu_relax();
      const std::uint32_t seen = phase_.load(std::memory_order_acquire);
      if (seen != phase) {
        return seen;
      }
      if (i % 64 == 0 && Clock::now() >= deadline) {
        break;
      }
    }
  }
  phase_.wait(phase, std::memory_order_acquire);
  return phase_.load(std::memory_order_acquire);
}

void ShardGroup::close_job(bool epoch) {
  const Clock::time_point end = Clock::now();
  for (const auto& state : shards_) {
    const Clock::duration wait = end - state->job_start - state->job_busy;
    if (epoch) {
      state->run_busy += state->job_busy;
      state->run_wait += wait;
    } else {
      state->call = Split{seconds(state->job_busy), seconds(wait)};
    }
  }
}

void ShardGroup::run_window(std::size_t shard) {
  ShardState& state = *shards_[shard];
  state.job_start = Clock::now();
  state.job_busy = Clock::duration::zero();
  Clock::time_point start = state.job_start;
  for (;;) {
    state.engine.run_until(horizon_);
    ++state.epochs;
    state.job_busy += Clock::now() - start;
    if (arrive(/*epoch=*/true)) {
      return;
    }
    start = Clock::now();
  }
}

void ShardGroup::run_call(std::size_t shard,
                          const std::function<void(std::size_t)>& fn) {
  ShardState& state = *shards_[shard];
  state.error = nullptr;
  state.job_start = Clock::now();
  try {
    fn(shard);
  } catch (...) {
    state.error = std::current_exception();
  }
  state.job_busy = Clock::now() - state.job_start;
  arrive(/*epoch=*/false);
}

void ShardGroup::worker_main(std::size_t shard, std::uint64_t seen_round) {
  for (;;) {
    const std::function<void(std::size_t)>* call = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_start_.wait(lock,
                      [&] { return exit_ || job_round_ != seen_round; });
      if (exit_) {
        return;
      }
      seen_round = job_round_;
      call = job_;
    }
    if (call != nullptr) {
      run_call(shard, *call);
    } else {
      run_window(shard);
    }
  }
}

void ShardGroup::start_job(const std::function<void(std::size_t)>* call) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = call;
    ++job_round_;
  }
  job_start_.notify_all();
}

std::size_t ShardGroup::run_until(SimTime until) {
  const std::uint64_t before = events_executed();
  if (shards_.size() == 1) {
    // Inline path: identical to driving the engine directly — no threads,
    // no epochs, no barriers.  (post() with one shard already schedules
    // straight into the engine.)
    ShardState& state = *shards_[0];
    const Clock::time_point start = Clock::now();
    state.engine.run_until(until);
    state.run_busy += Clock::now() - start;
    return static_cast<std::size_t>(events_executed() - before);
  }

  // Setup-time posts (wiring done before the run) are merged here, on the
  // coordinating thread, in the same deterministic order as epoch merges;
  // later epochs are planned by the barrier's completion step.
  if (workers_.empty()) {
    start_workers();  // before the merge, so a failed start changes nothing
  }
  until_ = until;
  if (plan_epoch()) {
    start_job(nullptr);
    run_window(/*shard=*/0);
    // run_window returns only after the final barrier, so every worker is
    // done with its engine.
  }

  // Land every clock exactly on `until` (the final horizon may fall short
  // when the last events cluster before it).
  for (const auto& state : shards_) {
    state->engine.run_until(until);
  }
  return static_cast<std::size_t>(events_executed() - before);
}

std::vector<ShardGroup::Split> ShardGroup::for_each_shard(
    const std::function<void(std::size_t)>& fn) {
  if (shards_.size() == 1) {
    const Clock::time_point start = Clock::now();
    fn(0);
    return {Split{seconds(Clock::now() - start), 0.0}};
  }
  if (workers_.empty()) {
    start_workers();
  }
  start_job(&fn);
  run_call(/*shard=*/0, fn);
  std::vector<Split> splits;
  splits.reserve(shards_.size());
  std::exception_ptr error;
  for (const auto& state : shards_) {
    splits.push_back(state->call);
    if (error == nullptr) {
      error = state->error;
    }
    state->error = nullptr;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
  return splits;
}

std::uint64_t ShardGroup::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& state : shards_) {
    total += state->engine.events_executed();
  }
  return total;
}

std::uint64_t ShardGroup::cross_events() const {
  std::uint64_t total = 0;
  for (const auto& state : shards_) {
    total += state->cross_in;
  }
  return total;
}

std::vector<ShardGroup::ShardStats> ShardGroup::stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& state : shards_) {
    out.push_back(ShardStats{
        Split{seconds(state->run_busy), seconds(state->run_wait)},
        state->epochs, state->cross_in});
  }
  return out;
}

}  // namespace ars::sim

#pragma once
// Conservative parallel discrete-event simulation: a group of independent
// engines (shards) advanced in lock-step epochs, one thread per shard.
//
// The synchronization protocol is the classic lookahead/window scheme
// (YAWNS-style adaptive barriers), with one sync point per epoch:
//
//   1. every shard runs its own engine up to the epoch horizon —
//      intra-shard events execute lock-free on the ordinary slot-slab +
//      4-ary-heap engine, no atomics on the hot path;
//   2. every shard arrives at the epoch barrier.  The last to arrive runs
//      the barrier's completion step while the others are parked: it drains
//      every cross-shard mailbox into its destination engine (sorted by
//      (timestamp, source shard, sequence), so the merge order is
//      deterministic for a fixed shard count) and sets the next horizon to
//      min(until, global_min_next_event + lookahead), or ends the window;
//   3. the barrier releases every shard into the next epoch.
//
// Correctness rests on the lookahead contract: a cross-shard post made at
// source time t must be timestamped >= t + lookahead.  Every event executed
// inside an epoch has t >= the global minimum the horizon was derived from,
// so its posts land at or after the horizon — never in a peer's past.  The
// network's cross-shard fabric latency (net/shard_router.hpp) is the natural
// lookahead bound.
//
// Waiting at the barrier spins (with a CPU pause) for a short bounded time
// and then parks on the barrier's phase word.  Spinning only pays when every
// shard has a CPU of its own, so a group spins only if usable_cpus() -- the
// process's CPU affinity set, capped by its cgroup's CPU quota -- is at
// least the shard count; otherwise it parks at once.
//
// Threading contract:
//   * shard s's engine (and everything hanging off it — hosts, networks,
//     tracers) is touched only by shard s's thread, by the barrier's
//     completion step while every shard is parked, or by the coordinating
//     thread while no run_until/for_each_shard call is in flight;
//   * shard 0's thread is the coordinating thread; shards 1..N-1 get
//     worker threads, started by the first multi-shard run_until or
//     for_each_shard call and parked on a condition variable between calls.
//     They start all or none: if one cannot start, the call throws with no
//     worker left running, and the next call tries again;
//   * post(src, ...) may be called from shard src's thread during an epoch,
//     or from the coordinating thread outside run_until (setup posts are
//     flushed before the first epoch);
//   * with one shard everything runs inline on the caller's thread — no
//     workers, no barriers, bit-identical to driving the engine directly.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ars/sim/engine.hpp"

namespace ars::sim {

/// CPUs this process may keep busy at once: its CPU affinity set, capped by
/// the tightest CFS quota (cgroup v2 cpu.max, v1 cpu.cfs_quota_us) on its
/// cgroup or an ancestor, rounded up.  A quota-limited container sees every
/// host CPU in its affinity set, so the affinity count alone overstates it.
[[nodiscard]] std::size_t usable_cpus();

/// The tightest CFS quota, in CPUs (rounded up), on the cgroup that
/// `cgroup_list` (a /proc/<pid>/cgroup file) names or any ancestor, with the
/// cgroup hierarchy mounted at `mount` (v1 controllers under `mount`/cpu);
/// 0 when no level sets one or nothing can be read.
[[nodiscard]] std::size_t cgroup_quota_cpus(const std::string& cgroup_list,
                                            const std::string& mount);

class ShardGroup {
 public:
  struct Options {
    /// Conservative synchronization bound, seconds: the minimum delay of any
    /// cross-shard post.  Must be > 0 (zero-lookahead would stall the epoch
    /// loop).
    double lookahead = 0.0001;
  };

  /// One shard's wall-clock split of a phase: time spent on its own work
  /// (running its engine, or the for_each_shard body) and time spent at the
  /// barrier (spinning, parked, or merging mailboxes).  Wall clock, so it
  /// stays out of obs metrics and traces, whose digests must repeat.
  struct Split {
    double busy_s = 0.0;
    double wait_s = 0.0;
  };

  /// Per-shard epoch accounting, summed over every run_until call.
  struct ShardStats {
    Split run;
    std::uint64_t epochs = 0;    // epochs this shard ran
    std::uint64_t cross_in = 0;  // cross-shard deliveries merged into it
  };

  explicit ShardGroup(std::size_t shards);
  ShardGroup(std::size_t shards, Options options);
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;
  ~ShardGroup();

  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }
  [[nodiscard]] Engine& engine(std::size_t shard) noexcept {
    return shards_[shard]->engine;
  }
  [[nodiscard]] double lookahead() const noexcept { return options_.lookahead; }

  /// Cross-shard event: run `fn` on shard `dst`'s engine at absolute time
  /// `at`.  src == dst degenerates to a plain schedule_at.  During an epoch
  /// `at` must honor the lookahead contract (>= source now + lookahead);
  /// delivery happens at the next epoch barrier.
  void post(std::size_t src, std::size_t dst, SimTime at, Callback fn);

  /// Advance every shard to `until` (events with t <= until execute, clocks
  /// land on `until`).  Returns the number of events executed across all
  /// shards.  Not reentrant; call from one coordinating thread.
  std::size_t run_until(SimTime until);

  /// Run fn(shard) for every shard on that shard's own thread (shard 0 on
  /// the caller's), and return once all have finished — the way to build
  /// and destroy per-shard state where it will be used.  If any call
  /// throws, the exception of the lowest such shard is re-thrown here after
  /// every call has finished.  Returns each shard's busy/wait split.  Same
  /// caller rules as run_until.
  std::vector<Split> for_each_shard(const std::function<void(std::size_t)>& fn);

  /// Sum of events executed across shards.  Stable only while no epoch is
  /// in flight (i.e. outside run_until) — same as the other accessors.
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Epoch barriers crossed by threaded run_until calls so far.
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }
  /// Cross-shard deliveries merged into destination engines so far.
  [[nodiscard]] std::uint64_t cross_events() const;
  /// Per-shard busy/wait split, epochs and merged deliveries.
  [[nodiscard]] std::vector<ShardStats> stats() const;
  /// True once worker threads exist.
  [[nodiscard]] bool threaded() const noexcept { return !workers_.empty(); }

  /// Test seam: while `shard` is non-zero, starting that shard's worker
  /// thread throws std::system_error, as std::thread does when the process
  /// is out of threads.  Process-wide; pass 0 to turn it off.
  static void fail_worker_start_for_testing(std::size_t shard) noexcept;
  /// True if barrier waiters spin before parking: usable_cpus() >= size().
  [[nodiscard]] bool spins() const noexcept { return spin_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    SimTime at = 0.0;
    std::uint64_t seq = 0;
    Callback fn;
  };

  /// One (src, dst) mailbox.  Written only by src's thread during an epoch,
  /// drained only by the barrier's completion step; the barrier orders the
  /// two.  Cache-line sized so neighbouring writers never share a line.
  struct alignas(64) Mailbox {
    std::vector<Pending> items;
    std::uint64_t next_seq = 0;
  };

  struct Incoming {
    SimTime at = 0.0;
    std::size_t src = 0;
    std::uint64_t seq = 0;
    Callback fn;
  };

  struct alignas(64) ShardState {
    Engine engine;
    std::vector<Incoming> scratch;  // merge buffer
    std::uint64_t cross_in = 0;     // deliveries merged into this shard
    std::uint64_t epochs = 0;
    Clock::duration run_busy{};
    Clock::duration run_wait{};
    Split call;                     // the last for_each_shard call
    std::exception_ptr error;       // thrown by the last for_each_shard body
    // The current call: when this shard started it and its busy time so
    // far.  The final barrier turns them into the shard's split.
    Clock::time_point job_start;
    Clock::duration job_busy{};
  };

  [[nodiscard]] Mailbox& outbox(std::size_t src, std::size_t dst) noexcept {
    return outbox_[src * shards_.size() + dst];
  }

  /// Drain every mailbox addressed to `dst` into its engine, deterministic
  /// (timestamp, source shard, sequence) order.
  void deliver_inbox(std::size_t dst);
  /// Merge every mailbox, then set the next horizon.  False when nothing
  /// is left inside the window.
  bool plan_epoch();
  /// The single barrier.  `epoch` selects the completion step (merge and
  /// plan, or nothing).  Returns true when the job is over.
  bool arrive(bool epoch);
  [[nodiscard]] std::uint32_t await_phase(std::uint32_t phase) const;
  /// Fold every shard's current-call timing into its split.
  void close_job(bool epoch);
  void run_window(std::size_t shard);
  void run_call(std::size_t shard, const std::function<void(std::size_t)>& fn);
  /// Hand the (started) workers a job: one for_each_shard body, or
  /// (nullptr) a window of epochs.
  void start_job(const std::function<void(std::size_t)>* call);
  /// Start shards 1..N-1's threads.  All or none: if one fails to start,
  /// the ones already running are stopped and the error re-thrown.
  void start_workers();
  void stop_workers() noexcept;
  /// A worker's loop; `seen_round` is the job round it was started after.
  void worker_main(std::size_t shard, std::uint64_t seen_round);

  Options options_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<Mailbox> outbox_;  // shards * shards, row-major by source
  std::uint64_t epochs_ = 0;
  SimTime until_ = 0.0;    // the current window's end
  SimTime horizon_ = 0.0;  // the current epoch's end
  bool spin_ = false;

  // The epoch barrier: arrivals count up; the completion step bumps the
  // phase word (low bit set when the job is over) and wakes the waiters.
  alignas(64) std::atomic<std::size_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> phase_{0};

  // Job hand-off: workers park on the condition variable between calls.
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable job_start_;
  std::uint64_t job_round_ = 0;
  const std::function<void(std::size_t)>* job_ = nullptr;
  bool exit_ = false;
};

}  // namespace ars::sim

// ShardGroup: conservative multi-threaded epochs over per-shard
// engines.  The properties pinned here are the ones the sharded runtime
// builds on: the one-shard path is plain Engine::run_until (no threads), the
// cross-shard merge order is (timestamp, source shard, sequence), posts obey
// the lookahead contract, and a fixed shard count replays byte-identically.

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "ars/sim/shard.hpp"

namespace ars::sim {
namespace {

constexpr double kLookahead = 0.001;

/// Per-shard execution log: "t<time>:s<shard>:<tag>" lines, written only by
/// the owning shard's thread, concatenated (by shard) after the run.
struct Logs {
  explicit Logs(std::size_t shards) : per_shard(shards) {}
  std::vector<std::vector<std::string>> per_shard;

  void record(ShardGroup& group, std::size_t shard, const std::string& tag) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "t%.6f:s%zu:%s",
                  group.engine(shard).now(), shard, tag.c_str());
    per_shard[shard].emplace_back(buf);
  }

  [[nodiscard]] std::string merged() const {
    std::string out;
    for (const auto& lines : per_shard) {
      for (const auto& line : lines) {
        out += line;
        out += "\n";
      }
    }
    return out;
  }
};

TEST(ShardGroup, SingleShardRunsInlineWithoutThreads) {
  ShardGroup group{1, {.lookahead = kLookahead}};
  std::vector<int> order;
  group.engine(0).schedule_at(1.0, [&] { order.push_back(1); });
  group.post(0, 0, 2.0, [&] { order.push_back(2); });
  const std::size_t executed = group.run_until(5.0);
  EXPECT_EQ(executed, 2U);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(group.threaded());
  EXPECT_EQ(group.epochs(), 0U);
  EXPECT_DOUBLE_EQ(group.engine(0).now(), 5.0);
}

TEST(ShardGroup, SetupPostsAreFlushedBeforeTheFirstEpoch) {
  ShardGroup group{2, {.lookahead = kLookahead}};
  std::vector<int> seen;
  group.post(0, 1, 0.5, [&] { seen.push_back(1); });
  group.post(1, 0, 0.25, [&] { seen.push_back(0); });
  group.run_until(1.0);
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0], 0);  // earlier timestamp first, across shards
  EXPECT_EQ(seen[1], 1);
  EXPECT_DOUBLE_EQ(group.engine(0).now(), 1.0);
  EXPECT_DOUBLE_EQ(group.engine(1).now(), 1.0);
}

TEST(ShardGroup, CrossShardMergeOrderIsTimestampSourceSequence) {
  ShardGroup group{3, {.lookahead = kLookahead}};
  std::vector<std::string> order;  // written only by shard 0's owner
  // All three sources post two same-timestamp events each into shard 0
  // during the first epoch; the merge must interleave them (t, src, seq).
  for (std::size_t src : {2UL, 1UL, 0UL}) {
    group.engine(src).schedule_at(0.1, [&group, &order, src] {
      for (int i = 0; i < 2; ++i) {
        const std::string tag =
            "s" + std::to_string(src) + "#" + std::to_string(i);
        group.post(src, 0, 0.1 + kLookahead,
                   [&order, tag] { order.push_back(tag); });
      }
    });
  }
  group.run_until(1.0);
  EXPECT_EQ(order,
            (std::vector<std::string>{"s0#0", "s0#1", "s1#0", "s1#1", "s2#0",
                                      "s2#1"}));
  EXPECT_EQ(group.cross_events(), 4U);  // shard 0's own posts go direct
  EXPECT_TRUE(group.threaded());
  EXPECT_GE(group.epochs(), 1U);
}

TEST(ShardGroup, PingPongAcrossShardsAdvancesInLookaheadEpochs) {
  ShardGroup group{2, {.lookahead = kLookahead}};
  int hops = 0;
  // Relay a token: each hop re-posts to the other shard one lookahead
  // later.  40 hops => the run needs at least 40 epochs and the token's
  // timestamps must be exact multiples of the lookahead.
  struct Relay {
    ShardGroup* group;
    int* hops;
    void hop(std::size_t from, int remaining) const {
      ++*hops;
      if (remaining == 0) {
        return;
      }
      const std::size_t to = 1 - from;
      Relay self = *this;
      group->post(from, to, group->engine(from).now() + kLookahead,
                  [self, to, remaining] { self.hop(to, remaining - 1); });
    }
  };
  Relay relay{&group, &hops};
  group.engine(0).schedule_at(0.0, [relay] { relay.hop(0, 40); });
  group.run_until(1.0);
  EXPECT_EQ(hops, 41);
  EXPECT_GE(group.epochs(), 40U);
  EXPECT_EQ(group.cross_events(), 40U);
}

/// Four shards of periodic tickers, each fanning a post out to every other
/// shard: returns the merged execution log plus event and cross counts.
std::string ticker_timeline() {
  ShardGroup group{4, {.lookahead = kLookahead}};
  auto logs = std::make_shared<Logs>(4);
  // Each shard runs a periodic local tick and fans a post out to every
  // other shard with per-source timing, so the merged log exercises
  // same-timestamp collisions from distinct sources.
  for (std::size_t shard = 0; shard < 4; ++shard) {
    struct Ticker {
      ShardGroup* group;
      std::shared_ptr<Logs> logs;
      std::size_t shard;
      void tick(int remaining) const {
        logs->record(*group, shard, "tick");
        for (std::size_t dst = 0; dst < 4; ++dst) {
          if (dst == shard) {
            continue;
          }
          Ticker self = *this;
          group->post(shard, dst,
                      group->engine(shard).now() + kLookahead * 2,
                      [self, dst] {
                        self.logs->record(*self.group, dst,
                                          "from" + std::to_string(self.shard));
                      });
        }
        if (remaining > 0) {
          Ticker self = *this;
          group->engine(shard).schedule_after(
              0.0103 + 0.001 * static_cast<double>(shard),
              [self, remaining] { self.tick(remaining - 1); });
        }
      }
    };
    Ticker ticker{&group, logs, shard};
    group.engine(shard).schedule_at(0.0, [ticker] { ticker.tick(12); });
  }
  group.run_until(0.5);
  return logs->merged() + "events=" +
         std::to_string(group.events_executed()) +
         " cross=" + std::to_string(group.cross_events());
}

TEST(ShardGroup, FixedShardCountReplaysByteIdentically) {
  const std::string first = ticker_timeline();
  const std::string second = ticker_timeline();
  EXPECT_GT(first.size(), 100U);
  EXPECT_EQ(first, second)
      << "same shard count, different merged timeline: the cross-shard "
         "merge is not deterministic";
}

/// Pins the calling thread (and the threads it starts) to one CPU of its
/// current affinity set; restores the original set on destruction.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    pinned_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    if (!pinned_) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) {
      sched_setaffinity(0, sizeof saved_, &saved_);
    }
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;
  [[nodiscard]] bool pinned() const noexcept { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

TEST(ShardGroup, PinnedToOneCpuParksAndReplaysTheUnpinnedRun) {
  const std::string unpinned = ticker_timeline();
  std::string pinned;
  {
    PinToOneCpu pin;
    ASSERT_TRUE(pin.pinned());
    ShardGroup probe{4, {.lookahead = kLookahead}};
    EXPECT_FALSE(probe.spins()) << "one CPU for four shards must park";
    pinned = ticker_timeline();
  }
  EXPECT_EQ(pinned, unpinned);
}

// Writes `text` to `path`, creating its directories.
void write_file(const std::filesystem::path& path, const std::string& text) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream(path) << text;
}

// A CFS quota caps the CPUs a group may spin on: a container limited to two
// CPUs' worth of time still lists every host CPU in its affinity set.  The
// cgroup listing and hierarchy here are a fake tree in a scratch directory.
TEST(ShardGroup, CgroupQuotaCapsTheCpusAGroupSpinsOn) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "shard_cgroup_quota";
  std::filesystem::remove_all(root);
  const std::string mount = (root / "fs").string();
  const std::string list = (root / "cgroup").string();
  const auto quota = [&](const std::string& listing) {
    write_file(list, listing);
    return cgroup_quota_cpus(list, mount);
  };

  // cgroup v2: the tightest level wins, "max" sets none, quotas round up.
  write_file(root / "fs/job/cpu.max", "250000 100000\n");
  write_file(root / "fs/job/step/cpu.max", "max 100000\n");
  EXPECT_EQ(quota("0::/job/step\n"), 3U);
  write_file(root / "fs/job/step/cpu.max", "100000 100000\n");
  EXPECT_EQ(quota("0::/job/step\n"), 1U);
  EXPECT_EQ(quota("0::/\n"), 0U);  // the root has no cpu.max

  // cgroup v1: the cpu controller's hierarchy, -1 sets none.
  write_file(root / "fs/cpu/ctr/cpu.cfs_quota_us", "200000\n");
  write_file(root / "fs/cpu/ctr/cpu.cfs_period_us", "100000\n");
  EXPECT_EQ(quota("4:memory:/ctr\n3:cpu,cpuacct:/ctr\n"), 2U);
  EXPECT_EQ(quota("4:memory:/ctr\n"), 0U);  // no cpu controller listed
  write_file(root / "fs/cpu/ctr/cpu.cfs_quota_us", "-1\n");
  EXPECT_EQ(quota("3:cpu:/ctr\n"), 0U);

  EXPECT_EQ(cgroup_quota_cpus((root / "missing").string(), mount), 0U);
  std::filesystem::remove_all(root);

  // The rule itself, on this machine.
  const std::size_t cpus = usable_cpus();
  ASSERT_GE(cpus, 1U);
  for (const std::size_t shards : {1U, 2U, 4U, 64U}) {
    const ShardGroup group{shards, {.lookahead = kLookahead}};
    EXPECT_EQ(group.spins(), shards > 1 && cpus >= shards) << shards;
  }
}

TEST(ShardGroup, RepeatedRunUntilWindowsCompose) {
  ShardGroup group{2, {.lookahead = kLookahead}};
  int fired = 0;
  group.engine(0).schedule_at(0.2, [&group, &fired] {
    ++fired;
    group.post(0, 1, 0.2 + kLookahead, [&fired] { ++fired; });
  });
  group.engine(1).schedule_at(0.9, [&fired] { ++fired; });
  // A post made in the last epoch of the first window (at its end, 0.5)
  // lands after that window and must arrive exactly once, in the next.
  int late = 0;
  group.engine(0).schedule_at(0.5, [&group, &late] {
    group.post(0, 1, 0.5 + kLookahead, [&late] { ++late; });
  });
  group.run_until(0.5);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(late, 0);
  group.run_until(1.0);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(late, 1);
  EXPECT_EQ(group.cross_events(), 2U);
  EXPECT_DOUBLE_EQ(group.engine(0).now(), 1.0);
  EXPECT_DOUBLE_EQ(group.engine(1).now(), 1.0);
}

TEST(ShardGroup, RejectsZeroShardsAndZeroLookahead) {
  EXPECT_THROW(ShardGroup(0, {}), std::invalid_argument);
  EXPECT_THROW(ShardGroup(2, {.lookahead = 0.0}), std::invalid_argument);
  EXPECT_THROW(ShardGroup(2, {.lookahead = -1.0}), std::invalid_argument);
}

// Dense concurrent load; primarily a ThreadSanitizer target (the CI TSan job
// runs this label) — every shard hammers its own engine while cross posts
// flow through every mailbox pair.
TEST(ShardGroup, ConcurrentStressStaysCoherent) {
  ShardGroup group{4, {.lookahead = kLookahead}};
  std::vector<std::uint64_t> local(4, 0);
  std::vector<std::uint64_t> remote(4, 0);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    struct Worker {
      ShardGroup* group;
      std::uint64_t* local;
      std::uint64_t* remote;
      std::size_t shard;
      void spin(int remaining) const {
        ++*local;
        const std::size_t dst = (shard + 1) % 4;
        Worker self = *this;
        group->post(shard, dst, group->engine(shard).now() + kLookahead,
                    [self] { ++self.remote[0]; });
        if (remaining > 0) {
          group->engine(shard).schedule_after(
              kLookahead / 4, [self, remaining] { self.spin(remaining - 1); });
        }
      }
    };
    Worker worker{&group, &local[shard], &remote[(shard + 1) % 4], shard};
    group.engine(shard).schedule_at(0.0, [worker] { worker.spin(500); });
  }
  group.run_until(2.0);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(local[shard], 501U);
    EXPECT_EQ(remote[shard], 501U);
  }
  EXPECT_EQ(group.cross_events(), 4U * 501U);
}

TEST(ShardGroup, ForEachShardRunsOnShardThreadsAndRethrows) {
  ShardGroup group{4, {.lookahead = kLookahead}};
  std::vector<std::thread::id> ids(4);
  const auto splits = group.for_each_shard(
      [&ids](std::size_t shard) { ids[shard] = std::this_thread::get_id(); });
  ASSERT_EQ(splits.size(), 4U);
  EXPECT_EQ(ids[0], std::this_thread::get_id());  // shard 0: the caller
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      EXPECT_NE(ids[a], ids[b]);
    }
  }

  // Shards 1 and 3 throw; every body still finishes, and the lowest
  // throwing shard's exception reaches the caller.
  std::vector<int> ran(4, 0);
  try {
    group.for_each_shard([&ran](std::size_t shard) {
      ran[shard] = 1;
      if (shard % 2 == 1) {
        throw std::runtime_error("shard " + std::to_string(shard));
      }
    });
    ADD_FAILURE() << "for_each_shard swallowed the exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "shard 1");
  }
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1}));

  // The group is still usable: the same threads run the next epochs.
  int fired = 0;
  group.engine(0).schedule_at(0.1, [&group, &fired] {
    group.post(0, 2, 0.1 + kLookahead, [&fired] { ++fired; });
  });
  group.run_until(1.0);
  EXPECT_EQ(fired, 1);
}

// Resets the worker-start seam however the test exits.
struct FailWorkerStart {
  explicit FailWorkerStart(std::size_t shard) {
    ShardGroup::fail_worker_start_for_testing(shard);
  }
  ~FailWorkerStart() { ShardGroup::fail_worker_start_for_testing(0); }
  FailWorkerStart(const FailWorkerStart&) = delete;
  FailWorkerStart& operator=(const FailWorkerStart&) = delete;
};

// A worker that cannot start must not leave the others waiting at a barrier
// one arrival short: the call throws with no worker running, changes
// nothing, and the next call starts every worker afresh.
TEST(ShardGroup, WorkerStartFailureLeavesNoWorkerAndRetries) {
  ShardGroup group{4, {.lookahead = kLookahead}};
  int fired = 0;
  group.post(0, 3, 0.5, [&fired] { ++fired; });  // a setup post
  {
    const FailWorkerStart fail{3};  // shards 1 and 2 start, 3 does not
    std::vector<int> ran(4, 0);
    EXPECT_THROW(
        group.for_each_shard([&ran](std::size_t shard) { ran[shard] = 1; }),
        std::system_error);
    EXPECT_EQ(ran, (std::vector<int>{0, 0, 0, 0}));
    EXPECT_FALSE(group.threaded());
    EXPECT_THROW(group.run_until(1.0), std::system_error);
    EXPECT_FALSE(group.threaded());
    EXPECT_EQ(group.epochs(), 0U);
    EXPECT_EQ(group.cross_events(), 0U);  // the setup post is still queued
  }
  std::vector<std::thread::id> ids(4);
  group.for_each_shard(
      [&ids](std::size_t shard) { ids[shard] = std::this_thread::get_id(); });
  EXPECT_TRUE(group.threaded());
  for (std::size_t shard = 1; shard < 4; ++shard) {
    EXPECT_NE(ids[shard], ids[0]);
  }
  group.run_until(1.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(group.cross_events(), 1U);
}

TEST(ShardGroup, StatsSplitEveryShardsBusyAndWaitTime) {
  ShardGroup group{2, {.lookahead = kLookahead}};
  for (std::size_t shard = 0; shard < 2; ++shard) {
    for (int i = 0; i < 50; ++i) {
      const double at = 0.01 * i + 0.001 * static_cast<double>(shard);
      group.engine(shard).schedule_at(at, [&group, shard, at] {
        group.post(shard, 1 - shard, at + kLookahead, [] {});
      });
    }
  }
  group.run_until(1.0);
  const auto stats = group.stats();
  ASSERT_EQ(stats.size(), 2U);
  std::uint64_t cross = 0;
  for (const auto& shard : stats) {
    EXPECT_EQ(shard.epochs, group.epochs());
    EXPECT_GT(shard.run.busy_s, 0.0);
    EXPECT_GE(shard.run.wait_s, 0.0);
    cross += shard.cross_in;
  }
  EXPECT_EQ(cross, group.cross_events());
  EXPECT_EQ(cross, 100U);
}

TEST(EngineNextEventAt, PeeksEarliestLiveEvent) {
  Engine engine;
  EXPECT_TRUE(std::isinf(engine.next_event_at()));
  auto first = engine.schedule_at(2.0, [] {});
  engine.schedule_at(5.0, [] {});
  EXPECT_DOUBLE_EQ(engine.next_event_at(), 2.0);
  first.cancel();
  EXPECT_DOUBLE_EQ(engine.next_event_at(), 5.0);
  engine.run_until(10.0);
  EXPECT_TRUE(std::isinf(engine.next_event_at()));
}

}  // namespace
}  // namespace ars::sim

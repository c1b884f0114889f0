// ShardedCluster determinism and cross-shard behavior.
//
// The three determinism contracts the sharded core promises:
//   (a) shards=1 runs inline (no threads, no epochs) and repeats
//       byte-identically — the legacy single-engine composition;
//   (b) a fixed shard count repeats byte-identically across runs, in both
//       the hierarchical and the flat (cross-shard-heavy) registry shapes;
//   (c) chaos (seeded message loss, crash windows) replays byte-identically
//       under N shards for the same seed and diverges for a different one.
//
// These tests also double as the obs-confinement regression: every N-shard
// run writes per-shard tracers/metrics from worker threads and folds them
// with merged_jsonl()/merge_from(), so the sharding-labelled TSan CI job
// race-checks exactly this merge.

#include "ars/core/sharded_cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace ars {
namespace {

core::ShardedClusterOptions small_options() {
  core::ShardedClusterOptions options;
  options.hosts = 16;
  options.duration = 100.0;  // past the policy warmup: consults happen
  options.overloaded_fraction = 0.10;
  options.busy_fraction = 0.25;
  return options;
}

core::ShardedClusterReport run_once(const core::ShardedClusterOptions& o) {
  core::ShardedCluster cluster(o);
  return cluster.run();
}

void expect_identical(const core::ShardedClusterReport& a,
                      const core::ShardedClusterReport& b) {
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.merged_trace, b.merged_trace);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.shard_events, b.shard_events);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.cross_messages, b.cross_messages);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.consults, b.consults);
  EXPECT_EQ(a.registered_hosts, b.registered_hosts);
}

TEST(ShardedCluster, SingleShardRunsInlineAndRepeatsByteIdentically) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 1;
  options.hierarchical = false;

  core::ShardedCluster cluster(options);
  const core::ShardedClusterReport a = cluster.run();
  EXPECT_FALSE(cluster.group().threaded());  // contract (a): inline path
  EXPECT_EQ(a.epochs, 0u);
  EXPECT_EQ(a.cross_messages, 0u);
  EXPECT_EQ(a.registered_hosts, options.hosts);
  EXPECT_GT(a.consults, 0);
  EXPECT_GT(a.trace_events, 0u);

  expect_identical(a, run_once(options));
}

TEST(ShardedCluster, HierarchicalFourShardsRepeatByteIdentically) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.hosts = 32;
  options.hierarchical = true;

  core::ShardedCluster cluster(options);
  const core::ShardedClusterReport a = cluster.run();
  EXPECT_GT(a.epochs, 0u);
  // Heartbeats stay shard-local; the children's periodic health reports to
  // the root are the only fabric traffic.
  EXPECT_GT(a.cross_messages, 0u);
  EXPECT_EQ(a.registered_hosts, options.hosts);
  EXPECT_GT(a.consults, 0);
  EXPECT_EQ(a.shard_events.size(), 4u);

  expect_identical(a, run_once(options));
}

TEST(ShardedCluster, FlatModeHeartbeatsCrossTheFabric) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.duration = 50.0;
  options.hierarchical = false;

  core::ShardedCluster cluster(options);
  const core::ShardedClusterReport a = cluster.run();
  // Three of the four shards reach the root registry through the router.
  EXPECT_GT(a.cross_messages, 0u);
  EXPECT_EQ(a.registered_hosts, options.hosts);
  EXPECT_EQ(&cluster.shard_registry(2), &cluster.root_registry());

  expect_identical(a, run_once(options));
}

TEST(ShardedCluster, ChaosReplayIsSeedStableUnderShards) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.duration = 60.0;
  options.hierarchical = false;  // most datagrams face the loss policy
  options.message_loss = 0.25;
  options.loss_from = 5.0;
  options.loss_until = 40.0;
  options.seed = 7;

  const core::ShardedClusterReport a = run_once(options);
  EXPECT_GT(a.dropped, 0u);
  expect_identical(a, run_once(options));  // contract (c): same seed

  core::ShardedClusterOptions reseeded = options;
  reseeded.seed = 8;
  const core::ShardedClusterReport c = run_once(reseeded);
  EXPECT_NE(a.merged_trace, c.merged_trace);
}

TEST(ShardedCluster, CrashWindowSilencesMonitorsDeterministically) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 2;
  options.hosts = 8;
  options.duration = 80.0;
  options.crash_hosts = 2;  // the first two hosts of each shard
  options.crash_at = 20.0;
  options.crash_until = 45.0;

  const core::ShardedClusterReport a = run_once(options);
  expect_identical(a, run_once(options));

  core::ShardedClusterOptions healthy = options;
  healthy.crash_hosts = 0;
  const core::ShardedClusterReport c = run_once(healthy);
  EXPECT_NE(a.merged_trace, c.merged_trace);
}

// Construct -> run -> destroy with four shards in both registry shapes: the
// build and teardown run on the shard threads (a TSan target, like the
// determinism tests above).
TEST(ShardedCluster, FourShardLifecycleRunsOnTheShardThreads) {
  for (const bool hierarchical : {true, false}) {
    core::ShardedClusterOptions options = small_options();
    options.shards = 4;
    options.hosts = 32;
    options.duration = 40.0;
    options.hierarchical = hierarchical;

    std::vector<std::thread::id> builders(4);
    core::ShardedCluster cluster(options, [&builders](std::size_t shard) {
      builders[shard] = std::this_thread::get_id();
    });
    EXPECT_EQ(builders[0], std::this_thread::get_id());
    for (std::size_t shard = 1; shard < 4; ++shard) {
      EXPECT_NE(builders[shard], builders[0]);
    }
    EXPECT_EQ(cluster.build_split().size(), 4u);

    const core::ShardedClusterReport report = cluster.run();
    EXPECT_EQ(report.registered_hosts, options.hosts);
    const auto stats = cluster.group().stats();
    ASSERT_EQ(stats.size(), 4u);
    for (const auto& shard : stats) {
      EXPECT_EQ(shard.epochs, report.epochs);
    }
    EXPECT_EQ(cluster.teardown().size(), 4u);
    EXPECT_TRUE(cluster.teardown().empty());  // already torn down
    EXPECT_THROW(cluster.run(), std::logic_error);
    EXPECT_THROW((void)cluster.root_registry(), std::logic_error);
    EXPECT_THROW((void)cluster.shard_registry(1), std::logic_error);
    EXPECT_THROW((void)cluster.router(), std::logic_error);
    EXPECT_THROW((void)cluster.network(0), std::logic_error);
  }
}

// A shard whose build throws must not hang the other shards or leak what
// they built (the ASan job's leak checker covers the second half).
TEST(ShardedCluster, BuildFailureOnOneShardSurfacesFromTheConstructor) {
  core::ShardedClusterOptions options = small_options();
  options.shards = 4;
  options.hosts = 32;
  std::vector<int> built(4, 0);
  EXPECT_THROW(
      core::ShardedCluster(options,
                           [&built](std::size_t shard) {
                             built[shard] = 1;
                             if (shard == 1) {
                               throw std::runtime_error("shard 1 build");
                             }
                           }),
      std::runtime_error);
  EXPECT_EQ(built, (std::vector<int>{1, 1, 1, 1}));

  // The shard threads cannot start: the constructor throws instead of
  // waiting for them, and no shard body ran.
  std::fill(built.begin(), built.end(), 0);
  sim::ShardGroup::fail_worker_start_for_testing(2);
  EXPECT_THROW(core::ShardedCluster(
                   options, [&built](std::size_t shard) { built[shard] = 1; }),
               std::system_error);
  sim::ShardGroup::fail_worker_start_for_testing(0);
  EXPECT_EQ(built, (std::vector<int>{0, 0, 0, 0}));

  options.shards = 1;  // the inline path fails the same way
  EXPECT_THROW(core::ShardedCluster(options,
                                    [](std::size_t) {
                                      throw std::runtime_error("inline");
                                    }),
               std::runtime_error);
}

TEST(ShardedClusterPlan, ParsesOverridesAndIgnoresUnknownKeys) {
  const std::string text = R"({
    "name": "huge", "hosts": 1000, "shards": 8, "duration": 30.5,
    "cross_latency": 0.01, "hierarchical": false, "delta_heartbeats": false,
    "seed": 42, "busy_fraction": 0.2, "overloaded_fraction": 0.1,
    "message_loss": 0.05, "loss_from": 1.0, "loss_until": 2.0,
    "crash_hosts": 3, "crash_at": 4.0, "crash_until": 5.0,
    "tracing": false, "trace_capacity": 64,
    "generator": "scripts/gen_cluster_plan.py"
  })";
  const auto loaded = core::load_cluster_plan(text);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().to_string();
  const core::ShardedClusterOptions& o = loaded.value();
  EXPECT_EQ(o.name, "huge");
  EXPECT_EQ(o.hosts, 1000);
  EXPECT_EQ(o.shards, 8);
  EXPECT_DOUBLE_EQ(o.duration, 30.5);
  EXPECT_DOUBLE_EQ(o.cross_latency, 0.01);
  EXPECT_FALSE(o.hierarchical);
  EXPECT_FALSE(o.delta_heartbeats);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_DOUBLE_EQ(o.message_loss, 0.05);
  EXPECT_EQ(o.crash_hosts, 3);
  EXPECT_FALSE(o.tracing);
  EXPECT_EQ(o.trace_capacity, 64u);
}

TEST(ShardedClusterPlan, RejectsMalformedPlans) {
  EXPECT_FALSE(core::load_cluster_plan("not json").has_value());
  EXPECT_FALSE(core::load_cluster_plan("[1,2]").has_value());
  EXPECT_FALSE(core::load_cluster_plan(R"({"shards": 0})").has_value());
  EXPECT_FALSE(core::load_cluster_plan(R"({"hosts": 0})").has_value());

  // Integer fields reject non-integral and out-of-range numbers instead of
  // casting them (parse only: a cluster is never built from these).
  const auto error_code = [](const char* text) {
    const auto loaded = core::load_cluster_plan(text);
    return loaded.has_value() ? std::string("accepted") : loaded.error().code;
  };
  EXPECT_EQ(error_code(R"({"shards": 1e300})"), "plan.shards");
  EXPECT_EQ(error_code(R"({"shards": 2.5})"), "plan.shards");
  EXPECT_EQ(error_code(R"({"hosts": 2.5})"), "plan.hosts");
  EXPECT_EQ(error_code(R"({"hosts": 3000000000})"), "plan.hosts");
  EXPECT_EQ(error_code(R"({"crash_hosts": -1})"), "plan.crash_hosts");
  EXPECT_EQ(error_code(R"({"crash_hosts": 0.5})"), "plan.crash_hosts");
  EXPECT_EQ(error_code(R"({"trace_capacity": -1})"), "plan.trace_capacity");
  EXPECT_EQ(error_code(R"({"trace_capacity": 1e300})"),
            "plan.trace_capacity");
  EXPECT_EQ(error_code(R"({"seed": -1})"), "plan.seed");
  EXPECT_EQ(error_code(R"({"seed": 1.5})"), "plan.seed");
  EXPECT_EQ(error_code(R"({"seed": 1e20})"), "plan.seed");

  // Whole numbers at the edges of their fields still parse.
  const auto edges = core::load_cluster_plan(
      R"({"seed": 9007199254740992, "crash_hosts": 0, "trace_capacity": 0,
          "hosts": 2147483647})");
  ASSERT_TRUE(edges.has_value()) << edges.error().to_string();
  EXPECT_EQ(edges.value().seed, 9007199254740992u);
  EXPECT_EQ(edges.value().trace_capacity, 0u);
  EXPECT_EQ(edges.value().hosts, 2147483647);
}

TEST(ShardedClusterPlan, DefaultsSurviveAnEmptyPlan) {
  const auto loaded = core::load_cluster_plan("{}");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded.value().shards, 1);
  EXPECT_EQ(loaded.value().hosts, 64);
  EXPECT_TRUE(loaded.value().hierarchical);
}

}  // namespace
}  // namespace ars

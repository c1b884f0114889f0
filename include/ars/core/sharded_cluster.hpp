#pragma once
// ShardedCluster: the 100k-host scaling scenario on the parallel DES core.
//
// Assembles one sim::ShardGroup (one Engine per worker thread), one
// net::Network + obs::Tracer + obs::MetricsRegistry per shard (single-writer
// confinement), a block-partitioned fleet of monitored workstations, and the
// registry tier:
//
//   * hierarchical (default): each shard runs a child registry ("reg<s>",
//     port 5100) for its own hosts; the children report health to a root
//     registry ("root", port 5000, shard 0) over the cross-shard fabric.
//     This mirrors the paper's §3 hierarchical-domain deployment and keeps
//     heartbeat traffic shard-local — only periodic HealthReportMsg crosses.
//   * flat: every monitor heartbeats the single root registry directly, so
//     most traffic crosses shards — the determinism / router stress shape.
//
// Host load is static and deterministic: each host's LoadAverage is seeded
// via set_ambient_runnable() and sampling is never started, so a configured
// fraction of hosts sits permanently overloaded (consulting the registry at
// the policy's overloaded frequency) without any per-host CPU events.  That
// keeps the per-event cost at 100k hosts down to heartbeat + registry work,
// which is exactly what the scaling benchmark wants to measure.
//
// Determinism: for a fixed shard count, runs are byte-identical — every
// stochastic choice draws from shard-salted xoshiro streams, cross-shard
// delivery is merge-sorted by (timestamp, source shard, sequence), and the
// merged trace orders by (timestamp, shard, recording order).  With
// shards=1 the group runs inline on the caller thread (no threads, no
// epochs), matching the legacy single-engine composition bit for bit.
//
// Thread contract: construct, run(), and inspect from one thread.  Each
// shard's hosts, network, registries, monitors, tracer and metrics are built
// and destroyed on that shard's own thread (ShardGroup::for_each_shard), and
// worker threads touch only their own shard's state, there and inside
// ShardGroup::run_until.  Router wiring runs serially after the build.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ars/host/host.hpp"
#include "ars/monitor/monitor.hpp"
#include "ars/net/network.hpp"
#include "ars/net/shard_router.hpp"
#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"
#include "ars/registry/registry.hpp"
#include "ars/sim/shard.hpp"
#include "ars/support/expected.hpp"
#include "ars/support/rng.hpp"

namespace ars::core {

struct ShardedClusterOptions {
  std::string name = "sharded-cluster";
  int shards = 1;
  int hosts = 64;
  /// Virtual seconds to simulate.
  double duration = 120.0;
  /// Inter-domain fabric latency (also the conservative lookahead bound).
  double cross_latency = 0.005;
  /// Child registry per shard under a root (see header comment); false
  /// sends every heartbeat cross-shard to the single root registry.
  bool hierarchical = true;
  /// Monitors coalesce unchanged-state heartbeats (UpdateBatchMsg).
  bool delta_heartbeats = true;
  /// Base seed; each shard's fault stream is salted with its shard index.
  std::uint64_t seed = 1;
  /// Fractions of the fleet pinned busy / overloaded (rest stay free).
  double busy_fraction = 0.30;
  double overloaded_fraction = 0.05;
  /// Message-loss chaos: drop probability inside [loss_from, loss_until).
  double message_loss = 0.0;
  double loss_from = 0.0;
  double loss_until = 0.0;
  /// Crash chaos: the first `crash_hosts` hosts of every shard stop their
  /// monitors (host goes silent; lease expires) during [crash_at,
  /// crash_until).
  int crash_hosts = 0;
  double crash_at = 0.0;
  double crash_until = 0.0;
  /// Per-shard trace ring capacity; tracing off makes bench runs cheaper.
  bool tracing = true;
  std::size_t trace_capacity = std::size_t{1} << 12;
};

/// Parse a cluster-plan JSON document (scripts/gen_cluster_plan.py writes
/// them; plans/huge-cluster.json is the committed 100k-host instance).
/// Unknown keys are ignored so plans stay forward-compatible.
[[nodiscard]] support::Expected<ShardedClusterOptions> load_cluster_plan(
    const std::string& json_text);

/// What one run() observed — everything the determinism tests compare and
/// the scaling bench reports.
struct ShardedClusterReport {
  std::uint64_t events = 0;          // engine events, summed over shards
  std::vector<std::uint64_t> shard_events;
  std::uint64_t epochs = 0;          // 0 on the inline 1-shard path
  std::uint64_t cross_messages = 0;  // datagrams the router forwarded
  std::uint64_t dropped = 0;         // datagrams dropped (chaos + unbound)
  int consults = 0;                  // overload consults sent by monitors
  int registered_hosts = 0;          // live leases at the monitors' registry
  double final_now = 0.0;            // max engine clock after the run
  std::uint64_t trace_hash = 0;      // FNV-1a of merged_trace
  std::size_t trace_events = 0;
  std::string merged_trace;          // merged_jsonl over the shard tracers
  std::string metrics_json;          // merged MetricsRegistry, to_json()
};

class ShardedCluster {
 public:
  /// Runs on each shard's own thread right after that shard is built (to
  /// install per-shard instrumentation, say).  A throw aborts construction
  /// like any other build failure.
  using ShardHook = std::function<void(std::size_t shard)>;

  /// Builds every shard in parallel.  If any shard's build throws, or the
  /// shard threads cannot start (std::system_error), the shards already
  /// built are destroyed and the exception propagates.
  explicit ShardedCluster(ShardedClusterOptions options,
                          const ShardHook& after_build = {});
  ~ShardedCluster();
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  /// Simulate `options().duration` virtual seconds and collect the report.
  /// Call once per instance.
  ShardedClusterReport run();

  [[nodiscard]] const ShardedClusterOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] sim::ShardGroup& group() noexcept { return group_; }
  [[nodiscard]] net::ShardRouter& router() {
    built(0, "router");
    return *router_;
  }
  [[nodiscard]] net::Network& network(std::size_t shard) {
    return *built(shard, "network").net;
  }
  [[nodiscard]] obs::Tracer& tracer(std::size_t shard) {
    return *built(shard, "tracer").tracer;
  }
  /// The root registry ("root" host, shard 0).
  [[nodiscard]] registry::Registry& root_registry();
  /// The registry the shard's monitors report to (the child in
  /// hierarchical mode, the root otherwise).
  [[nodiscard]] registry::Registry& shard_registry(std::size_t shard);

  /// Per-shard wall-clock split of the parallel build.
  [[nodiscard]] const std::vector<sim::ShardGroup::Split>& build_split()
      const noexcept {
    return build_split_;
  }
  /// Destroy every shard on its own thread and return the per-shard split
  /// (empty if the shard threads could not start and the shards were
  /// destroyed on this one); the destructor does this if it was not done.
  /// Afterwards only options(), group() and build_split() may be used: the
  /// other accessors and run() throw std::logic_error.
  std::vector<sim::ShardGroup::Split> teardown();

 private:
  /// Deterministic message-loss injector, one per shard so the random
  /// stream is single-writer and independent of other shards' traffic.
  class LossPolicy final : public net::FaultPolicy {
   public:
    LossPolicy(sim::Engine& engine, double probability, double from,
               double until, std::uint64_t seed)
        : engine_(&engine),
          probability_(probability),
          from_(from),
          until_(until),
          rng_(seed) {}

    PostVerdict on_post(const net::Message&) override {
      PostVerdict verdict;
      const double now = engine_->now();
      if (now >= from_ && now < until_ && rng_.uniform() < probability_) {
        verdict.drop = true;
      }
      return verdict;
    }
    double bandwidth_factor(const std::string&, const std::string&) override {
      return 1.0;
    }

   private:
    sim::Engine* engine_;
    double probability_;
    double from_;
    double until_;
    support::Rng rng_;
  };

  // Declaration order is destruction order in reverse: engines (group_)
  // die last; within a shard, hosts outlive the network, which outlives
  // the monitors and registries that reference it.
  struct Shard {
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::unique_ptr<LossPolicy> faults;
    std::vector<std::unique_ptr<host::Host>> hosts;
    std::unique_ptr<net::Network> net;
    std::vector<std::unique_ptr<monitor::Monitor>> monitors;
    std::unique_ptr<registry::Registry> registry;  // child / flat root
    std::unique_ptr<registry::Registry> root;      // shard 0 only
  };

  void build_shard(std::size_t shard);
  /// The shard's state; std::logic_error naming `caller` after teardown().
  Shard& built(std::size_t shard, const char* caller);

  ShardedClusterOptions options_;
  sim::ShardGroup group_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<net::ShardRouter> router_;
  std::vector<sim::ShardGroup::Split> build_split_;
  bool ran_ = false;
};

}  // namespace ars::core

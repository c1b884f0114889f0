// Registry decision path at cluster scale (google-benchmark).
//
// Builds a registry with 256/1024/4096 registered hosts (~5% free — a busy
// cluster, the regime the state index targets), drives it through deliver()
// so no network simulation is paid for, and times:
//
//   * the scheduling decision on the indexed path (walks the free list,
//     O(eligible)) vs the legacy full-table scan (O(hosts)) — the gap is the
//     tentpole speedup and must stay ~linear in the eligible count;
//   * heartbeat churn: full UpdateMsg state flips (index relink cost) and
//     batched lease renewals (UpdateBatchMsg);
//   * cold registration storms (table + index build).

#include <benchmark/benchmark.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ars/core/sharded_cluster.hpp"
#include "ars/host/host.hpp"
#include "ars/net/network.hpp"
#include "ars/registry/registry.hpp"
#include "ars/rules/policy.hpp"
#include "ars/sim/engine.hpp"
#include "ars/sim/shard.hpp"
#include "ars/xmlproto/messages.hpp"

#include "common.hpp"

namespace {

using namespace ars;

std::string host_name(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "h%05d", i);
  return buf;
}

xmlproto::RegisterMsg register_msg(const std::string& name) {
  xmlproto::RegisterMsg reg;
  reg.info.host = name;
  reg.info.memory_bytes = 128ULL << 20;
  reg.info.disk_bytes = 20ULL << 30;
  reg.info.cpu_speed = 1.0;
  reg.monitor_port = 5999;
  reg.commander_port = 6000;
  return reg;
}

xmlproto::UpdateMsg update_msg(const std::string& name,
                               rules::SystemState state) {
  xmlproto::UpdateMsg update;
  update.status.host = name;
  update.status.state = std::string(rules::to_string(state));
  update.status.load1 = state == rules::SystemState::kFree ? 0.2 : 1.8;
  update.status.processes = 60;
  update.status.timestamp = 0.0;
  return update;
}

/// A registry with `hosts` registered workstations, every 20th one free
/// (~5%), the rest busy.  The source host h00000 is busy — a consult from it
/// never offers it as its own destination.
struct ScaledRegistry {
  sim::Engine engine;
  net::Network net{engine};
  std::unique_ptr<host::Host> hub;
  std::unique_ptr<registry::Registry> reg;

  ScaledRegistry(int hosts, bool legacy_scan) {
    host::HostSpec spec;
    spec.name = "hub";
    hub = std::make_unique<host::Host>(engine, spec);
    net.attach(*hub);
    registry::Registry::Config config;
    config.policy = rules::paper_policy2();
    config.audit = registry::AuditMode::kOff;
    config.use_legacy_scan = legacy_scan;
    // Process-wide obs sinks: null (and therefore free) unless an export
    // was requested with --trace-out/--metrics-out.
    config.tracer = bench::obs_trace_sink();
    config.metrics = bench::obs_metrics_sink();
    if (config.tracer != nullptr) {
      config.tracer->set_clock([this] { return engine.now(); });
    }
    reg = std::make_unique<registry::Registry>(*hub, net, config);
    for (int i = 0; i < hosts; ++i) {
      const std::string name = host_name(i);
      reg->deliver(register_msg(name), name);
      const auto state = i % 20 == 7 ? rules::SystemState::kFree
                                     : rules::SystemState::kBusy;
      reg->deliver(update_msg(name, state), name);
    }
  }
};

void decision_bench(benchmark::State& state, bool legacy_scan) {
  const int hosts = static_cast<int>(state.range(0));
  ScaledRegistry scaled{hosts, legacy_scan};
  const std::string source = host_name(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scaled.reg->choose_destination(source, ""));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hosts"] = hosts;
  state.counters["free"] =
      static_cast<double>(scaled.reg->indexed_count(rules::SystemState::kFree));
}

void BM_RegistryDecisionIndexed(benchmark::State& state) {
  decision_bench(state, false);
}
BENCHMARK(BM_RegistryDecisionIndexed)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RegistryDecisionLegacyScan(benchmark::State& state) {
  decision_bench(state, true);
}
BENCHMARK(BM_RegistryDecisionLegacyScan)->Arg(256)->Arg(1024)->Arg(4096);

// Heartbeat churn: each delivered UpdateMsg flips a rotating host between
// busy and free — the index must relink the entry in place, O(1) for the
// busy list and an ordered insert on the free list.
void BM_RegistryHeartbeatChurn(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  ScaledRegistry scaled{hosts, false};
  int i = 0;
  bool to_free = true;
  for (auto _ : state) {
    const std::string name = host_name(i);
    scaled.reg->deliver(
        update_msg(name, to_free ? rules::SystemState::kFree
                                 : rules::SystemState::kBusy),
        name);
    i = (i + 13) % hosts;
    if (i < 13) {
      to_free = !to_free;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (!scaled.reg->index_consistent()) {
    state.SkipWithError("state index inconsistent after churn");
  }
}
BENCHMARK(BM_RegistryHeartbeatChurn)->Arg(1024)->Arg(4096);

// Batched lease renewals: one UpdateBatchMsg renewing 64 known hosts — the
// delta-heartbeat path a monitor aggregate would take.
void BM_RegistryLeaseRenewalBatch(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  ScaledRegistry scaled{hosts, false};
  xmlproto::UpdateBatchMsg batch;
  for (int i = 0; i < 64; ++i) {
    xmlproto::LeaseRenewal renewal;
    renewal.host = host_name((i * 17) % hosts);
    renewal.state = "busy";
    batch.renewals.push_back(std::move(renewal));
  }
  for (auto _ : state) {
    scaled.reg->deliver(batch, "hub");
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_RegistryLeaseRenewalBatch)->Arg(1024);

// Cold registration storm: the whole table (entries + index) built from
// scratch — the soft-state rebuild after a registry restart.
void BM_RegistryRegisterStorm(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ScaledRegistry scaled{hosts, false};
    benchmark::DoNotOptimize(scaled.reg->hosts().size());
  }
  state.SetItemsProcessed(state.iterations() * hosts);
}
BENCHMARK(BM_RegistryRegisterStorm)->Arg(256)->Arg(1024);

// -- sharded full-scenario scaling (the parallel DES core) -------------------
//
// Unlike the deliver()-driven microbenches above, these run the complete
// simulation — engines, networks, monitors, registries — through
// core::ShardedCluster, so they measure what the multi-threaded core buys
// end to end.  Throughput is engine events per wall second; the
// shards4_vs_1 baseline ratio in BENCH_micro.json tracks the speedup
// (wired warn-only in CI: containers pin cores unpredictably).
//
// Epochs are not huge: the 5 ms fabric lookahead cuts the 20k-host run into
// ~6.6k epochs of tens of microseconds of wall time each, so per-epoch sync
// cost matters.  The busy_ms / wait_ms / wait_share counters split every
// shard's run() time into engine work and barrier time (summed over
// shards, per iteration); build_* and teardown_* split the parallel build
// and teardown the same way.
//
// --cluster-plan=FILE swaps in a committed plan (plans/huge-cluster.json is
// the 100k-host instance); --shards=N overrides the per-arg shard sweep.

core::ShardedClusterOptions scenario_options(int hosts, double duration) {
  core::ShardedClusterOptions options;
  options.hosts = hosts;
  options.duration = duration;
  options.tracing = false;  // measure the core, not the trace ring
  const std::string& plan_path = bench::bench_cluster_plan();
  if (!plan_path.empty()) {
    std::ifstream in(plan_path);
    std::stringstream text;
    text << in.rdbuf();
    auto loaded = core::load_cluster_plan(text.str());
    if (loaded.has_value()) {
      options = std::move(loaded.value());
    } else {
      std::fprintf(stderr, "bad --cluster-plan %s: %s\n", plan_path.c_str(),
                   loaded.error().to_string().c_str());
    }
  }
  return options;
}

void sharded_cluster_bench(benchmark::State& state, int hosts,
                           double duration) {
  core::ShardedClusterOptions options = scenario_options(hosts, duration);
  options.shards = bench::bench_shards() > 0
                       ? bench::bench_shards()
                       : static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t cross = 0;
  // Wall seconds summed over shards: engine vs barrier time during run(),
  // and own work vs waiting in the parallel build and teardown.
  sim::ShardGroup::Split run;
  sim::ShardGroup::Split build;
  sim::ShardGroup::Split teardown;
  const auto add = [](sim::ShardGroup::Split& sum,
                      const sim::ShardGroup::Split& split) {
    sum.busy_s += split.busy_s;
    sum.wait_s += split.wait_s;
  };
  for (auto _ : state) {
    core::ShardedCluster cluster(options);
    const core::ShardedClusterReport report = cluster.run();
    events += report.events;
    cross += report.cross_messages;
    benchmark::DoNotOptimize(report.registered_hosts);
    for (const auto& shard : cluster.group().stats()) {
      add(run, shard.run);
    }
    for (const auto& split : cluster.build_split()) {
      add(build, split);
    }
    for (const auto& split : cluster.teardown()) {
      add(teardown, split);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["hosts"] = options.hosts;
  state.counters["shards"] = options.shards;
  state.counters["cross_msgs"] =
      benchmark::Counter(static_cast<double>(cross));
  const auto per_iteration_ms = [&state](double seconds) {
    return benchmark::Counter(seconds * 1e3 /
                              static_cast<double>(state.iterations()));
  };
  state.counters["busy_ms"] = per_iteration_ms(run.busy_s);
  state.counters["wait_ms"] = per_iteration_ms(run.wait_s);
  state.counters["wait_share"] =
      run.busy_s + run.wait_s > 0.0
          ? run.wait_s / (run.busy_s + run.wait_s)
          : 0.0;
  state.counters["build_busy_ms"] = per_iteration_ms(build.busy_s);
  state.counters["build_wait_ms"] = per_iteration_ms(build.wait_s);
  state.counters["teardown_busy_ms"] = per_iteration_ms(teardown.busy_s);
  state.counters["teardown_wait_ms"] = per_iteration_ms(teardown.wait_s);
}

/// Shard sweep at a fixed fleet: the speedup-vs-1-shard curve.  The 35s
/// virtual horizon reaches past the registries' 30s health-report period so
/// the child->root cross-shard path is actually exercised (cross_msgs > 0).
void BM_ShardedClusterHeartbeats(benchmark::State& state) {
  sharded_cluster_bench(state, 20'000, 35.0);
}
BENCHMARK(BM_ShardedClusterHeartbeats)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

/// The ISSUE 7 exit criterion: 100k hosts across 8 shards (or --shards=N),
/// hierarchical registries, one registration + heartbeat regime.
void BM_ShardedClusterHuge(benchmark::State& state) {
  sharded_cluster_bench(state, 100'000, 35.0);
}
BENCHMARK(BM_ShardedClusterHuge)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

}  // namespace

ARS_BENCH_MAIN();

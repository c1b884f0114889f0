#include "ars/core/sharded_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <type_traits>

#include "ars/obs/json.hpp"
#include "ars/rules/policy.hpp"

namespace ars::core {

namespace {

std::size_t checked_shards(int shards) {
  if (shards < 1) {
    throw std::invalid_argument("ShardedCluster: shards must be >= 1");
  }
  return static_cast<std::size_t>(shards);
}

std::string worker_name(int index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "ws%06d", index);
  return buf;
}

constexpr int kRootPort = 5000;
constexpr int kChildPort = 5100;
constexpr int kCommanderPort = 6000;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

ShardedCluster::ShardedCluster(ShardedClusterOptions options,
                               const ShardHook& after_build)
    : options_(std::move(options)),
      group_(checked_shards(options_.shards),
             sim::ShardGroup::Options{options_.cross_latency}) {
  if (options_.hosts < 1) {
    throw std::invalid_argument("ShardedCluster: hosts must be >= 1");
  }
  const std::size_t shard_count = group_.size();
  shards_.resize(shard_count);
  try {
    build_split_ = group_.for_each_shard([&](std::size_t shard) {
      shards_[shard] = std::make_unique<Shard>();
      build_shard(shard);
      if (after_build) {
        after_build(shard);
      }
    });
  } catch (...) {
    teardown();
    throw;
  }
  router_ = std::make_unique<net::ShardRouter>(
      group_, net::ShardRouter::Options{options_.cross_latency});
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    router_->attach(shard, *shards_[shard]->net);
  }
}

ShardedCluster::~ShardedCluster() { teardown(); }

std::vector<sim::ShardGroup::Split> ShardedCluster::teardown() {
  if (shards_.empty()) {
    return {};
  }
  router_.reset();  // unhooks every network
  const auto destroy = [this](std::size_t shard) {
    std::unique_ptr<Shard>& state = shards_[shard];
    if (state != nullptr && state->net != nullptr) {
      state->net->set_fault_policy(nullptr);
    }
    state.reset();
  };
  std::vector<sim::ShardGroup::Split> split;
  try {
    split = group_.for_each_shard(destroy);
  } catch (const std::system_error&) {
    // The shard threads could not start (which is how the constructor got
    // here, say): with no worker running, destroy every shard right here.
    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
      destroy(shard);
    }
  }
  shards_.clear();
  return split;
}

ShardedCluster::Shard& ShardedCluster::built(std::size_t shard,
                                             const char* caller) {
  if (shards_.empty()) {
    throw std::logic_error(std::string("ShardedCluster::") + caller +
                           ": the cluster was torn down");
  }
  return *shards_.at(shard);
}

void ShardedCluster::build_shard(std::size_t shard) {
  Shard& state = *shards_[shard];
  sim::Engine& engine = group_.engine(shard);
  const std::size_t shard_count = group_.size();

  state.tracer = std::make_unique<obs::Tracer>(
      obs::Tracer::Options{options_.trace_capacity, options_.tracing});
  state.tracer->set_clock([&engine] { return engine.now(); });
  state.metrics = std::make_unique<obs::MetricsRegistry>();

  net::Network::Options net_options;
  net_options.metrics = state.metrics.get();
  net_options.tracer = options_.tracing ? state.tracer.get() : nullptr;
  state.net = std::make_unique<net::Network>(engine, net_options);

  if (options_.message_loss > 0.0 &&
      options_.loss_until > options_.loss_from) {
    // Salt the stream per shard so each LossPolicy is single-writer and a
    // shard's verdicts do not depend on other shards' traffic volume.
    const std::uint64_t salt =
        options_.seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1));
    state.faults = std::make_unique<LossPolicy>(
        engine, options_.message_loss, options_.loss_from,
        options_.loss_until, salt);
    state.net->set_fault_policy(state.faults.get());
  }

  const rules::MigrationPolicy policy = rules::paper_policy2();

  // Block partition: host i lives on shard i*shards/hosts's inverse — each
  // shard owns the contiguous global range [lo, hi).
  const auto total = static_cast<std::size_t>(options_.hosts);
  const std::size_t lo = shard * total / shard_count;
  const std::size_t hi = (shard + 1) * total / shard_count;
  const int overloaded_pct =
      static_cast<int>(options_.overloaded_fraction * 100.0 + 0.5);
  const int busy_pct = static_cast<int>(options_.busy_fraction * 100.0 + 0.5);
  for (std::size_t i = lo; i < hi; ++i) {
    host::HostSpec spec;
    spec.name = worker_name(static_cast<int>(i));
    auto h = std::make_unique<host::Host>(engine, spec);
    // Static, deterministic load (never sampled — see header comment):
    // spread the overloaded/busy hosts evenly through every shard's range.
    const int pct = static_cast<int>(i % 100);
    double ambient = 0.2;  // free (satisfies policy2's load1 < 1.0)
    if (pct < overloaded_pct) {
      ambient = 2.6;  // past policy2's load1 > 2.0 trigger
    } else if (pct < overloaded_pct + busy_pct) {
      ambient = 1.5;  // fails the destination conditions -> busy
    }
    h->loadavg().set_ambient_runnable(ambient);
    state.net->attach(*h);
    state.hosts.push_back(std::move(h));
  }

  // Registry tier.  The monitors' target must be bound before their first
  // registration arrives; Registry::start() binds synchronously at setup
  // (virtual t = 0) and the earliest datagram lands one latency later.
  std::string registry_host_name;
  int registry_port = 0;
  if (options_.hierarchical) {
    registry_host_name = "reg" + std::to_string(shard);
    registry_port = kChildPort;
    host::HostSpec spec;
    spec.name = registry_host_name;
    auto h = std::make_unique<host::Host>(engine, spec);
    state.net->attach(*h);

    registry::Registry::Config config;
    config.port = kChildPort;
    config.policy = policy;
    config.parent_host = "root";
    config.parent_port = kRootPort;
    config.audit = registry::AuditMode::kOff;
    config.tracer = options_.tracing ? state.tracer.get() : nullptr;
    config.metrics = state.metrics.get();
    state.registry =
        std::make_unique<registry::Registry>(*h, *state.net, config);
    state.hosts.push_back(std::move(h));
  } else {
    registry_host_name = "root";
    registry_port = kRootPort;
  }

  if (shard == 0) {
    host::HostSpec spec;
    spec.name = "root";
    auto h = std::make_unique<host::Host>(engine, spec);
    state.net->attach(*h);

    registry::Registry::Config config;
    config.port = kRootPort;
    config.policy = policy;
    config.audit = registry::AuditMode::kOff;
    config.tracer = options_.tracing ? state.tracer.get() : nullptr;
    config.metrics = state.metrics.get();
    auto root =
        std::make_unique<registry::Registry>(*h, *state.net, config);
    if (options_.hierarchical) {
      state.root = std::move(root);
    } else {
      state.registry = std::move(root);  // the flat registry IS the root
    }
    state.hosts.push_back(std::move(h));
  }

  if (state.root != nullptr) {
    state.root->start();
  }
  if (state.registry != nullptr) {
    state.registry->start();
  }

  // Monitors on the worker hosts only (the registry hosts are unmanaged).
  const std::size_t workers = hi - lo;
  for (std::size_t w = 0; w < workers; ++w) {
    host::Host& h = *state.hosts[w];
    monitor::Monitor::Config config;
    config.registry_host = registry_host_name;
    config.registry_port = registry_port;
    config.commander_port = kCommanderPort;
    config.policy = policy;
    config.delta_heartbeats = options_.delta_heartbeats;
    config.tracer = options_.tracing ? state.tracer.get() : nullptr;
    config.metrics = state.metrics.get();
    auto m = std::make_unique<monitor::Monitor>(h, *state.net, config);
    // Stagger the start phase deterministically across the heartbeat
    // period.  Synchronized monitors would heartbeat in lockstep waves of
    // `hosts` simultaneous datagrams, and the network's fluid
    // bandwidth-sharing pays O(concurrent transfers) per datagram — a
    // quadratic blowup at 100k hosts.  Spread out, the in-flight set stays
    // O(1) and the fleet behaves like real machines booted minutes apart.
    const double phase =
        static_cast<double>(((lo + w) * 9973) % 10007) / 10007.0 * 10.0;
    monitor::Monitor* raw = m.get();
    engine.schedule_at(phase, [raw] { raw->start(); });
    if (w < static_cast<std::size_t>(options_.crash_hosts) &&
        options_.crash_until > options_.crash_at) {
      engine.schedule_at(options_.crash_at, [raw] { raw->stop(); });
      engine.schedule_at(options_.crash_until, [raw] { raw->start(); });
    }
    state.monitors.push_back(std::move(m));
  }
}

registry::Registry& ShardedCluster::root_registry() {
  Shard& shard0 = built(0, "root_registry");
  return shard0.root != nullptr ? *shard0.root : *shard0.registry;
}

registry::Registry& ShardedCluster::shard_registry(std::size_t shard) {
  Shard& state = built(shard, "shard_registry");
  if (state.registry != nullptr) {
    return *state.registry;
  }
  return root_registry();  // flat mode: non-zero shards share the root
}

ShardedClusterReport ShardedCluster::run() {
  if (ran_) {
    throw std::logic_error("ShardedCluster::run: call at most once");
  }
  built(0, "run");
  ran_ = true;
  group_.run_until(options_.duration);

  ShardedClusterReport report;
  report.epochs = group_.epochs();
  report.cross_messages = router_->forwarded();
  std::vector<const obs::Tracer*> tracers;
  obs::MetricsRegistry merged;
  for (std::size_t shard = 0; shard < group_.size(); ++shard) {
    const Shard& state = *shards_[shard];
    const std::uint64_t events = group_.engine(shard).events_executed();
    report.shard_events.push_back(events);
    report.events += events;
    report.final_now = std::max(report.final_now, group_.engine(shard).now());
    report.dropped += state.net->dropped_total();
    for (const auto& m : state.monitors) {
      report.consults += m->consults_sent();
    }
    if (state.registry != nullptr) {
      report.registered_hosts +=
          static_cast<int>(state.registry->hosts().size());
    }
    tracers.push_back(state.tracer.get());
    merged.merge_from(*state.metrics);
    report.trace_events += state.tracer->events().size();
  }
  report.merged_trace = obs::merged_jsonl(tracers);
  report.trace_hash = fnv1a(report.merged_trace);
  report.metrics_json = merged.to_json();
  return report;
}

support::Expected<ShardedClusterOptions> load_cluster_plan(
    const std::string& json_text) {
  auto parsed = obs::json_parse(json_text);
  if (!parsed) {
    return parsed.error();
  }
  const obs::JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return support::make_error("plan.not_object",
                               "cluster plan must be a JSON object");
  }
  ShardedClusterOptions options;
  const auto num = [&root](const char* key, double fallback) {
    const obs::JsonValue* value = root.find(key);
    return value != nullptr && value->is_number() ? value->as_number()
                                                  : fallback;
  };
  const auto flag = [&root](const char* key, bool fallback) {
    const obs::JsonValue* value = root.find(key);
    return value != nullptr && value->is_bool() ? value->as_bool() : fallback;
  };
  // Integer fields must be integral and inside [lo, hi) of their type: a
  // plain cast of 1e300 is undefined, 2.5 would truncate and -1 would wrap
  // a trace capacity to 2^64 - 1.
  std::optional<support::Error> bad;
  const auto integer = [&](const char* key, auto& field, double lo,
                           double hi) {
    const obs::JsonValue* value = root.find(key);
    if (bad || value == nullptr || !value->is_number()) {
      return;
    }
    const double v = value->as_number();
    if (!(v >= lo && v < hi) || std::trunc(v) != v) {
      bad = support::make_error(
          std::string("plan.") + key,
          std::string(key) + " must be a whole number >= " +
              std::to_string(static_cast<int>(lo)) + " that fits its field");
      return;
    }
    field = static_cast<std::remove_reference_t<decltype(field)>>(v);
  };
  constexpr double kIntEnd = 2147483648.0;  // 2^31
  constexpr double kU64End = 18446744073709551616.0;  // 2^64
  if (const obs::JsonValue* name = root.find("name");
      name != nullptr && name->is_string()) {
    options.name = name->as_string();
  }
  integer("shards", options.shards, 1.0, kIntEnd);
  integer("hosts", options.hosts, 1.0, kIntEnd);
  options.duration = num("duration", options.duration);
  options.cross_latency = num("cross_latency", options.cross_latency);
  options.hierarchical = flag("hierarchical", options.hierarchical);
  options.delta_heartbeats =
      flag("delta_heartbeats", options.delta_heartbeats);
  integer("seed", options.seed, 0.0, kU64End);
  options.busy_fraction = num("busy_fraction", options.busy_fraction);
  options.overloaded_fraction =
      num("overloaded_fraction", options.overloaded_fraction);
  options.message_loss = num("message_loss", options.message_loss);
  options.loss_from = num("loss_from", options.loss_from);
  options.loss_until = num("loss_until", options.loss_until);
  integer("crash_hosts", options.crash_hosts, 0.0, kIntEnd);
  options.crash_at = num("crash_at", options.crash_at);
  options.crash_until = num("crash_until", options.crash_until);
  options.tracing = flag("tracing", options.tracing);
  integer("trace_capacity", options.trace_capacity, 0.0, kU64End);
  if (bad) {
    return *bad;
  }
  return options;
}

}  // namespace ars::core

// perfbench harness: the measuring half of the end-to-end benchmark.
//
// run.py generates the workload inputs from its seed and calls this binary
// with them; the harness runs the workload for a wall-clock budget and
// prints one JSON document with per-operation samples, deterministic
// digests and (traced runs) the per-layer split.  run.py turns that into
// metrics and checks.
//
//   perfbench_harness fleet --plan FILE --seconds S [--trace] [--spans FILE]
//   perfbench_harness storm --seed-base N --plans-dir DIR --seconds S
//                           [--trace] [--spans FILE]
//   perfbench_harness self-test
//   perfbench_harness info
//
// Everything is measured from outside the program: spans wrap the calls
// into each layer's public API, a pass-through net::FaultPolicy observes
// the network, the program's own obs metrics snapshot is read after a run,
// and captured control-plane traffic is replayed through the xmlproto codec
// and registry::Registry::deliver to time those layers in isolation.

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ars/apps/test_tree.hpp"
#include "ars/chaos/faultplan.hpp"
#include "ars/chaos/scenario.hpp"
#include "ars/core/runtime.hpp"
#include "ars/core/sharded_cluster.hpp"
#include "ars/host/hog.hpp"
#include "ars/net/network.hpp"
#include "ars/obs/json.hpp"
#include "ars/registry/registry.hpp"
#include "ars/rules/policy.hpp"
#include "ars/support/log.hpp"
#include "ars/xmlproto/messages.hpp"

namespace {

using namespace ars;
using Clock = std::chrono::steady_clock;
using obs::JsonArray;
using obs::JsonObject;
using obs::JsonValue;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set (VmHWM) of this process, in KiB.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6));
    }
  }
  return 0.0;
}

/// Restart the VmHWM high-water mark at the current RSS, so the next
/// reading is the peak of one operation (Linux; where the kernel refuses,
/// the reading stays the process-wide peak).
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::string hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// -- spans ------------------------------------------------------------------

/// In-memory span log: name, start, end, parent, and the workload-run id
/// every span of one operation shares.  Written out once, at the end.
/// Spans are recorded only while recording is on (the traced operations).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(&log) {
      if (log.enabled_ && log.recording_) {
        index_ = log.open(std::move(name));
      }
    }
    ~Scope() {
      if (index_.has_value()) {
        log_->close(*index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::optional<std::size_t> index_;
  };

  void set_run(std::string run) { run_ = std::move(run); }
  void set_recording(bool recording) { recording_ = recording; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] JsonValue to_json() const {
    JsonArray out;
    out.reserve(spans_.size());
    for (const Span& span : spans_) {
      out.push_back(JsonObject{
          {"id", JsonValue{static_cast<double>(span.id)}},
          {"parent", JsonValue{static_cast<double>(span.parent)}},
          {"name", JsonValue{span.name}},
          {"run", JsonValue{span.run}},
          {"start_us", JsonValue{span.start_us}},
          {"end_us", JsonValue{span.end_us}}});
    }
    return out;
  }

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: root span
    std::string name;
    std::string run;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  std::size_t open(std::string name) {
    Span span;
    span.id = spans_.size() + 1;
    span.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    span.name = std::move(name);
    span.run = run_;
    span.start_us = now_us();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_us = now_us();
    stack_.pop_back();
  }

  bool enabled_;
  bool recording_ = false;
  Clock::time_point origin_;
  std::string run_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// -- network spy ------------------------------------------------------------

/// Pass-through observer on the network's fault hook: counts datagrams,
/// bytes and fluid-flow re-rating calls, optionally captures the traffic
/// for the codec/registry replays, and returns exactly what the policy it
/// wraps (if any) would have returned — so the observed run is the run.
class SpyPolicy final : public net::FaultPolicy {
 public:
  struct Captured {
    std::string src_host;
    int dst_port = 0;
    std::string payload;
  };

  SpyPolicy(net::FaultPolicy* inner, bool capture)
      : inner_(inner), capture_(capture) {}

  PostVerdict on_post(const net::Message& message) override {
    ++msgs_;
    bytes_ += message.size_bytes;
    if (capture_) {
      captured_.push_back({message.src_host, message.dst_port,
                           message.payload});
    }
    return inner_ != nullptr ? inner_->on_post(message) : PostVerdict{};
  }

  double bandwidth_factor(const std::string& src,
                          const std::string& dst) override {
    ++rerate_visits_;
    return inner_ != nullptr ? inner_->bandwidth_factor(src, dst) : 1.0;
  }

  [[nodiscard]] net::FaultPolicy* inner() const noexcept { return inner_; }
  [[nodiscard]] std::uint64_t msgs() const noexcept { return msgs_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t rerate_visits() const noexcept {
    return rerate_visits_;
  }
  [[nodiscard]] std::vector<Captured>& captured() noexcept {
    return captured_;
  }

 private:
  net::FaultPolicy* inner_;
  bool capture_;
  std::uint64_t msgs_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t rerate_visits_ = 0;
  std::vector<Captured> captured_;
};

/// Installs a spy on a network for the spy's lifetime, wrapping whatever
/// policy was there, and puts the original back on destruction.
class SpyInstall {
 public:
  SpyInstall(net::Network& network, bool capture)
      : network_(&network), spy_(network.fault_policy(), capture) {
    network_->set_fault_policy(&spy_);
  }
  ~SpyInstall() { network_->set_fault_policy(spy_.inner()); }
  SpyInstall(const SpyInstall&) = delete;
  SpyInstall& operator=(const SpyInstall&) = delete;

  [[nodiscard]] SpyPolicy& spy() noexcept { return spy_; }

 private:
  net::Network* network_;
  SpyPolicy spy_;
};

// -- replays ----------------------------------------------------------------

// ShardedCluster's registry ports: the root and each shard's child.
constexpr int kRootRegistryPort = 5000;
constexpr int kChildRegistryPort = 5100;

/// Codec and registry cost of captured traffic, replayed in isolation.
struct ReplayResult {
  std::uint64_t msgs = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t roundtrip_mismatches = 0;  // encode(decode(x)) != x
  double decode_s = 0.0;
  double encode_s = 0.0;
  std::uint64_t registry_msgs = 0;
  double registry_s = 0.0;
  std::map<std::string, double> verbs;
};

/// Replays `traffic` through xmlproto::decode_envelope and encode, then
/// delivers the messages addressed to one of `registry_ports` into a fresh
/// registry::Registry (not started: deliver() alone, no serve loop).
ReplayResult replay(const std::vector<SpyPolicy::Captured>& traffic,
                    const std::vector<int>& registry_ports) {
  ReplayResult result;
  std::vector<xmlproto::Envelope> decoded;
  std::vector<const SpyPolicy::Captured*> sources;
  decoded.reserve(traffic.size());
  sources.reserve(traffic.size());

  auto start = Clock::now();
  for (const SpyPolicy::Captured& message : traffic) {
    auto envelope = xmlproto::decode_envelope(message.payload);
    if (envelope.has_value()) {
      decoded.push_back(std::move(envelope.value()));
      sources.push_back(&message);
    } else {
      ++result.decode_errors;
    }
  }
  result.decode_s = seconds_since(start);
  result.msgs = traffic.size();

  std::vector<std::string> encoded;
  encoded.reserve(decoded.size());
  start = Clock::now();
  for (const xmlproto::Envelope& envelope : decoded) {
    encoded.push_back(xmlproto::encode(envelope.message, envelope.trace));
  }
  result.encode_s = seconds_since(start);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    result.verbs[xmlproto::message_type(decoded[i].message)] += 1.0;
    if (encoded[i] != sources[i]->payload) {
      ++result.roundtrip_mismatches;
    }
  }

  sim::Engine engine;
  net::Network network(engine);
  host::HostSpec spec;
  spec.name = "replay-registry";
  host::Host host(engine, spec);
  network.attach(host);
  registry::Registry::Config config;
  config.port = kChildRegistryPort;
  config.policy = rules::paper_policy2();
  config.audit = registry::AuditMode::kOff;
  registry::Registry registry(host, network, config);
  start = Clock::now();
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (std::find(registry_ports.begin(), registry_ports.end(),
                  sources[i]->dst_port) == registry_ports.end()) {
      continue;
    }
    registry.deliver(decoded[i].message, sources[i]->src_host,
                     decoded[i].trace);
    ++result.registry_msgs;
  }
  result.registry_s = seconds_since(start);
  return result;
}

JsonValue to_json(const ReplayResult& replay) {
  JsonObject verbs;
  for (const auto& [verb, count] : replay.verbs) {
    verbs[verb] = JsonValue{count};
  }
  return JsonObject{
      {"msgs", JsonValue{static_cast<double>(replay.msgs)}},
      {"decode_errors", JsonValue{static_cast<double>(replay.decode_errors)}},
      {"roundtrip_mismatches",
       JsonValue{static_cast<double>(replay.roundtrip_mismatches)}},
      {"decode_s", JsonValue{replay.decode_s}},
      {"encode_s", JsonValue{replay.encode_s}},
      {"registry_msgs", JsonValue{static_cast<double>(replay.registry_msgs)}},
      {"registry_s", JsonValue{replay.registry_s}},
      {"verbs", JsonValue{std::move(verbs)}}};
}

/// Counter totals from a MetricsRegistry::to_json snapshot, summed over
/// label sets ("rules.state_transitions{to=busy}" adds to
/// "rules.state_transitions").
void add_counters(const std::string& metrics_json,
                  std::map<std::string, double>& totals) {
  auto parsed = obs::json_parse(metrics_json);
  if (!parsed.has_value()) {
    return;
  }
  const JsonValue* counters = parsed->find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return;
  }
  for (const auto& [key, value] : counters->as_object()) {
    if (value.is_number()) {
      totals[key.substr(0, key.find('{'))] += value.as_number();
    }
  }
}

JsonValue to_json(const std::map<std::string, double>& values) {
  JsonObject out;
  for (const auto& [key, value] : values) {
    out[key] = JsonValue{value};
  }
  return out;
}

// -- fleet workload ---------------------------------------------------------

struct FleetOp {
  bool traced = false;
  double setup_s = 0.0;  // plan load + ShardedCluster construction
  double run_s = 0.0;    // ShardedCluster::run()
  double cpu_s = 0.0;    // process CPU time during run()
  double op_s = 0.0;     // setup + run + teardown
  core::ShardedClusterReport report;
  std::uint64_t spy_msgs = 0;
  std::uint64_t spy_bytes = 0;
  std::uint64_t spy_rerates = 0;
};

JsonValue fleet_digest(const core::ShardedClusterReport& report) {
  JsonArray shard_events;
  for (const std::uint64_t events : report.shard_events) {
    shard_events.push_back(JsonValue{static_cast<double>(events)});
  }
  return JsonObject{
      {"events", JsonValue{static_cast<double>(report.events)}},
      {"shard_events", JsonValue{std::move(shard_events)}},
      {"epochs", JsonValue{static_cast<double>(report.epochs)}},
      {"cross_messages", JsonValue{static_cast<double>(report.cross_messages)}},
      {"dropped", JsonValue{static_cast<double>(report.dropped)}},
      {"consults", JsonValue{report.consults}},
      {"registered_hosts", JsonValue{report.registered_hosts}},
      {"trace_events", JsonValue{static_cast<double>(report.trace_events)}},
      {"trace_hash", JsonValue{hex(report.trace_hash)}},
      {"metrics_hash", JsonValue{hex(chaos::fnv1a(report.metrics_json))}}};
}

FleetOp fleet_op(const std::string& plan_path, SpanLog& spans, bool traced,
                 std::vector<SpyPolicy::Captured>* capture) {
  FleetOp op;
  op.traced = traced;
  spans.set_recording(traced);
  SpanLog::Scope root(spans, "fleet.op");
  const auto op_start = Clock::now();
  std::unique_ptr<core::ShardedCluster> cluster;
  {
    SpanLog::Scope setup(spans, "fleet.setup");
    const auto start = Clock::now();
    core::ShardedClusterOptions options;
    {
      SpanLog::Scope load(spans, "plan.load");
      auto loaded = core::load_cluster_plan(read_file(plan_path));
      if (!loaded.has_value()) {
        throw std::runtime_error("bad plan: " + loaded.error().to_string());
      }
      options = std::move(loaded.value());
    }
    {
      SpanLog::Scope construct(spans, "cluster.construct");
      cluster = std::make_unique<core::ShardedCluster>(std::move(options));
    }
    op.setup_s = seconds_since(start);
  }

  std::vector<std::unique_ptr<SpyInstall>> spies;
  if (traced) {
    for (std::size_t shard = 0; shard < cluster->group().size(); ++shard) {
      spies.push_back(std::make_unique<SpyInstall>(cluster->network(shard),
                                                   capture != nullptr));
    }
  }
  {
    SpanLog::Scope run(spans, "cluster.run");
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    op.report = cluster->run();
    op.run_s = seconds_since(start);
    op.cpu_s = process_cpu_seconds() - cpu_start;
  }
  for (auto& install : spies) {
    SpyPolicy& spy = install->spy();
    op.spy_msgs += spy.msgs();
    op.spy_bytes += spy.bytes();
    op.spy_rerates += spy.rerate_visits();
    if (capture != nullptr) {
      for (auto& message : spy.captured()) {
        capture->push_back(std::move(message));
      }
    }
  }
  {
    SpanLog::Scope teardown(spans, "cluster.destroy");
    spies.clear();
    cluster.reset();
  }
  op.op_s = seconds_since(op_start);
  return op;
}

JsonValue to_json(const FleetOp& op) {
  return JsonObject{{"traced", JsonValue{op.traced}},
                    {"setup_s", JsonValue{op.setup_s}},
                    {"run_s", JsonValue{op.run_s}},
                    {"cpu_s", JsonValue{op.cpu_s}},
                    {"op_s", JsonValue{op.op_s}},
                    {"spy_msgs", JsonValue{static_cast<double>(op.spy_msgs)}},
                    {"spy_bytes", JsonValue{static_cast<double>(op.spy_bytes)}},
                    {"spy_rerates",
                     JsonValue{static_cast<double>(op.spy_rerates)}},
                    {"digest", fleet_digest(op.report)}};
}

struct Budget {
  double seconds = 10.0;
  bool trace = false;
};

JsonObject run_fleet(const std::string& plan_path, const Budget& budget,
                     SpanLog& spans) {
  auto plan = core::load_cluster_plan(read_file(plan_path));
  if (!plan.has_value()) {
    throw std::runtime_error("bad plan: " + plan.error().to_string());
  }
  JsonObject out{{"hosts", JsonValue{plan->hosts}},
                 {"duration", JsonValue{plan->duration}}};
  // One untraced warm-up op (heap and page-cache warm-up; checked, not
  // timed), then timed ops until the budget is spent.  A traced run pairs
  // every untraced op with a traced one, so both see the same machine load.
  const auto start = Clock::now();
  JsonValue warmup = to_json(fleet_op(plan_path, spans, false, nullptr));
  JsonArray ops;
  std::vector<SpyPolicy::Captured> traffic;
  const int min_ops = budget.trace ? 2 : 3;
  for (int i = 0; i < min_ops || seconds_since(start) < budget.seconds; ++i) {
    spans.set_run("op#" + std::to_string(i));
    ops.push_back(to_json(fleet_op(plan_path, spans, false, nullptr)));
    if (i == 0) {
      // After warm-up plus one op: the same point on every run.
      out["peak_rss_kib"] = JsonValue{peak_rss_kib()};
    }
    if (!budget.trace) {
      continue;
    }
    const FleetOp op =
        fleet_op(plan_path, spans, true, i == 0 ? &traffic : nullptr);
    if (i == 0) {
      std::map<std::string, double> counters;
      add_counters(op.report.metrics_json, counters);
      out["obs"] = to_json(counters);
    }
    ops.push_back(to_json(op));
  }
  if (budget.trace) {
    spans.set_run("replay");
    spans.set_recording(true);
    SpanLog::Scope replay_span(spans, "replay");
    out["replay"] =
        to_json(replay(traffic, {kRootRegistryPort, kChildRegistryPort}));
  }
  out["warmup"] = std::move(warmup);
  out["ops"] = JsonValue{std::move(ops)};
  return out;
}

// -- storm-mix workload -----------------------------------------------------

/// The storm batch: `kStormRounds` seeds x one scenario per cell, so one
/// pass holds >= 100 scenarios and p90 keeps >= 10 samples beyond it.
constexpr int kStormRounds = 17;
constexpr int kStormSetups = 51;
const std::vector<std::string> kStormCells = {
    "migration", "precopy", "resize", "ckpt_periodic", "ckpt_coop", "fig7"};

/// ckpt_campaign's saturating-store cell: 3 jobs dragging 60 MB of state
/// into a 12 MB/s shared store under per-host crash arrivals.
chaos::ScenarioOptions ckpt_cell(const std::string& strategy,
                                 std::uint64_t seed) {
  constexpr double kMtbf = 120.0;
  constexpr double kHorizon = 1000.0;
  chaos::ScenarioOptions scenario;
  scenario.hosts = 4;
  scenario.apps = 3;
  scenario.iterations = 60;
  scenario.horizon = kHorizon;
  scenario.seed = seed;
  scenario.plan = chaos::FaultPlan{"ckpt-sweep"};
  scenario.plan.host_crash_rate(40.0, std::min(kHorizon - 300.0, 400.0),
                                kMtbf, "*", 30.0)
      .message_loss(60.0, 300.0, 0.05);
  scenario.ckpt_strategy = strategy;
  scenario.ckpt_mtbf = kMtbf;
  scenario.ckpt_state_mb = 60.0;
  scenario.ckpt_aggregate_mbps = 12.0;
  return scenario;
}

struct StormPlans {
  chaos::FaultPlan migration;
  chaos::FaultPlan precopy;
  chaos::FaultPlan resize;
};

chaos::FaultPlan load_fault_plan(const std::string& path) {
  auto plan = chaos::FaultPlan::from_json(read_file(path));
  if (!plan.has_value()) {
    throw std::runtime_error(path + ": " + plan.error().message);
  }
  return std::move(plan.value());
}

/// Storm set-up: load the committed chaos plans and build the batch's
/// scenario options (everything before the first scenario runs).
std::vector<std::pair<std::string, chaos::ScenarioOptions>> storm_batch(
    const std::string& plans_dir, std::uint64_t seed_base) {
  const StormPlans plans{
      load_fault_plan(plans_dir + "/migration-storm.json"),
      load_fault_plan(plans_dir + "/precopy-storm.json"),
      load_fault_plan(plans_dir + "/resize-storm.json")};
  std::vector<std::pair<std::string, chaos::ScenarioOptions>> batch;
  for (int round = 0; round < kStormRounds; ++round) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(round);
    for (const std::string& cell : kStormCells) {
      chaos::ScenarioOptions scenario;
      scenario.seed = seed;
      if (cell == "migration") {
        scenario.plan = plans.migration;
      } else if (cell == "precopy") {
        scenario.plan = plans.precopy;
        scenario.precopy = true;
      } else if (cell == "resize") {
        scenario.plan = plans.resize;
        scenario.hosts = 8;
        scenario.malleable_jobs = 2;
        scenario.horizon = 700.0;
      } else if (cell == "ckpt_periodic") {
        scenario = ckpt_cell("periodic", seed);
      } else if (cell == "ckpt_coop") {
        scenario = ckpt_cell("cooperative", seed);
      }
      batch.emplace_back(cell, std::move(scenario));
    }
  }
  return batch;
}

std::string storm_report_digest(const chaos::ScenarioReport& report) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "ev=%llu t=%.17g mig=%zu/%zu/%zu/%zu pre=%zu rsz=%zu/%zu/%zu/%zu "
      "ck=%zu/%zu/%zu/%zu w=%.17g/%.17g/%.17g dec=%zu/%s drop=%llu",
      static_cast<unsigned long long>(report.events_executed),
      report.final_time, report.migration_attempts,
      report.migrations_succeeded, report.migrations_aborted,
      report.migrations_rolled_back, report.precopy_rounds,
      report.resizes_attempted, report.resizes_committed,
      report.resizes_aborted, report.resizes_rolled_back, report.ckpt_commits,
      report.ckpt_aborts, report.ckpt_deferred, report.ckpt_preempted,
      report.waste_overhead_s, report.waste_lost_work_s, report.waste_restart_s,
      report.decisions, hex(report.decision_log_hash).c_str(),
      static_cast<unsigned long long>(report.messages_dropped));
  return hex(chaos::fnv1a(buf));
}

int injected_faults(const chaos::FaultInjector::Stats& s) {
  return s.host_crashes + s.cpu_slowdowns + s.monitor_stalls +
         s.registry_crashes + s.partitions + s.link_degrades +
         s.migration_dest_crashes + s.migration_link_cuts +
         s.migration_precopy_stalls + s.resize_stalls +
         s.resize_target_crashes + s.rate_crashes;
}

JsonObject scenario_record(const std::string& cell,
                           const chaos::ScenarioOptions& options,
                           const chaos::ScenarioReport& report, double wall_s,
                           double cpu_s) {
  const auto count = [](std::size_t v) {
    return JsonValue{static_cast<double>(v)};
  };
  return JsonObject{
      {"cell", JsonValue{cell}},
      {"seed", JsonValue{static_cast<double>(options.seed)}},
      {"wall_s", JsonValue{wall_s}},
      {"cpu_s", JsonValue{cpu_s}},
      {"ok", JsonValue{report.ok()}},
      {"violations", JsonValue{report.ok() ? std::string{}
                                           : report.invariants.summary()}},
      {"hosts", JsonValue{options.hosts}},
      {"sim_s", JsonValue{report.final_time}},
      {"events", count(report.events_executed)},
      {"trace_hash", JsonValue{hex(report.trace_hash)}},
      {"report_digest", JsonValue{storm_report_digest(report)}},
      {"migrations", count(report.migration_attempts)},
      {"migrations_committed", count(report.migrations_succeeded)},
      {"precopy_rounds", count(report.precopy_rounds)},
      {"resizes", count(report.resizes_attempted)},
      {"resizes_committed", count(report.resizes_committed)},
      {"ckpt_commits", count(report.ckpt_commits)},
      {"ckpt_aborts", count(report.ckpt_aborts)},
      {"ckpt_deferred", count(report.ckpt_deferred)},
      {"ckpt_preempted", count(report.ckpt_preempted)},
      {"waste_s", JsonValue{report.waste_total_s()}},
      {"faults", JsonValue{injected_faults(report.faults)}},
      {"dropped", JsonValue{static_cast<double>(report.messages_dropped)}},
      {"decisions", count(report.decisions)}};
}

/// The paper's Figure-7 script (bench_fig7_efficiency_cpu, spawn path): a
/// test_tree process starts on ws1 at t=280 s, a 3-thread hog loads ws1 at
/// t=428 s, and the rescheduler migrates the process to ws2.
struct Fig7Outcome {
  bool shape_ok = false;
  hpcm::MigrationTimeline timeline;
  std::uint64_t events = 0;
  double final_time = 0.0;
  std::size_t migrations = 0;
  std::size_t committed = 0;
  std::uint64_t dropped = 0;
  std::string trace_hash;
  std::string metrics_hash;
  std::string metrics_json;
  std::uint64_t spy_msgs = 0;
  std::uint64_t spy_bytes = 0;
  std::uint64_t spy_rerates = 0;
  int registry_port = 0;
};

Fig7Outcome run_fig7(SpanLog& spans, bool traced,
                     std::vector<SpyPolicy::Captured>* capture) {
  constexpr double kAppStart = 280.0;
  constexpr double kLoadStart = 428.0;
  constexpr double kDuration = 1000.0;
  apps::TestTree::Params params;
  params.levels = 18;
  params.build_work_per_knode = 0.20;
  params.fill_work_per_knode = 0.10;
  params.sort_work_per_knode = 1.13;
  params.sum_work_per_knode = 0.10;
  params.chunk_work = 0.6;
  params.node_overhead_bytes = 220;

  Fig7Outcome outcome;
  apps::TestTree::Result app;
  std::unique_ptr<core::ReschedulerRuntime> runtime;
  std::unique_ptr<host::CpuHog> hog;
  {
    SpanLog::Scope construct(spans, "fig7.construct");
    rules::MigrationPolicy policy = rules::paper_policy2();
    policy.set_warmup(40.0);
    runtime = std::make_unique<core::ReschedulerRuntime>(
        core::make_cluster(2, policy));
    hog = std::make_unique<host::CpuHog>(
        runtime->host("ws1"),
        host::CpuHog::Options{.threads = 3, .duration = 400.0,
                              .name = "additional"});
  }
  std::optional<SpyInstall> spy;
  if (traced) {
    spy.emplace(runtime->network(), capture != nullptr);
  }
  {
    SpanLog::Scope run(spans, "fig7.run");
    runtime->start_rescheduler();
    runtime->trace().start(10.0);
    runtime->engine().schedule_at(kAppStart, [&] {
      runtime->launch_app("ws1", apps::TestTree::make(params, &app),
                          "test_tree", apps::TestTree::schema(params));
    });
    runtime->engine().schedule_at(kLoadStart, [&] { hog->start(); });
    runtime->run_until(kDuration);
  }
  SpanLog::Scope collect(spans, "fig7.collect");
  const auto& history = runtime->middleware().history();
  if (!history.empty()) {
    outcome.timeline = history.front();
  }
  outcome.migrations = history.size();
  outcome.committed = static_cast<std::size_t>(
      std::count_if(history.begin(), history.end(),
                    [](const hpcm::MigrationTimeline& m) { return m.succeeded; }));
  outcome.dropped = runtime->network().dropped_total();
  const hpcm::MigrationTimeline& t = outcome.timeline;
  // bench_fig7_efficiency_cpu's shape check, plus a correct app result.
  outcome.shape_ok = t.succeeded && t.total() < 15.0 &&
                     t.reach_poll_point() <= 3.0 &&
                     t.initialization() >= 0.3 &&
                     t.resumed_at < t.completed_at && app.finished &&
                     app.sorted &&
                     std::abs(app.sum - apps::TestTree::expected_sum(params)) <=
                         1e-9 * std::abs(app.sum);
  outcome.events = runtime->engine().events_executed();
  outcome.final_time = runtime->engine().now();
  outcome.trace_hash = hex(chaos::fnv1a(runtime->tracer().to_jsonl()));
  outcome.metrics_json = runtime->metrics().to_json();
  outcome.metrics_hash = hex(chaos::fnv1a(outcome.metrics_json));
  outcome.registry_port = runtime->scheduler().port();
  if (spy.has_value()) {
    outcome.spy_msgs = spy->spy().msgs();
    outcome.spy_bytes = spy->spy().bytes();
    outcome.spy_rerates = spy->spy().rerate_visits();
    if (capture != nullptr) {
      *capture = std::move(spy->spy().captured());
    }
    spy.reset();
  }
  return outcome;
}

/// Totals the traced runs observe: obs snapshot counters and the Fig-7
/// network spy.
struct StormObserved {
  std::map<std::string, double> counters;
  std::uint64_t spy_msgs = 0;
  std::uint64_t spy_bytes = 0;
  std::uint64_t spy_rerates = 0;
  std::vector<SpyPolicy::Captured> fig7_traffic;  // first traced Fig-7 run
  int fig7_registry_port = 0;
};

JsonObject run_cell(const std::string& cell,
                    const chaos::ScenarioOptions& base, SpanLog& spans,
                    bool traced, StormObserved& observed) {
  spans.set_recording(traced);
  SpanLog::Scope span(spans, "storm." + cell);
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  if (cell == "fig7") {
    const bool capture = traced && observed.fig7_traffic.empty();
    Fig7Outcome fig7 =
        run_fig7(spans, traced, capture ? &observed.fig7_traffic : nullptr);
    const double wall_s = seconds_since(start);
    const double cpu_s = process_cpu_seconds() - cpu_start;
    if (capture) {
      observed.fig7_registry_port = fig7.registry_port;
    }
    if (traced) {
      add_counters(fig7.metrics_json, observed.counters);
      observed.spy_msgs += fig7.spy_msgs;
      observed.spy_bytes += fig7.spy_bytes;
      observed.spy_rerates += fig7.spy_rerates;
    }
    return JsonObject{
        {"cell", JsonValue{cell}},
        {"seed", JsonValue{static_cast<double>(base.seed)}},
        {"traced", JsonValue{traced}},
        {"wall_s", JsonValue{wall_s}},
        {"cpu_s", JsonValue{cpu_s}},
        {"ok", JsonValue{fig7.shape_ok}},
        {"violations",
         JsonValue{fig7.shape_ok ? "" : "fig7 shape check failed"}},
        {"hosts", JsonValue{2}},
        {"sim_s", JsonValue{fig7.final_time}},
        {"events", JsonValue{static_cast<double>(fig7.events)}},
        {"trace_hash", JsonValue{fig7.trace_hash}},
        {"report_digest", JsonValue{fig7.metrics_hash}},
        {"migrations", JsonValue{static_cast<double>(fig7.migrations)}},
        {"migrations_committed",
         JsonValue{static_cast<double>(fig7.committed)}},
        {"dropped", JsonValue{static_cast<double>(fig7.dropped)}},
        {"sim_migration_s", JsonValue{fig7.timeline.total()}},
        {"sim_freeze_s", JsonValue{fig7.timeline.freeze_window()}}};
  }
  chaos::ScenarioOptions options = base;
  options.keep_trace = traced;  // the traced run keeps trace + metrics
  const chaos::ScenarioReport report = chaos::run_scenario(options);
  const double wall_s = seconds_since(start);
  const double cpu_s = process_cpu_seconds() - cpu_start;
  if (traced) {
    add_counters(report.metrics_json, observed.counters);
  }
  JsonObject record = scenario_record(cell, options, report, wall_s, cpu_s);
  record["traced"] = JsonValue{traced};
  return record;
}

JsonObject run_storm(std::uint64_t seed_base, const std::string& plans_dir,
                     const Budget& budget, SpanLog& spans) {
  JsonObject out;

  // Set-up takes well under a millisecond, so it is repeated back to back
  // and run.py reports the median.
  JsonArray setup_samples;
  std::vector<std::pair<std::string, chaos::ScenarioOptions>> batch;
  for (int i = 0; i < kStormSetups; ++i) {
    const auto setup_start = Clock::now();
    batch = storm_batch(plans_dir, seed_base);
    setup_samples.push_back(JsonValue{seconds_since(setup_start)});
  }

  // Memory probe: one untimed pass with the heap trimmed and the peak RSS
  // restarted before each scenario, so each figure is that scenario's own
  // footprint, not whatever earlier scenarios left resident.
  JsonArray memory;
  StormObserved unobserved;
  for (const auto& [cell, base] : batch) {
    malloc_trim(0);
    reset_peak_rss();
    run_cell(cell, base, spans, false, unobserved);
    memory.push_back(JsonObject{{"cell", JsonValue{cell}},
                                {"peak_rss_kib", JsonValue{peak_rss_kib()}}});
  }
  out["memory"] = JsonValue{std::move(memory)};

  // Whole passes over the batch until the budget is spent.  A traced run
  // follows every scenario with its traced twin, so both see the same
  // machine load and the twin doubles as a replay of the same seed.
  const auto start = Clock::now();
  JsonArray scenarios;
  StormObserved observed;
  int passes = 0;
  while (passes < 1 || seconds_since(start) < budget.seconds) {
    int index = 0;
    for (const auto& [cell, base] : batch) {
      spans.set_run("pass" + std::to_string(passes) + "." +
                    std::to_string(index++));
      scenarios.push_back(run_cell(cell, base, spans, false, observed));
      if (budget.trace) {
        scenarios.push_back(run_cell(cell, base, spans, true, observed));
      }
    }
    ++passes;
  }
  out["setup_s"] = JsonValue{std::move(setup_samples)};
  out["passes"] = JsonValue{passes};
  if (budget.trace) {
    out["obs"] = to_json(observed.counters);
    out["spy"] = JsonObject{
        {"msgs", JsonValue{static_cast<double>(observed.spy_msgs)}},
        {"bytes", JsonValue{static_cast<double>(observed.spy_bytes)}},
        {"rerates", JsonValue{static_cast<double>(observed.spy_rerates)}}};
    spans.set_run("replay");
    spans.set_recording(true);
    SpanLog::Scope replay_span(spans, "replay");
    out["replay"] = to_json(
        replay(observed.fig7_traffic, {observed.fig7_registry_port}));
  }
  out["scenarios"] = JsonValue{std::move(scenarios)};
  return out;
}

// -- self-test --------------------------------------------------------------

/// A policy with a visible verdict, to prove the spy forwards it unchanged.
class FixedPolicy final : public net::FaultPolicy {
 public:
  PostVerdict on_post(const net::Message&) override {
    PostVerdict verdict;
    verdict.duplicates = 2;
    verdict.extra_delay = 0.25;
    return verdict;
  }
  double bandwidth_factor(const std::string&, const std::string&) override {
    return 0.5;
  }
};

int self_test() {
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  net::Message message;
  message.src_host = "a";
  message.dst_host = "b";
  message.size_bytes = 100;

  SpyPolicy bare(nullptr, true);
  const auto verdict = bare.on_post(message);
  check(!verdict.drop && verdict.duplicates == 0 && verdict.extra_delay == 0.0,
        "spy without an inner policy returns the no-fault verdict");
  check(bare.bandwidth_factor("a", "b") == 1.0,
        "spy without an inner policy leaves bandwidth untouched");
  check(bare.msgs() == 1 && bare.bytes() == 100 && bare.rerate_visits() == 1 &&
            bare.captured().size() == 1,
        "spy counts messages, bytes, re-rates and captures traffic");

  FixedPolicy fixed;
  SpyPolicy wrapped(&fixed, false);
  const auto forwarded = wrapped.on_post(message);
  check(forwarded.duplicates == 2 && forwarded.extra_delay == 0.25 &&
            wrapped.bandwidth_factor("a", "b") == 0.5,
        "spy forwards the wrapped policy's verdicts unchanged");
  check(wrapped.captured().empty(), "spy captures nothing when not asked to");

  // End to end: a small fleet observed by spies on both shards must produce
  // the same events, trace and metrics as the unobserved fleet.
  core::ShardedClusterOptions options;
  options.hosts = 400;
  options.shards = 2;
  options.duration = 35.0;
  options.message_loss = 0.05;  // exercises a wrapped LossPolicy too
  options.loss_from = 10.0;
  options.loss_until = 20.0;
  core::ShardedClusterReport plain;
  {
    core::ShardedCluster cluster(options);
    plain = cluster.run();
  }
  core::ShardedClusterReport observed;
  std::uint64_t seen = 0;
  {
    core::ShardedCluster cluster(options);
    std::vector<std::unique_ptr<SpyInstall>> spies;
    for (std::size_t shard = 0; shard < 2; ++shard) {
      spies.push_back(
          std::make_unique<SpyInstall>(cluster.network(shard), true));
    }
    observed = cluster.run();
    for (auto& install : spies) {
      seen += install->spy().msgs();
    }
  }
  check(seen > 0, "spies saw the fleet's traffic");
  check(plain.dropped > 0 && plain.dropped == observed.dropped,
        "wrapped loss policy still drops the same datagrams");
  check(plain.events == observed.events &&
            plain.trace_hash == observed.trace_hash &&
            plain.metrics_json == observed.metrics_json,
        "observed fleet is identical to the unobserved fleet");
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

// -- main -------------------------------------------------------------------

struct Args {
  std::string command;
  std::string plan;
  std::string plans_dir = "plans";
  std::string spans_out;
  std::uint64_t seed_base = 1;
  Budget budget;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness fleet --plan FILE --seconds S "
               "[--trace] [--spans FILE]\n"
               "       perfbench_harness storm --seed-base N "
               "[--plans-dir DIR] --seconds S [--trace] [--spans FILE]\n"
               "       perfbench_harness self-test | info\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) {
    usage("missing command");
  }
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(flag + " needs a value");
      }
      return argv[++i];
    };
    if (flag == "--plan") {
      args.plan = value();
    } else if (flag == "--plans-dir") {
      args.plans_dir = value();
    } else if (flag == "--spans") {
      args.spans_out = value();
    } else if (flag == "--seed-base") {
      args.seed_base = std::stoull(value());
    } else if (flag == "--seconds") {
      args.budget.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.budget.trace = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  support::Logger::global().set_level(support::LogLevel::kOff);
  try {
    if (args.command == "self-test") {
      return self_test();
    }
    if (args.command == "info") {
      std::printf("%s\n",
                  JsonValue{JsonObject{
                                {"compiler", JsonValue{PERFBENCH_COMPILER}},
                                {"build_type", JsonValue{PERFBENCH_BUILD_TYPE}}}}
                      .dump()
                      .c_str());
      return 0;
    }
    SpanLog spans(args.budget.trace);
    JsonObject result;
    if (args.command == "fleet") {
      if (args.plan.empty()) {
        usage("fleet needs --plan");
      }
      result = run_fleet(args.plan, args.budget, spans);
    } else if (args.command == "storm") {
      result = run_storm(args.seed_base, args.plans_dir, args.budget, spans);
    } else {
      usage("unknown command " + args.command);
    }
    if (!args.spans_out.empty() && spans.enabled()) {
      std::ofstream(args.spans_out) << spans.to_json().dump() << "\n";
    }
    std::printf("%s\n", JsonValue{std::move(result)}.dump().c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 1;
  }
  return 0;
}

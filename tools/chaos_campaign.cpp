// chaos_campaign: seed-sweep driver for the ars::chaos subsystem.
//
// Runs the standard chaos scenario (scenario.hpp) over a seed range for each
// requested fault plan, checks the invariants after every run, and re-runs a
// sample of seeds (always every failing seed) to prove the simulation replays
// byte-identically.  Emits a human summary on stdout and, with --out, a JSON
// report.  Exit status is nonzero iff any invariant was violated or any
// replay diverged.
//
// Usage:
//   chaos_campaign [--seeds=N] [--seed-base=N] [--plan=<builtin|file.json>]...
//                  [--hosts=N] [--apps=N] [--horizon=T] [--replay-passing=N]
//                  [--sabotage=NAME] [--malleable-jobs=N]
//                  [--verify-scan-equivalence] [--delta-heartbeats]
//                  [--precopy]
//                  [--out=report.json] [--bundle-dir=DIR] [--trace-dir=DIR]
//                  [--trace-out=FILE] [--metrics-out=FILE]
//                  [--replay-bundle=FILE] [--list-plans]
//
// --bundle-dir writes a flight-recorder bundle (scenario + seed + fault plan
// + violations + trace ring + metrics snapshot, one JSON file) for every
// failing seed; --replay-bundle re-runs such a bundle and exits 0 iff it
// reproduces the recorded trace hash and violations.  --trace-dir exports
// every seed's trace as JSONL for trace_critpath.
//
// The uniform bench flags are honoured too (with ARS_TRACE_OUT /
// ARS_METRICS_OUT as environment fallbacks): --trace-out=FILE writes each
// seed's JSONL trace to FILE with a "<plan>_seed<N>" label spliced before
// the extension, and --metrics-out=FILE does the same with the scenario's
// metrics snapshot (JSON).
//
// --plan may be given multiple times; the default sweep covers every builtin
// plan plus a fault-free baseline.
//
// --sabotage=NAME deliberately breaks one protocol so the sweep must FAIL —
// proof that the invariant checker is load-bearing: lease-expiry (crashed
// applications strand), migration-rollback (no-lost-process),
// resize-rollback (no-lost-rank; needs --malleable-jobs), or
// torn-checkpoint (no-torn-checkpoint; trips only when a crash aborts a
// checkpoint write, as in the ckpt_campaign storm).
//
// --verify-scan-equivalence runs every seed a second time with the registry
// forced onto its pre-index full-table scan (audits off in both runs, so the
// scan mode is the only difference) and requires the trace hash AND the
// canonical decision log to match byte-for-byte — the indexed scheduler must
// be observationally identical to the reference scan, under faults.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ars/chaos/faultplan.hpp"
#include "ars/chaos/flight_recorder.hpp"
#include "ars/chaos/scenario.hpp"
#include "ars/obs/json.hpp"
#include "ars/support/log.hpp"

#include "../bench/common.hpp"  // uniform --trace-out/--metrics-out handling

namespace {

using ars::chaos::FaultPlan;
using ars::chaos::ScenarioOptions;
using ars::chaos::ScenarioReport;

struct CampaignOptions {
  int seeds = 20;
  std::uint64_t seed_base = 1;
  std::vector<std::string> plans;  // builtin names or JSON file paths
  int hosts = 4;
  int apps = 3;
  double horizon = 700.0;
  int replay_passing = 3;  // additionally replay this many passing seeds
  ars::sim::Sabotage sabotage = ars::sim::Sabotage::kNone;
  int malleable_jobs = 0;
  bool verify_scan_equivalence = false;
  bool delta_heartbeats = false;
  bool precopy = false;  // iterative pre-copy migration + heavy-state apps
  std::string out_path;
  std::string bundle_dir;  // flight-recorder bundles for failing seeds
  std::string trace_dir;   // per-seed JSONL exports for trace_critpath
};

struct SeedResult {
  std::uint64_t seed = 0;
  bool ok = false;
  std::string violations;  // summary() when not ok
  std::uint64_t trace_hash = 0;
  std::uint64_t events_executed = 0;
  std::size_t migrations_succeeded = 0;
  std::size_t migrations_aborted = 0;
  std::size_t migrations_rolled_back = 0;
  std::size_t resizes_committed = 0;
  std::size_t resizes_aborted = 0;
  std::size_t resizes_rolled_back = 0;
  std::uint64_t messages_dropped = 0;
  std::size_t decisions = 0;
  std::uint64_t decision_log_hash = 0;
  bool replayed = false;
  bool replay_identical = true;
  bool scan_checked = false;
  bool scan_equivalent = true;
};

struct PlanResult {
  std::string plan_name;
  std::vector<SeedResult> seeds;
  int failures = 0;
  int replay_mismatches = 0;
  int scan_mismatches = 0;
  std::vector<std::string> bundles;  // flight-recorder bundle paths written
};

std::optional<std::string> arg_value(const std::string& arg,
                                     const std::string& flag) {
  const std::string prefix = flag + "=";
  if (arg.rfind(prefix, 0) == 0) {
    return arg.substr(prefix.size());
  }
  return std::nullopt;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "chaos_campaign: " << message << "\n"
            << "usage: chaos_campaign [--seeds=N] [--seed-base=N]\n"
            << "         [--plan=<builtin|file.json>]... [--hosts=N]\n"
            << "         [--apps=N] [--horizon=T] [--replay-passing=N]\n"
            << "         [--sabotage=lease-expiry|migration-rollback|\n"
            << "                     resize-rollback|torn-checkpoint]\n"
            << "         [--malleable-jobs=N]\n"
            << "         [--verify-scan-equivalence]\n"
            << "         [--delta-heartbeats] [--precopy]\n"
            << "         [--out=report.json]\n"
            << "         [--bundle-dir=DIR] [--trace-dir=DIR]\n"
            << "         [--trace-out=FILE] [--metrics-out=FILE]\n"
            << "         [--replay-bundle=FILE] [--list-plans]\n";
  std::exit(2);
}

FaultPlan load_plan(const std::string& spec) {
  if (spec == "none") {
    return FaultPlan{"none"};
  }
  if (auto builtin = FaultPlan::builtin(spec); builtin.has_value()) {
    return *std::move(builtin);
  }
  std::ifstream in(spec);
  if (!in) {
    std::cerr << "chaos_campaign: --plan=" << spec
              << " is neither a builtin plan nor a readable file\n";
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto plan = FaultPlan::from_json(text.str());
  if (!plan.has_value()) {
    std::cerr << "chaos_campaign: " << spec << ": " << plan.error().message
              << "\n";
    std::exit(2);
  }
  return *std::move(plan);
}

ScenarioOptions make_scenario(const CampaignOptions& options,
                              const FaultPlan& plan, std::uint64_t seed,
                              bool legacy_scan = false) {
  ScenarioOptions scenario;
  scenario.hosts = options.hosts;
  scenario.apps = options.apps;
  scenario.horizon = options.horizon;
  scenario.seed = seed;
  scenario.plan = plan;
  scenario.sabotage = options.sabotage;
  scenario.malleable_jobs = options.malleable_jobs;
  scenario.delta_heartbeats = options.delta_heartbeats;
  scenario.precopy = options.precopy;
  scenario.legacy_scan = legacy_scan;
  // Equivalence runs compare the two scan modes, so the audit (which itself
  // forces the legacy scan) must be off for both sides.
  scenario.audit_decisions = !options.verify_scan_equivalence;
  // Trace exports and replay-mismatch bundles need the bytes, not just the
  // hash (failing runs keep their trace regardless).
  scenario.keep_trace = !options.trace_dir.empty() ||
                        !options.bundle_dir.empty() ||
                        !ars::bench::obs_export().trace_out.empty() ||
                        !ars::bench::obs_export().metrics_out.empty();
  return scenario;
}

ScenarioReport run_once(const CampaignOptions& options, const FaultPlan& plan,
                        std::uint64_t seed, bool legacy_scan = false) {
  return ars::chaos::run_scenario(
      make_scenario(options, plan, seed, legacy_scan));
}

/// Write one flight-recorder bundle; returns the path (empty on failure).
std::string record_bundle(const CampaignOptions& options,
                          const FaultPlan& plan, std::uint64_t seed,
                          const ScenarioReport& report,
                          const ars::chaos::FlightTrigger& trigger) {
  const std::string path = options.bundle_dir + "/bundle_" + plan.name() +
                           "_seed" + std::to_string(seed) + ".json";
  const auto bundle =
      ars::chaos::make_bundle(make_scenario(options, plan, seed), report,
                              trigger);
  if (const auto status = ars::chaos::write_bundle(path, bundle);
      !status.is_ok()) {
    std::cerr << "chaos_campaign: " << status.error().to_string() << "\n";
    return {};
  }
  std::cout << "  flight recorder: " << path << "\n";
  return path;
}

PlanResult sweep_plan(const CampaignOptions& options, const FaultPlan& plan) {
  PlanResult result;
  result.plan_name = plan.name();
  int passing_replays_left = options.replay_passing;
  for (int i = 0; i < options.seeds; ++i) {
    const std::uint64_t seed = options.seed_base + static_cast<std::uint64_t>(i);
    const ScenarioReport report = run_once(options, plan, seed);
    SeedResult seed_result;
    seed_result.seed = seed;
    seed_result.ok = report.ok();
    seed_result.trace_hash = report.trace_hash;
    seed_result.events_executed = report.events_executed;
    seed_result.migrations_succeeded = report.migrations_succeeded;
    seed_result.migrations_aborted = report.migrations_aborted;
    seed_result.migrations_rolled_back = report.migrations_rolled_back;
    seed_result.resizes_committed = report.resizes_committed;
    seed_result.resizes_aborted = report.resizes_aborted;
    seed_result.resizes_rolled_back = report.resizes_rolled_back;
    seed_result.messages_dropped = report.messages_dropped;
    seed_result.decisions = report.decisions;
    seed_result.decision_log_hash = report.decision_log_hash;
    if (!options.trace_dir.empty() && !report.trace_jsonl.empty()) {
      const std::string path = options.trace_dir + "/trace_" + plan.name() +
                               "_seed" + std::to_string(seed) + ".jsonl";
      std::filesystem::create_directories(options.trace_dir);
      std::ofstream trace_out(path);
      if (trace_out) {
        trace_out << report.trace_jsonl;
      } else {
        std::cerr << "chaos_campaign: cannot write " << path << "\n";
      }
    }
    // Uniform bench flags: one labelled file per plan/seed.
    const ars::bench::ObsExport& obs = ars::bench::obs_export();
    const std::string seed_label =
        plan.name() + "_seed" + std::to_string(seed);
    if (!obs.trace_out.empty() && !report.trace_jsonl.empty()) {
      const std::string path =
          ars::bench::labelled_path(obs.trace_out, seed_label);
      ars::bench::ensure_parent_dir(path);
      std::ofstream out(path);
      if (out) {
        out << report.trace_jsonl;
      } else {
        std::cerr << "chaos_campaign: cannot write " << path << "\n";
      }
    }
    if (!obs.metrics_out.empty() && !report.metrics_json.empty()) {
      const std::string path =
          ars::bench::labelled_path(obs.metrics_out, seed_label);
      ars::bench::ensure_parent_dir(path);
      std::ofstream out(path);
      if (out) {
        out << report.metrics_json << "\n";
      } else {
        std::cerr << "chaos_campaign: cannot write " << path << "\n";
      }
    }
    if (!report.ok()) {
      ++result.failures;
      seed_result.violations = report.invariants.summary();
      std::cout << "  seed " << seed << " FAIL\n";
      for (const ars::chaos::Violation& violation :
           report.invariants.violations) {
        std::cout << "    " << violation.invariant << " ["
                  << violation.subject << "]: " << violation.detail << "\n";
      }
      if (!options.bundle_dir.empty()) {
        const std::string path = record_bundle(
            options, plan, seed, report,
            {"invariant-violation", report.invariants.summary()});
        if (!path.empty()) {
          result.bundles.push_back(path);
        }
      }
    }
    // Replay every failing seed (a reproducer must reproduce) and the first
    // few passing ones; the rerun must be byte-identical.
    const bool replay = !report.ok() || passing_replays_left > 0;
    if (replay) {
      if (report.ok()) {
        --passing_replays_left;
      }
      const ScenarioReport again = run_once(options, plan, seed);
      seed_result.replayed = true;
      seed_result.replay_identical =
          again.trace_hash == report.trace_hash &&
          again.events_executed == report.events_executed;
      if (!seed_result.replay_identical) {
        ++result.replay_mismatches;
        std::cout << "  seed " << seed << " REPLAY MISMATCH: trace "
                  << report.trace_hash << " vs " << again.trace_hash << "\n";
        if (!options.bundle_dir.empty()) {
          const std::string path = record_bundle(
              options, plan, seed, report,
              {"replay-mismatch",
               "trace " + std::to_string(report.trace_hash) + " vs " +
                   std::to_string(again.trace_hash)});
          if (!path.empty()) {
            result.bundles.push_back(path);
          }
        }
      }
    }
    if (options.verify_scan_equivalence) {
      // Same seed, registry forced onto the reference full-table scan: the
      // run must be indistinguishable — trace and decision log included.
      const ScenarioReport legacy = run_once(options, plan, seed, true);
      seed_result.scan_checked = true;
      seed_result.scan_equivalent =
          legacy.trace_hash == report.trace_hash &&
          legacy.decisions == report.decisions &&
          legacy.decision_log_hash == report.decision_log_hash;
      if (!seed_result.scan_equivalent) {
        ++result.scan_mismatches;
        std::cout << "  seed " << seed << " SCAN MISMATCH: indexed decisions "
                  << report.decisions << " (log " << report.decision_log_hash
                  << ", trace " << report.trace_hash << ") vs legacy "
                  << legacy.decisions << " (log " << legacy.decision_log_hash
                  << ", trace " << legacy.trace_hash << ")\n";
      }
    }
    result.seeds.push_back(std::move(seed_result));
  }
  return result;
}

ars::obs::JsonValue to_json(const PlanResult& result) {
  ars::obs::JsonObject plan_object;
  plan_object["plan"] = ars::obs::JsonValue{result.plan_name};
  plan_object["failures"] =
      ars::obs::JsonValue{static_cast<double>(result.failures)};
  plan_object["replay_mismatches"] =
      ars::obs::JsonValue{static_cast<double>(result.replay_mismatches)};
  plan_object["scan_mismatches"] =
      ars::obs::JsonValue{static_cast<double>(result.scan_mismatches)};
  ars::obs::JsonArray seeds;
  for (const SeedResult& seed : result.seeds) {
    ars::obs::JsonObject seed_object;
    seed_object["seed"] =
        ars::obs::JsonValue{static_cast<double>(seed.seed)};
    seed_object["ok"] = ars::obs::JsonValue{seed.ok};
    if (!seed.violations.empty()) {
      seed_object["violations"] = ars::obs::JsonValue{seed.violations};
    }
    seed_object["trace_hash"] =
        ars::obs::JsonValue{std::to_string(seed.trace_hash)};
    seed_object["events_executed"] =
        ars::obs::JsonValue{static_cast<double>(seed.events_executed)};
    seed_object["migrations_succeeded"] = ars::obs::JsonValue{
        static_cast<double>(seed.migrations_succeeded)};
    seed_object["migrations_aborted"] = ars::obs::JsonValue{
        static_cast<double>(seed.migrations_aborted)};
    seed_object["migrations_rolled_back"] = ars::obs::JsonValue{
        static_cast<double>(seed.migrations_rolled_back)};
    seed_object["resizes_committed"] = ars::obs::JsonValue{
        static_cast<double>(seed.resizes_committed)};
    seed_object["resizes_aborted"] =
        ars::obs::JsonValue{static_cast<double>(seed.resizes_aborted)};
    seed_object["resizes_rolled_back"] = ars::obs::JsonValue{
        static_cast<double>(seed.resizes_rolled_back)};
    seed_object["messages_dropped"] =
        ars::obs::JsonValue{static_cast<double>(seed.messages_dropped)};
    seed_object["decisions"] =
        ars::obs::JsonValue{static_cast<double>(seed.decisions)};
    seed_object["decision_log_hash"] =
        ars::obs::JsonValue{std::to_string(seed.decision_log_hash)};
    if (seed.replayed) {
      seed_object["replay_identical"] =
          ars::obs::JsonValue{seed.replay_identical};
    }
    if (seed.scan_checked) {
      seed_object["scan_equivalent"] =
          ars::obs::JsonValue{seed.scan_equivalent};
    }
    seeds.push_back(ars::obs::JsonValue{std::move(seed_object)});
  }
  plan_object["seeds"] = ars::obs::JsonValue{std::move(seeds)};
  if (!result.bundles.empty()) {
    ars::obs::JsonArray bundles;
    for (const std::string& path : result.bundles) {
      bundles.push_back(ars::obs::JsonValue{path});
    }
    plan_object["bundles"] = ars::obs::JsonValue{std::move(bundles)};
  }
  return ars::obs::JsonValue{std::move(plan_object)};
}

/// --replay-bundle: re-run one flight-recorder bundle and report whether it
/// reproduces.  Exit 0 iff it does.
int replay_bundle_main(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "chaos_campaign: cannot read " << path << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto replay = ars::chaos::replay_bundle(text.str());
  if (!replay.has_value()) {
    std::cerr << "chaos_campaign: " << path << ": "
              << replay.error().to_string() << "\n";
    return 2;
  }
  std::cout << "bundle " << path << " (trigger: " << replay->trigger.kind
            << ")\n"
            << "  trace " << (replay->trace_identical ? "identical" : "DIVERGED")
            << " (" << replay->report.trace_hash << " vs recorded "
            << replay->recorded_trace_hash << ")\n"
            << "  violations "
            << (replay->violations_match ? "reproduced" : "DIFFER") << ": "
            << replay->report.invariants.summary() << "\n";
  if (!replay->reproduced()) {
    std::cout << "BUNDLE DOES NOT REPRODUCE\n";
    return 1;
  }
  std::cout << "BUNDLE REPRODUCES\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Hundreds of runs, each of which legitimately drops messages and crashes
  // hosts — the per-event warnings would swamp the campaign summary.
  ars::support::Logger::global().set_level(ars::support::LogLevel::kOff);
  CampaignOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-plans") {
      for (const std::string& name : FaultPlan::builtin_names()) {
        std::cout << name << "\n";
      }
      std::cout << "none\n";
      return 0;
    }
    if (auto dump = arg_value(arg, "--dump-plan")) {
      std::cout << load_plan(*dump).to_json() << "\n";
      return 0;
    }
    if (auto name = arg_value(arg, "--sabotage")) {
      const auto sabotage = ars::sim::sabotage_from(*name);
      if (!sabotage.has_value()) {
        usage_error("unknown --sabotage=" + *name);
      }
      options.sabotage = *sabotage;
    } else if (auto mjobs = arg_value(arg, "--malleable-jobs")) {
      options.malleable_jobs = std::stoi(*mjobs);
    } else if (arg == "--verify-scan-equivalence") {
      options.verify_scan_equivalence = true;
    } else if (arg == "--delta-heartbeats") {
      options.delta_heartbeats = true;
    } else if (arg == "--precopy") {
      options.precopy = true;
    } else if (auto value = arg_value(arg, "--seeds")) {
      options.seeds = std::stoi(*value);
    } else if (auto value2 = arg_value(arg, "--seed-base")) {
      options.seed_base = std::stoull(*value2);
    } else if (auto value3 = arg_value(arg, "--plan")) {
      options.plans.push_back(*value3);
    } else if (auto value4 = arg_value(arg, "--hosts")) {
      options.hosts = std::stoi(*value4);
    } else if (auto value5 = arg_value(arg, "--apps")) {
      options.apps = std::stoi(*value5);
    } else if (auto value6 = arg_value(arg, "--horizon")) {
      options.horizon = std::stod(*value6);
    } else if (auto value7 = arg_value(arg, "--replay-passing")) {
      options.replay_passing = std::stoi(*value7);
    } else if (auto value8 = arg_value(arg, "--out")) {
      options.out_path = *value8;
    } else if (auto value9 = arg_value(arg, "--bundle-dir")) {
      options.bundle_dir = *value9;
    } else if (auto value10 = arg_value(arg, "--trace-dir")) {
      options.trace_dir = *value10;
    } else if (auto value11 = arg_value(arg, "--replay-bundle")) {
      return replay_bundle_main(*value11);
    } else if (ars::bench::consume_obs_flag(arg)) {
      // --trace-out= / --metrics-out= recorded in bench::obs_export()
    } else {
      usage_error("unknown argument: " + arg);
    }
  }
  if (options.seeds <= 0) {
    usage_error("--seeds must be positive");
  }
  if (options.plans.empty()) {
    options.plans = FaultPlan::builtin_names();
    options.plans.push_back("none");
  }

  std::vector<PlanResult> results;
  int total_failures = 0;
  int total_mismatches = 0;
  int total_scan_mismatches = 0;
  for (const std::string& spec : options.plans) {
    const FaultPlan plan = load_plan(spec);
    std::cout << "plan \"" << plan.name() << "\": " << options.seeds
              << " seeds from " << options.seed_base << "\n";
    PlanResult result = sweep_plan(options, plan);
    std::cout << "  " << (options.seeds - result.failures) << "/"
              << options.seeds << " clean, " << result.replay_mismatches
              << " replay mismatches";
    if (options.verify_scan_equivalence) {
      std::cout << ", " << result.scan_mismatches << " scan mismatches";
    }
    std::cout << "\n";
    total_failures += result.failures;
    total_mismatches += result.replay_mismatches;
    total_scan_mismatches += result.scan_mismatches;
    results.push_back(std::move(result));
  }

  if (!options.out_path.empty()) {
    ars::obs::JsonObject report;
    report["seeds"] = ars::obs::JsonValue{static_cast<double>(options.seeds)};
    report["seed_base"] =
        ars::obs::JsonValue{static_cast<double>(options.seed_base)};
    report["hosts"] = ars::obs::JsonValue{static_cast<double>(options.hosts)};
    report["apps"] = ars::obs::JsonValue{static_cast<double>(options.apps)};
    report["horizon"] = ars::obs::JsonValue{options.horizon};
    report["failures"] = ars::obs::JsonValue{static_cast<double>(total_failures)};
    report["replay_mismatches"] =
        ars::obs::JsonValue{static_cast<double>(total_mismatches)};
    report["scan_mismatches"] =
        ars::obs::JsonValue{static_cast<double>(total_scan_mismatches)};
    ars::obs::JsonArray plans;
    for (const PlanResult& result : results) {
      plans.push_back(to_json(result));
    }
    report["plans"] = ars::obs::JsonValue{std::move(plans)};
    std::ofstream out(options.out_path);
    if (!out) {
      std::cerr << "chaos_campaign: cannot write " << options.out_path << "\n";
      return 2;
    }
    out << ars::obs::JsonValue{std::move(report)}.dump() << "\n";
  }

  if (total_failures > 0 || total_mismatches > 0 || total_scan_mismatches > 0) {
    std::cout << "CAMPAIGN FAIL: " << total_failures << " violations, "
              << total_mismatches << " replay mismatches, "
              << total_scan_mismatches << " scan mismatches\n";
    return 1;
  }
  std::cout << "CAMPAIGN OK\n";
  return 0;
}

// ckpt_campaign: failure-waste sweep for the shared checkpoint store
// (DESIGN.md §17).
//
// Sweeps crash rate (host MTBF) x checkpoint strategy (periodic |
// cooperative) x job count over a seed range.  Every run is strict on the
// chaos invariants (no torn checkpoint restored, no lost process, ...) and
// a sample of seeds (always every failing one) is re-run to prove
// byte-identical replay.  Waste — checkpoint overhead, lost work, restart
// cost — is aggregated per configuration cell so the two strategies can be
// compared under identical failure pressure.
//
// Usage:
//   ckpt_campaign [--seeds=N] [--seed-base=N] [--mtbf=M1,M2,...]
//                 [--apps=A1,A2,...] [--hosts=N] [--horizon=T]
//                 [--iterations=N] [--state-mb=MB] [--aggregate-mbps=MBPS]
//                 [--replay-passing=N] [--require-coop-win]
//                 [--out=report.json]
//
// The interference knob is --aggregate-mbps: the shared store bandwidth all
// concurrent writes split fluid-flow style.  Once enough jobs checkpoint
// into a narrow store, uncoordinated (periodic) writes stretch each other
// out; the cooperative I/O scheduler serializes them and the per-cell waste
// table shows the difference.  --require-coop-win turns that comparison
// into the exit status: every swept cell must show cooperative total waste
// strictly below periodic's (CI runs one saturating cell with this flag;
// without it the comparison is informational).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ars/chaos/faultplan.hpp"
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
  std::vector<double> mtbfs = {120.0, 300.0};
  std::vector<int> apps = {3};
  int hosts = 4;
  double horizon = 1000.0;
  int iterations = 60;
  double state_mb = 60.0;       // 3 s snapshots, minutes of drain time
  double aggregate_mbps = 12.0;  // saturated the moment 2 jobs overlap
  // Crash-arrival window + reboot delay; overridden by --plan=FILE (a
  // scripts/gen_cluster_plan.py plan with host_mtbf fields).
  double crash_from = 40.0;
  double crash_until = 400.0;
  double reboot_after = 30.0;
  int replay_passing = 2;
  bool require_coop_win = false;
  std::string out_path;
};

struct SeedResult {
  std::uint64_t seed = 0;
  bool ok = false;
  std::string violations;
  std::uint64_t trace_hash = 0;
  std::uint64_t events_executed = 0;
  int rate_crashes = 0;
  std::size_t ckpt_commits = 0;
  std::size_t ckpt_aborts = 0;
  std::size_t ckpt_deferred = 0;
  std::size_t ckpt_preempted = 0;
  std::size_t torn_restores = 0;
  double waste_overhead_s = 0.0;
  double waste_lost_work_s = 0.0;
  double waste_restart_s = 0.0;
  bool replayed = false;
  bool replay_identical = true;
};

/// One cell of the sweep: (mtbf, job count, strategy) over all seeds.
struct CellResult {
  double mtbf = 0.0;
  int apps = 0;
  std::string strategy;
  std::vector<SeedResult> seeds;
  int failures = 0;
  int replay_mismatches = 0;
  double total_waste_s = 0.0;  // cluster waste summed over all seeds
  double overhead_s = 0.0;
  double lost_work_s = 0.0;
  double restart_s = 0.0;
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
  std::cerr << "ckpt_campaign: " << message << "\n"
            << "usage: ckpt_campaign [--seeds=N] [--seed-base=N]\n"
            << "         [--mtbf=M1,M2,...] [--plan=cluster-plan.json]\n"
            << "         [--apps=A1,A2,...]\n"
            << "         [--hosts=N] [--horizon=T] [--iterations=N]\n"
            << "         [--state-mb=MB] [--aggregate-mbps=MBPS]\n"
            << "         [--replay-passing=N] [--require-coop-win]\n"
            << "         [--out=report.json]\n";
  std::exit(2);
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::string::size_type start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const auto end = comma == std::string::npos ? text.size() : comma;
    if (end > start) {
      items.push_back(text.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return items;
}

/// The ckpt-storm shape with the crash rate swept: every worker host draws
/// exponential arrivals at 1/mtbf over the crash window (default
/// [40, 400]), so a longer --horizon buys pure drain time — the last
/// relaunch always gets a quiet stretch to redo its lost work and finish.
FaultPlan make_plan(const CampaignOptions& options, double mtbf) {
  FaultPlan plan{"ckpt-sweep"};
  plan.host_crash_rate(options.crash_from,
                       std::min(options.horizon - 300.0, options.crash_until),
                       mtbf, "*", options.reboot_after)
      .message_loss(60.0, 300.0, 0.05);
  return plan;
}

/// Pull the per-host crash-rate fields out of a cluster plan written by
/// scripts/gen_cluster_plan.py --host-mtbf: its host_mtbf becomes the sole
/// swept failure rate and the window/reboot knobs replace the defaults.
void apply_plan_file(const std::string& path, CampaignOptions& options) {
  std::ifstream in(path);
  if (!in) {
    usage_error("cannot read plan file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto document = ars::obs::json_parse(text.str());
  if (!document.has_value()) {
    usage_error(path + ": " + document.error().message);
  }
  const ars::obs::JsonValue* mtbf = document->find("host_mtbf");
  if (mtbf == nullptr || !mtbf->is_number() || mtbf->as_number() <= 0.0) {
    usage_error(path + ": no usable host_mtbf field (generate the plan "
                       "with gen_cluster_plan.py --host-mtbf)");
  }
  options.mtbfs = {mtbf->as_number()};
  const auto number = [&](const char* key, double fallback) {
    const ars::obs::JsonValue* value = document->find(key);
    return value != nullptr && value->is_number() ? value->as_number()
                                                  : fallback;
  };
  options.crash_from = number("mtbf_from", options.crash_from);
  options.crash_until = number("mtbf_until", options.crash_until);
  options.reboot_after = number("reboot_after", options.reboot_after);
}

ScenarioOptions make_scenario(const CampaignOptions& options, double mtbf,
                              int apps, const std::string& strategy,
                              std::uint64_t seed) {
  ScenarioOptions scenario;
  scenario.hosts = options.hosts;
  scenario.apps = apps;
  scenario.iterations = options.iterations;
  scenario.horizon = options.horizon;
  scenario.seed = seed;
  scenario.plan = make_plan(options, mtbf);
  scenario.ckpt_strategy = strategy;
  scenario.ckpt_mtbf = mtbf;  // Young/Daly sees the true failure rate
  scenario.ckpt_state_mb = options.state_mb;
  scenario.ckpt_aggregate_mbps = options.aggregate_mbps;
  return scenario;
}

CellResult sweep_cell(const CampaignOptions& options, double mtbf, int apps,
                      const std::string& strategy) {
  CellResult cell;
  cell.mtbf = mtbf;
  cell.apps = apps;
  cell.strategy = strategy;
  int passing_replays_left = options.replay_passing;
  for (int i = 0; i < options.seeds; ++i) {
    const std::uint64_t seed =
        options.seed_base + static_cast<std::uint64_t>(i);
    const ScenarioOptions scenario =
        make_scenario(options, mtbf, apps, strategy, seed);
    const ScenarioReport report = ars::chaos::run_scenario(scenario);
    SeedResult result;
    result.seed = seed;
    result.ok = report.ok();
    result.trace_hash = report.trace_hash;
    result.events_executed = report.events_executed;
    result.rate_crashes = report.faults.rate_crashes;
    result.ckpt_commits = report.ckpt_commits;
    result.ckpt_aborts = report.ckpt_aborts;
    result.ckpt_deferred = report.ckpt_deferred;
    result.ckpt_preempted = report.ckpt_preempted;
    result.torn_restores = report.torn_restores;
    result.waste_overhead_s = report.waste_overhead_s;
    result.waste_lost_work_s = report.waste_lost_work_s;
    result.waste_restart_s = report.waste_restart_s;
    cell.overhead_s += report.waste_overhead_s;
    cell.lost_work_s += report.waste_lost_work_s;
    cell.restart_s += report.waste_restart_s;
    cell.total_waste_s += report.waste_total_s();
    if (!report.ok()) {
      ++cell.failures;
      result.violations = report.invariants.summary();
      std::cout << "  seed " << seed << " FAIL\n";
      for (const ars::chaos::Violation& violation :
           report.invariants.violations) {
        std::cout << "    " << violation.invariant << " ["
                  << violation.subject << "]: " << violation.detail << "\n";
      }
    }
    // Replay every failing seed (a reproducer must reproduce) plus the
    // first few passing ones; the rerun must be byte-identical.
    if (!report.ok() || passing_replays_left > 0) {
      if (report.ok()) {
        --passing_replays_left;
      }
      const ScenarioReport again = ars::chaos::run_scenario(scenario);
      result.replayed = true;
      result.replay_identical =
          again.trace_hash == report.trace_hash &&
          again.events_executed == report.events_executed;
      if (!result.replay_identical) {
        ++cell.replay_mismatches;
        std::cout << "  seed " << seed << " REPLAY MISMATCH: trace "
                  << report.trace_hash << " vs " << again.trace_hash << "\n";
      }
    }
    cell.seeds.push_back(std::move(result));
  }
  return cell;
}

ars::obs::JsonValue to_json(const CellResult& cell) {
  ars::obs::JsonObject object;
  object["mtbf"] = ars::obs::JsonValue{cell.mtbf};
  object["apps"] = ars::obs::JsonValue{static_cast<double>(cell.apps)};
  object["strategy"] = ars::obs::JsonValue{cell.strategy};
  object["failures"] =
      ars::obs::JsonValue{static_cast<double>(cell.failures)};
  object["replay_mismatches"] =
      ars::obs::JsonValue{static_cast<double>(cell.replay_mismatches)};
  object["waste_total_s"] = ars::obs::JsonValue{cell.total_waste_s};
  object["waste_overhead_s"] = ars::obs::JsonValue{cell.overhead_s};
  object["waste_lost_work_s"] = ars::obs::JsonValue{cell.lost_work_s};
  object["waste_restart_s"] = ars::obs::JsonValue{cell.restart_s};
  ars::obs::JsonArray seeds;
  for (const SeedResult& seed : cell.seeds) {
    ars::obs::JsonObject seed_object;
    seed_object["seed"] = ars::obs::JsonValue{static_cast<double>(seed.seed)};
    seed_object["ok"] = ars::obs::JsonValue{seed.ok};
    if (!seed.violations.empty()) {
      seed_object["violations"] = ars::obs::JsonValue{seed.violations};
    }
    seed_object["trace_hash"] =
        ars::obs::JsonValue{std::to_string(seed.trace_hash)};
    seed_object["events_executed"] =
        ars::obs::JsonValue{static_cast<double>(seed.events_executed)};
    seed_object["rate_crashes"] =
        ars::obs::JsonValue{static_cast<double>(seed.rate_crashes)};
    seed_object["ckpt_commits"] =
        ars::obs::JsonValue{static_cast<double>(seed.ckpt_commits)};
    seed_object["ckpt_aborts"] =
        ars::obs::JsonValue{static_cast<double>(seed.ckpt_aborts)};
    seed_object["ckpt_deferred"] =
        ars::obs::JsonValue{static_cast<double>(seed.ckpt_deferred)};
    seed_object["ckpt_preempted"] =
        ars::obs::JsonValue{static_cast<double>(seed.ckpt_preempted)};
    seed_object["torn_restores"] =
        ars::obs::JsonValue{static_cast<double>(seed.torn_restores)};
    seed_object["waste_overhead_s"] =
        ars::obs::JsonValue{seed.waste_overhead_s};
    seed_object["waste_lost_work_s"] =
        ars::obs::JsonValue{seed.waste_lost_work_s};
    seed_object["waste_restart_s"] =
        ars::obs::JsonValue{seed.waste_restart_s};
    if (seed.replayed) {
      seed_object["replay_identical"] =
          ars::obs::JsonValue{seed.replay_identical};
    }
    seeds.push_back(ars::obs::JsonValue{std::move(seed_object)});
  }
  object["seeds"] = ars::obs::JsonValue{std::move(seeds)};
  return ars::obs::JsonValue{std::move(object)};
}

}  // namespace

int main(int argc, char** argv) {
  // Hundreds of runs, each of which legitimately crashes hosts and drops
  // messages — the per-event warnings would swamp the waste table.
  ars::support::Logger::global().set_level(ars::support::LogLevel::kOff);
  CampaignOptions options;
  std::string plan_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require-coop-win") {
      options.require_coop_win = true;
    } else if (auto plan = arg_value(arg, "--plan")) {
      plan_path = *plan;
    } else if (auto value = arg_value(arg, "--seeds")) {
      options.seeds = std::stoi(*value);
    } else if (auto value2 = arg_value(arg, "--seed-base")) {
      options.seed_base = std::stoull(*value2);
    } else if (auto value3 = arg_value(arg, "--mtbf")) {
      options.mtbfs.clear();
      for (const std::string& item : split_list(*value3)) {
        options.mtbfs.push_back(std::stod(item));
      }
    } else if (auto value4 = arg_value(arg, "--apps")) {
      options.apps.clear();
      for (const std::string& item : split_list(*value4)) {
        options.apps.push_back(std::stoi(item));
      }
    } else if (auto value5 = arg_value(arg, "--hosts")) {
      options.hosts = std::stoi(*value5);
    } else if (auto value6 = arg_value(arg, "--horizon")) {
      options.horizon = std::stod(*value6);
    } else if (auto value7 = arg_value(arg, "--iterations")) {
      options.iterations = std::stoi(*value7);
    } else if (auto value8 = arg_value(arg, "--state-mb")) {
      options.state_mb = std::stod(*value8);
    } else if (auto value9 = arg_value(arg, "--aggregate-mbps")) {
      options.aggregate_mbps = std::stod(*value9);
    } else if (auto value10 = arg_value(arg, "--replay-passing")) {
      options.replay_passing = std::stoi(*value10);
    } else if (auto value11 = arg_value(arg, "--out")) {
      options.out_path = *value11;
    } else if (ars::bench::consume_obs_flag(arg)) {
      // --trace-out= / --metrics-out= accepted for flag uniformity
    } else {
      usage_error("unknown argument: " + arg);
    }
  }
  if (!plan_path.empty()) {
    apply_plan_file(plan_path, options);
  }
  if (options.seeds <= 0) {
    usage_error("--seeds must be positive");
  }
  if (options.mtbfs.empty() || options.apps.empty()) {
    usage_error("--mtbf and --apps need at least one value");
  }
  if (options.horizon <= 340.0) {
    usage_error("--horizon must exceed 340 (the crash window needs room)");
  }

  const std::vector<std::string> strategies = {"periodic", "cooperative"};
  std::vector<CellResult> cells;
  int total_failures = 0;
  int total_mismatches = 0;
  int coop_losses = 0;
  for (const double mtbf : options.mtbfs) {
    for (const int apps : options.apps) {
      // An index, not a pointer: push_back below may reallocate `cells`.
      std::optional<std::size_t> periodic_cell;
      for (const std::string& strategy : strategies) {
        std::cout << "mtbf " << mtbf << "s, " << apps << " jobs, "
                  << strategy << ": " << options.seeds << " seeds from "
                  << options.seed_base << "\n";
        CellResult cell = sweep_cell(options, mtbf, apps, strategy);
        std::cout << "  " << (options.seeds - cell.failures) << "/"
                  << options.seeds << " clean, " << cell.replay_mismatches
                  << " replay mismatches, waste " << cell.total_waste_s
                  << " s (overhead " << cell.overhead_s << ", lost "
                  << cell.lost_work_s << ", restart " << cell.restart_s
                  << ")\n";
        total_failures += cell.failures;
        total_mismatches += cell.replay_mismatches;
        cells.push_back(std::move(cell));
        if (strategy == "periodic") {
          periodic_cell = cells.size() - 1;
        } else if (periodic_cell.has_value()) {
          const double saved =
              cells[*periodic_cell].total_waste_s - cells.back().total_waste_s;
          const bool win = saved > 0.0;
          std::cout << "  cooperative vs periodic: "
                    << (win ? "saves " : "LOSES ")
                    << (win ? saved : -saved) << " s total waste\n";
          if (!win) {
            ++coop_losses;
          }
        }
      }
    }
  }

  if (!options.out_path.empty()) {
    ars::obs::JsonObject report;
    report["seeds"] =
        ars::obs::JsonValue{static_cast<double>(options.seeds)};
    report["seed_base"] =
        ars::obs::JsonValue{static_cast<double>(options.seed_base)};
    report["hosts"] =
        ars::obs::JsonValue{static_cast<double>(options.hosts)};
    report["horizon"] = ars::obs::JsonValue{options.horizon};
    report["state_mb"] = ars::obs::JsonValue{options.state_mb};
    report["aggregate_mbps"] = ars::obs::JsonValue{options.aggregate_mbps};
    report["failures"] =
        ars::obs::JsonValue{static_cast<double>(total_failures)};
    report["replay_mismatches"] =
        ars::obs::JsonValue{static_cast<double>(total_mismatches)};
    report["coop_losses"] =
        ars::obs::JsonValue{static_cast<double>(coop_losses)};
    ars::obs::JsonArray cell_array;
    for (const CellResult& cell : cells) {
      cell_array.push_back(to_json(cell));
    }
    report["cells"] = ars::obs::JsonValue{std::move(cell_array)};
    std::ofstream out(options.out_path);
    if (!out) {
      std::cerr << "ckpt_campaign: cannot write " << options.out_path
                << "\n";
      return 2;
    }
    out << ars::obs::JsonValue{std::move(report)}.dump() << "\n";
  }

  const bool coop_gate_failed = options.require_coop_win && coop_losses > 0;
  if (total_failures > 0 || total_mismatches > 0 || coop_gate_failed) {
    std::cout << "CAMPAIGN FAIL: " << total_failures << " violations, "
              << total_mismatches << " replay mismatches";
    if (options.require_coop_win) {
      std::cout << ", " << coop_losses << " cells where cooperative lost";
    }
    std::cout << "\n";
    return 1;
  }
  std::cout << "CAMPAIGN OK\n";
  return 0;
}

#pragma once
// Sample protocol messages shared by the codec tests: one or more of every
// wire type, filled so each encoder branch runs (optional fields present and
// absent, empty text, XML specials, rounding-sensitive doubles, negative and
// 64-bit integers).

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ars/obs/trace_ctx.hpp"
#include "ars/support/rng.hpp"
#include "ars/support/strings.hpp"
#include "ars/xmlproto/messages.hpp"

namespace ars::xmlproto::testing {

struct Sample {
  const char* label;
  ProtocolMessage message;
};

inline std::vector<Sample> codec_samples() {
  std::vector<Sample> samples;

  RegisterMsg reg;
  reg.info.host = "ws1";
  reg.info.ip = "10.0.0.1";
  reg.info.os = "SunOS 5.8 <sparc> & \"friends\"";
  reg.info.memory_bytes = std::numeric_limits<std::uint64_t>::max();
  reg.info.disk_bytes = 20ULL * 1024 * 1024 * 1024;
  reg.info.cpu_speed = 1.25;
  reg.info.byte_order = "big";
  reg.monitor_port = 5001;
  reg.commander_port = 5002;
  samples.push_back({"register", reg});

  UpdateMsg update;
  update.status.host = "h-19999";
  update.status.state = "overloaded";
  update.status.load1 = 2.5200004999;
  update.status.load5 = 0.0000005;
  update.status.cpu_util = 0.97;
  update.status.processes = -3;
  update.status.mem_available_pct = 42.5;
  update.status.disk_available = 1234567890123ULL;
  update.status.net_in_bps = 6.71e6;
  update.status.net_out_bps = -0.0;
  update.status.sockets_established = 703;
  update.status.timestamp = 280.1234565;
  samples.push_back({"update", update});

  UpdateBatchMsg batch;
  batch.renewals.push_back({"h-1", "free", 35.0});
  batch.renewals.push_back({"h-2", "busy", 1e15});
  batch.renewals.push_back({"", "", 0.1});
  samples.push_back({"update_batch", batch});
  samples.push_back({"update_batch.empty", UpdateBatchMsg{}});

  ConsultMsg consult;
  consult.host = "ws1";
  consult.reason = "overloaded for 63.0s";
  samples.push_back({"consult", consult});
  ConsultMsg escalated = consult;
  escalated.reason = "overloaded (escalated by ws2)";
  escalated.origin_registry = "ws2";
  escalated.pid = 1042;
  escalated.process_name = "test_tree";
  escalated.schema_name = "test_tree";
  escalated.commander_port = 5002;
  samples.push_back({"consult.escalated", escalated});

  MigrateCmd migrate;
  migrate.pid = 12;
  migrate.process_name = "test_tree.0";
  migrate.dest_host = "ws4";
  migrate.dest_ip = "10.0.0.4";
  migrate.dest_port = 5002;
  migrate.schema_name = "";
  samples.push_back({"migrate", migrate});

  AckMsg ack;
  ack.of = "migrate";
  ack.ok = false;
  ack.detail = "dest 'ws4' said \"no\" <busy> & gone";
  samples.push_back({"ack", ack});

  ProcessRegisterMsg preg;
  preg.host = "ws1";
  preg.pid = 2147483647;
  preg.name = "matmul";
  preg.start_time = 12.5;
  preg.migration_enabled = true;
  preg.schema_name = "matmul";
  samples.push_back({"process_register", preg});

  ProcessDeregisterMsg pdereg;
  pdereg.host = "ws1";
  pdereg.pid = -2147483647 - 1;
  samples.push_back({"process_deregister", pdereg});

  HealthReportMsg health;
  health.registry_host = "reg-3";
  health.registry_port = 6000;
  health.free_hosts = 120;
  health.busy_hosts = 7;
  health.overloaded_hosts = 1;
  health.timestamp = 33.3333333333;
  samples.push_back({"health", health});

  RecommendMsg recommend;
  recommend.found = true;
  recommend.dest_host = "ws7";
  recommend.dest_ip = "10.0.0.7";
  recommend.dest_port = 5002;
  samples.push_back({"recommend", recommend});
  samples.push_back({"recommend.none", RecommendMsg{}});

  EvacuateMsg evacuate;
  evacuate.host = "ws3";
  evacuate.reason = "planned shutdown";
  samples.push_back({"evacuate", evacuate});

  RelaunchCmd relaunch;
  relaunch.process_name = "stencil.2";
  relaunch.lost_host = "ws5";
  relaunch.schema_name = "stencil";
  samples.push_back({"relaunch", relaunch});

  MigrationOutcomeMsg committed;
  committed.process = "test_tree.0";
  committed.source = "ws1";
  committed.destination = "ws4";
  committed.outcome = "committed";
  samples.push_back({"migration_outcome", committed});
  MigrationOutcomeMsg rolled = committed;
  rolled.outcome = "rolled-back";
  rolled.reason = "dest-failed";
  rolled.phase = "restore";
  rolled.precopy_rounds = 3;
  rolled.precopy_bytes = std::numeric_limits<std::uint64_t>::max();
  samples.push_back({"migration_outcome.precopy", rolled});

  ResizeCmd resize;
  resize.job = "stencil";
  resize.verb = "expand";
  resize.delta = 3;
  resize.strategy = "tree";
  resize.hosts = {"ws2", "ws3", "ws4"};
  samples.push_back({"resize", resize});
  ResizeCmd shrink;
  shrink.job = "stencil";
  shrink.verb = "shrink";
  shrink.delta = -2;
  samples.push_back({"resize.shrink", shrink});

  ResizeOutcomeMsg resized;
  resized.job = "stencil";
  resized.verb = "expand";
  resized.delta = 3;
  resized.outcome = "partial-rollback";
  resized.reason = "spawn-timeout";
  resized.phase = "spawn";
  resized.ranks_after = 5;
  samples.push_back({"resize_outcome", resized});

  CkptIoRequestMsg request;
  request.host = "ws1";
  request.process = "matmul";
  request.verb = "request";
  request.bytes = 60ULL * 1000 * 1000;
  request.risk = 1.0000005;
  samples.push_back({"ckpt_io_request", request});
  CkptIoRequestMsg done;
  done.host = "ws1";
  done.process = "matmul";
  done.verb = "done";
  samples.push_back({"ckpt_io_request.done", done});

  CkptIoGrantMsg grant;
  grant.process = "matmul";
  grant.verb = "defer";
  grant.retry_after = 2.75;
  samples.push_back({"ckpt_io_grant", grant});

  return samples;
}

/// The context the traced golden documents carry.
inline obs::TraceCtx golden_ctx() { return obs::TraceCtx{1234567890123ULL, 42}; }

// ---- seeded random messages ------------------------------------------------

/// Text of 0..20 characters drawn from an alphabet with the XML specials
/// and inner whitespace.  Trimmed, because the reader canonicalizes element
/// text by trimming it.
inline std::string random_text(support::Rng& rng) {
  static constexpr char kAlphabet[] = "abcXYZ019 ._-:&<>\"'\t/;=";
  std::string text;
  const auto length = rng.uniform_int(0, 20);
  for (std::int64_t i = 0; i < length; ++i) {
    text.push_back(kAlphabet[rng.uniform_int(0, sizeof kAlphabet - 2)]);
  }
  return std::string(support::trim(text));
}

/// Any finite double, with magnitudes from 1e-9 to 1e300 and both signs.
inline double random_double(support::Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return 0.0;
    case 1:
      return rng.uniform(-10.0, 10.0);
    case 2:
      return static_cast<double>(rng.uniform_int(-100000, 100000)) / 64.0;
    default:
      return rng.uniform(-1.0, 1.0) *
             std::pow(10.0, static_cast<double>(rng.uniform_int(-9, 300)));
  }
}

inline int random_int(support::Rng& rng) {
  return static_cast<int>(rng.uniform_int(std::numeric_limits<int>::min(),
                                          std::numeric_limits<int>::max()));
}

inline std::uint64_t random_uint(support::Rng& rng) {
  return rng.uniform() < 0.25 ? std::numeric_limits<std::uint64_t>::max()
                              : rng() >> rng.uniform_int(0, 63);
}

/// A random message of ProtocolMessage alternative `type`.
inline ProtocolMessage random_message(support::Rng& rng, std::size_t type) {
  auto text = [&] { return random_text(rng); };
  auto real = [&] { return random_double(rng); };
  // risk and retry_after are written only when positive; a positive value
  // below the wire's 1e-6 resolution would be written as 0.000000 and read
  // back as absent (see WireQuirks.SubResolutionOptionalDoubleIsDropped),
  // so these are drawn as zero or at least 1e-6.
  auto optional_positive = [&] {
    return rng.uniform() < 0.5 ? 0.0 : std::abs(real()) + 1e-6;
  };
  auto integer = [&] { return random_int(rng); };
  auto flag = [&] { return rng.uniform() < 0.5; };
  auto maybe_zero = [&](int value) { return rng.uniform() < 0.5 ? 0 : value; };
  switch (type) {
    case 0: {
      RegisterMsg m;
      m.info = {text(), text(), text(), random_uint(rng), random_uint(rng),
                real(), text()};
      m.monitor_port = integer();
      m.commander_port = integer();
      return m;
    }
    case 1:
      return UpdateMsg{{text(), text(), real(), real(), real(), integer(),
                        real(), random_uint(rng), real(), real(), integer(),
                        real()}};
    case 2: {
      UpdateBatchMsg m;
      const auto count = rng.uniform_int(0, 5);
      for (std::int64_t i = 0; i < count; ++i) {
        m.renewals.push_back({text(), text(), real()});
      }
      return m;
    }
    case 3:
      return ConsultMsg{text(), text(), text(), maybe_zero(integer()),
                        text(), text(), maybe_zero(integer())};
    case 4:
      return MigrateCmd{integer(), text(), text(), text(), integer(), text()};
    case 5:
      return AckMsg{text(), flag(), text()};
    case 6:
      return ProcessRegisterMsg{text(), integer(), text(), real(), flag(),
                                text()};
    case 7:
      return ProcessDeregisterMsg{text(), integer()};
    case 8:
      return HealthReportMsg{text(),    integer(), integer(),
                             integer(), integer(), real()};
    case 9:
      return RecommendMsg{flag(), text(), text(), integer()};
    case 10:
      return EvacuateMsg{text(), text()};
    case 11:
      return RelaunchCmd{text(), text(), text()};
    case 12: {
      MigrationOutcomeMsg m{text(), text(), text(), text(),
                            text(), text(), maybe_zero(integer()), 0};
      m.precopy_bytes = m.precopy_rounds > 0 ? random_uint(rng) : 0;
      return m;
    }
    case 13: {
      ResizeCmd m{text(), text(), integer(), text(), {}};
      const auto count = rng.uniform_int(0, 4);
      for (std::int64_t i = 0; i < count; ++i) {
        m.hosts.push_back(text());
      }
      return m;
    }
    case 14:
      return ResizeOutcomeMsg{text(), text(),    integer(), text(),
                              text(), text(), integer()};
    case 15: {
      CkptIoRequestMsg m{text(), text(), text(), 0, 0.0};
      if (flag()) {
        m.bytes = random_uint(rng);
        m.risk = optional_positive();
      }
      return m;
    }
    default:
      return CkptIoGrantMsg{text(), text(), optional_positive()};
  }
}

/// No context, a root-only context, or a full one.
inline obs::TraceCtx random_ctx(support::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return {};
    case 1:
      return obs::TraceCtx{random_uint(rng) | 1, 0};
    default:
      return obs::TraceCtx{random_uint(rng) | 1, random_uint(rng) | 1};
  }
}

}  // namespace ars::xmlproto::testing

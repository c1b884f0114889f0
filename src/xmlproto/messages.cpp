#include "ars/xmlproto/messages.hpp"

#include <array>
#include <optional>
#include <span>

#include "ars/support/strings.hpp"
#include "ars/xmlproto/xml.hpp"

namespace ars::xmlproto {

using support::Error;
using support::Expected;
using support::make_error;

namespace {

/// Wire type tags, in ProtocolMessage alternative order.
constexpr std::array<std::string_view, std::variant_size_v<ProtocolMessage>>
    kTypeNames = {
        "register",          "update",
        "update_batch",      "consult",
        "migrate",           "ack",
        "process_register",  "process_deregister",
        "health",            "recommend",
        "evacuate",          "relaunch",
        "migration_outcome", "resize",
        "resize_outcome",    "ckpt_io_request",
        "ckpt_io_grant",
};

// ---- encoding ---------------------------------------------------------------

/// Writes each message's children in wire order.  Optional fields are
/// emitted only when set, so older documents keep their exact byte form.
struct Encoder {
  XmlWriter& w;

  void operator()(const RegisterMsg& m) const {
    w.open("static");
    w.field("host", m.info.host);
    w.field("ip", m.info.ip);
    w.field("os", m.info.os);
    w.field("memory", m.info.memory_bytes);
    w.field("disk", m.info.disk_bytes);
    w.field("cpu_speed", m.info.cpu_speed);
    w.field("byte_order", m.info.byte_order);
    w.close("static");
    w.field("monitor_port", m.monitor_port);
    w.field("commander_port", m.commander_port);
  }
  void operator()(const UpdateMsg& m) const {
    const DynamicStatus& s = m.status;
    w.open("status");
    w.field("host", s.host);
    w.field("state", s.state);
    w.field("load1", s.load1);
    w.field("load5", s.load5);
    w.field("cpu_util", s.cpu_util);
    w.field("processes", s.processes);
    w.field("mem_avail_pct", s.mem_available_pct);
    w.field("disk_avail", s.disk_available);
    w.field("net_in", s.net_in_bps);
    w.field("net_out", s.net_out_bps);
    w.field("sockets", s.sockets_established);
    w.field("timestamp", s.timestamp);
    w.close("status");
  }
  void operator()(const UpdateBatchMsg& m) const {
    for (const LeaseRenewal& renewal : m.renewals) {
      w.open("renewal");
      w.field("host", renewal.host);
      w.field("state", renewal.state);
      w.field("timestamp", renewal.timestamp);
      w.close("renewal");
    }
  }
  void operator()(const ConsultMsg& m) const {
    w.field("host", m.host);
    w.field("reason", m.reason);
    // Hierarchy-routing fields ride along only when set, so a plain
    // monitor consult keeps its original compact form.
    if (!m.origin_registry.empty()) {
      w.field("origin_registry", m.origin_registry);
    }
    if (m.pid != 0) {
      w.field("pid", m.pid);
    }
    if (!m.process_name.empty()) {
      w.field("process_name", m.process_name);
    }
    if (!m.schema_name.empty()) {
      w.field("schema_name", m.schema_name);
    }
    if (m.commander_port != 0) {
      w.field("commander_port", m.commander_port);
    }
  }
  void operator()(const MigrateCmd& m) const {
    w.field("pid", m.pid);
    w.field("process_name", m.process_name);
    w.field("dest_host", m.dest_host);
    w.field("dest_ip", m.dest_ip);
    w.field("dest_port", m.dest_port);
    w.field("schema_name", m.schema_name);
  }
  void operator()(const AckMsg& m) const {
    w.field("of", m.of);
    w.field("ok", m.ok);
    w.field("detail", m.detail);
  }
  void operator()(const ProcessRegisterMsg& m) const {
    w.field("host", m.host);
    w.field("pid", m.pid);
    w.field("name", m.name);
    w.field("start_time", m.start_time);
    w.field("migration_enabled", m.migration_enabled);
    w.field("schema_name", m.schema_name);
  }
  void operator()(const ProcessDeregisterMsg& m) const {
    w.field("host", m.host);
    w.field("pid", m.pid);
  }
  void operator()(const HealthReportMsg& m) const {
    w.field("registry_host", m.registry_host);
    w.field("registry_port", m.registry_port);
    w.field("free_hosts", m.free_hosts);
    w.field("busy_hosts", m.busy_hosts);
    w.field("overloaded_hosts", m.overloaded_hosts);
    w.field("timestamp", m.timestamp);
  }
  void operator()(const RecommendMsg& m) const {
    w.field("found", m.found);
    w.field("dest_host", m.dest_host);
    w.field("dest_ip", m.dest_ip);
    w.field("dest_port", m.dest_port);
  }
  void operator()(const EvacuateMsg& m) const {
    w.field("host", m.host);
    w.field("reason", m.reason);
  }
  void operator()(const RelaunchCmd& m) const {
    w.field("process_name", m.process_name);
    w.field("lost_host", m.lost_host);
    w.field("schema_name", m.schema_name);
  }
  void operator()(const MigrationOutcomeMsg& m) const {
    w.field("process", m.process);
    w.field("source", m.source);
    w.field("destination", m.destination);
    w.field("outcome", m.outcome);
    // Failure detail rides along only on aborts/rollbacks, so a committed
    // outcome keeps its compact form.
    if (!m.reason.empty()) {
      w.field("reason", m.reason);
    }
    if (!m.phase.empty()) {
      w.field("phase", m.phase);
    }
    // Pre-copy accounting rides along only when rounds actually shipped,
    // so stop-and-copy outcomes keep the legacy wire form byte-for-byte.
    if (m.precopy_rounds > 0) {
      w.field("precopy_rounds", m.precopy_rounds);
      w.field("precopy_bytes", m.precopy_bytes);
    }
  }
  void operator()(const ResizeCmd& m) const {
    w.field("job", m.job);
    w.field("verb", m.verb);
    w.field("delta", m.delta);
    if (!m.strategy.empty()) {
      w.field("strategy", m.strategy);
    }
    for (const std::string& host : m.hosts) {
      w.field("target", host);
    }
  }
  void operator()(const ResizeOutcomeMsg& m) const {
    w.field("job", m.job);
    w.field("verb", m.verb);
    w.field("delta", m.delta);
    w.field("outcome", m.outcome);
    w.field("ranks_after", m.ranks_after);
    // Same compact-commit rule as MigrationOutcomeMsg.
    if (!m.reason.empty()) {
      w.field("reason", m.reason);
    }
    if (!m.phase.empty()) {
      w.field("phase", m.phase);
    }
  }
  void operator()(const CkptIoRequestMsg& m) const {
    w.field("host", m.host);
    w.field("process", m.process);
    w.field("verb", m.verb);
    // bytes/risk only matter on "request"; done/abort keep the compact
    // three-field form.
    if (m.bytes > 0) {
      w.field("bytes", m.bytes);
    }
    if (m.risk > 0.0) {
      w.field("risk", m.risk);
    }
  }
  void operator()(const CkptIoGrantMsg& m) const {
    w.field("process", m.process);
    w.field("verb", m.verb);
    if (m.retry_after > 0.0) {
      w.field("retry_after", m.retry_after);
    }
  }
};

// ---- decoding ---------------------------------------------------------------

/// Where a field's text goes once converted.
using Sink =
    std::variant<std::string*, double*, int*, std::uint64_t*, bool*>;

constexpr bool kOptional = false;

/// One child element a message reads.  Only its first occurrence counts.
/// A required field fails the decode when absent or malformed; an optional
/// one keeps its default when absent and reads as zero when malformed, so
/// documents from older and newer peers still decode.
struct Field {
  Field(std::string_view field_name, Sink field_sink, bool is_required = true)
      : name(field_name), sink(field_sink), required(is_required) {}

  std::string_view name;
  Sink sink;
  bool required;
  bool seen = false;
  bool malformed = false;
  std::string text;  // a malformed required field's text, for the error
};

void store(Field& field, std::string_view text) {
  bool ok = true;
  if (auto* s = std::get_if<std::string*>(&field.sink)) {
    (*s)->assign(text);
  } else if (auto* d = std::get_if<double*>(&field.sink)) {
    const auto value = support::parse_double(text);
    **d = value.value_or(0.0);
    ok = value.has_value();
  } else if (auto* i = std::get_if<int*>(&field.sink)) {
    const auto value = support::parse_int(text);
    **i = value.has_value() ? static_cast<int>(*value) : 0;
    ok = value.has_value();
  } else if (auto* u = std::get_if<std::uint64_t*>(&field.sink)) {
    const auto value = support::parse_uint(text);
    **u = value.value_or(0);
    ok = value.has_value();
  } else {
    **std::get_if<bool*>(&field.sink) = text == "true";
    ok = text == "true" || text == "false";
  }
  if (!ok && field.required) {
    field.malformed = true;
    field.text.assign(text);
  }
}

/// The first failing required field, in declaration order (the order the
/// fields appear on the wire).
std::optional<Error> check(std::span<const Field> fields,
                           std::string_view element) {
  for (const Field& field : fields) {
    if (!field.required) {
      continue;
    }
    const std::string name{field.name};
    if (!field.seen) {
      return make_error("proto_decode", "missing field <" + name + "> in <" +
                                            std::string(element) + ">");
    }
    if (field.malformed) {
      static constexpr const char* kWhat[] = {"text", "a number",
                                              "an integer",
                                              "an unsigned integer",
                                              "a boolean"};
      return make_error("proto_decode", "field <" + name + "> is not " +
                                            kWhat[field.sink.index()] + ": " +
                                            field.text);
    }
  }
  return std::nullopt;
}

/// Typed reading straight off the XmlReader: the children of the element
/// just opened are matched by name against a field list and converted from
/// their text views; nothing is built in between.
class Decoder {
 public:
  explicit Decoder(std::string_view wire) noexcept : reader_(wire) {}

  XmlReader& reader() noexcept { return reader_; }

  /// Read the current element's children up to its close: fields by name,
  /// anything else through on_other(name), which returns whether it
  /// consumed the child; children nobody wants are skipped.
  template <typename OnOther>
  void read(std::span<Field> fields, OnOther&& on_other) {
    std::string_view child;
    std::size_t hint = 0;  // fields usually arrive in declaration order
    while (reader_.next_child(child)) {
      if (!offer(fields, child, hint) && !on_other(child)) {
        reader_.skip_element();
      }
    }
  }
  void read(std::span<Field> fields) {
    read(fields, [](std::string_view) { return false; });
  }

  /// The text of the child just opened (valid until the next text read).
  bool text(std::string_view& out) {
    return reader_.read_text(out, scratch_);
  }

 private:
  bool offer(std::span<Field> fields, std::string_view child,
             std::size_t& hint) {
    for (std::size_t k = 0, i = hint; k < fields.size(); ++k, ++i) {
      if (i >= fields.size()) {
        i = 0;
      }
      Field& field = fields[i];
      if (field.name != child) {
        continue;
      }
      hint = i + 1;
      if (field.seen) {
        return false;
      }
      field.seen = true;
      std::string_view text;
      if (reader_.read_text(text, scratch_)) {
        store(field, text);
      }
      return true;
    }
    return false;
  }

  XmlReader reader_;
  std::string scratch_;  // text that held entities or was split by markup
};

/// Reads the first child named `name` field by field into `fields` when
/// handed to Decoder::read as its on_other; later ones are skipped.
struct Block {
  Decoder& in;
  std::string_view name;
  std::span<Field> fields;
  bool present = false;

  bool operator()(std::string_view child) {
    if (present || child != name) {
      return false;
    }
    present = true;
    in.read(fields);
    return true;
  }
  std::optional<Error> check_fields() const {
    if (!present) {
      return make_error("proto_decode",
                        "missing <" + std::string(name) + "> block");
    }
    return check(fields, name);
  }
};

std::optional<Error> decode_register(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<RegisterMsg>();
  m.info.byte_order = "big";
  Field info[] = {
      {"host", &m.info.host},
      {"ip", &m.info.ip, kOptional},
      {"os", &m.info.os, kOptional},
      {"memory", &m.info.memory_bytes},
      {"disk", &m.info.disk_bytes},
      {"cpu_speed", &m.info.cpu_speed},
      {"byte_order", &m.info.byte_order, kOptional},
  };
  Field ports[] = {
      {"monitor_port", &m.monitor_port},
      {"commander_port", &m.commander_port},
  };
  Block block{in, "static", info};
  in.read(ports, block);
  if (auto error = block.check_fields()) {
    return *error;
  }
  return check(ports, "ars");
}

std::optional<Error> decode_update(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<UpdateMsg>();
  DynamicStatus& s = m.status;
  Field status[] = {
      {"host", &s.host},
      {"state", &s.state},
      {"load1", &s.load1},
      {"load5", &s.load5},
      {"cpu_util", &s.cpu_util},
      {"processes", &s.processes},
      {"mem_avail_pct", &s.mem_available_pct},
      {"disk_avail", &s.disk_available},
      {"net_in", &s.net_in_bps},
      {"net_out", &s.net_out_bps},
      {"sockets", &s.sockets_established},
      {"timestamp", &s.timestamp},
  };
  Block block{in, "status", status};
  in.read({}, block);
  if (auto error = block.check_fields()) {
    return *error;
  }
  return std::nullopt;
}

std::optional<Error> decode_update_batch(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<UpdateBatchMsg>();
  std::optional<Error> error;  // the first bad renewal, in document order
  in.read({}, [&](std::string_view child) {
    if (child != "renewal") {
      return false;
    }
    LeaseRenewal& renewal = m.renewals.emplace_back();
    Field fields[] = {
        {"host", &renewal.host},
        {"state", &renewal.state},
        {"timestamp", &renewal.timestamp},
    };
    in.read(fields);
    if (!error) {
      error = check(fields, "renewal");
    }
    return true;
  });
  return error;
}

std::optional<Error> decode_consult(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<ConsultMsg>();
  // Everything past host/reason is hierarchy routing, absent in plain
  // monitor consults and in documents from older senders.
  Field fields[] = {
      {"host", &m.host},
      {"reason", &m.reason, kOptional},
      {"origin_registry", &m.origin_registry, kOptional},
      {"pid", &m.pid, kOptional},
      {"process_name", &m.process_name, kOptional},
      {"schema_name", &m.schema_name, kOptional},
      {"commander_port", &m.commander_port, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_migrate(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<MigrateCmd>();
  Field fields[] = {
      {"pid", &m.pid},
      {"process_name", &m.process_name, kOptional},
      {"dest_host", &m.dest_host},
      {"dest_ip", &m.dest_ip, kOptional},
      {"dest_port", &m.dest_port},
      {"schema_name", &m.schema_name, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_ack(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<AckMsg>();
  Field fields[] = {
      {"of", &m.of},
      {"ok", &m.ok},
      {"detail", &m.detail, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_process_register(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<ProcessRegisterMsg>();
  Field fields[] = {
      {"host", &m.host},
      {"pid", &m.pid},
      {"name", &m.name, kOptional},
      {"start_time", &m.start_time},
      {"migration_enabled", &m.migration_enabled},
      {"schema_name", &m.schema_name, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_process_deregister(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<ProcessDeregisterMsg>();
  Field fields[] = {
      {"host", &m.host},
      {"pid", &m.pid},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_health(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<HealthReportMsg>();
  Field fields[] = {
      {"registry_host", &m.registry_host},
      {"registry_port", &m.registry_port, kOptional},
      {"free_hosts", &m.free_hosts},
      {"busy_hosts", &m.busy_hosts},
      {"overloaded_hosts", &m.overloaded_hosts},
      {"timestamp", &m.timestamp},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_recommend(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<RecommendMsg>();
  Field fields[] = {
      {"found", &m.found},
      {"dest_host", &m.dest_host, kOptional},
      {"dest_ip", &m.dest_ip, kOptional},
      {"dest_port", &m.dest_port, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_evacuate(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<EvacuateMsg>();
  Field fields[] = {
      {"host", &m.host},
      {"reason", &m.reason, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_relaunch(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<RelaunchCmd>();
  Field fields[] = {
      {"process_name", &m.process_name},
      {"lost_host", &m.lost_host, kOptional},
      {"schema_name", &m.schema_name, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_migration_outcome(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<MigrationOutcomeMsg>();
  // reason/phase are absent from commits, the pre-copy accounting from
  // stop-and-copy outcomes and from pre-precopy senders.
  Field fields[] = {
      {"process", &m.process},
      {"source", &m.source},
      {"destination", &m.destination},
      {"outcome", &m.outcome},
      {"reason", &m.reason, kOptional},
      {"phase", &m.phase, kOptional},
      {"precopy_rounds", &m.precopy_rounds, kOptional},
      {"precopy_bytes", &m.precopy_bytes, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_resize(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<ResizeCmd>();
  Field fields[] = {
      {"job", &m.job},
      {"verb", &m.verb},
      {"delta", &m.delta},
      {"strategy", &m.strategy, kOptional},
  };
  in.read(fields, [&](std::string_view child) {
    if (child != "target") {
      return false;
    }
    std::string_view host;
    if (in.text(host)) {
      m.hosts.emplace_back(host);
    }
    return true;
  });
  return check(fields, "ars");
}

std::optional<Error> decode_resize_outcome(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<ResizeOutcomeMsg>();
  Field fields[] = {
      {"job", &m.job},
      {"verb", &m.verb},
      {"delta", &m.delta},
      {"outcome", &m.outcome},
      {"ranks_after", &m.ranks_after},
      {"reason", &m.reason, kOptional},
      {"phase", &m.phase, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_ckpt_io_request(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<CkptIoRequestMsg>();
  Field fields[] = {
      {"host", &m.host},
      {"process", &m.process},
      {"verb", &m.verb},
      {"bytes", &m.bytes, kOptional},
      {"risk", &m.risk, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

std::optional<Error> decode_ckpt_io_grant(Decoder& in, ProtocolMessage& out) {
  auto& m = out.emplace<CkptIoGrantMsg>();
  Field fields[] = {
      {"process", &m.process},
      {"verb", &m.verb},
      {"retry_after", &m.retry_after, kOptional},
  };
  in.read(fields);
  return check(fields, "ars");
}

/// Decodes the body of an <ars> element into `out`; the first decode error
/// in wire order, if any.
using DecodeFn = std::optional<Error> (*)(Decoder& in, ProtocolMessage& out);

/// Decoders in ProtocolMessage alternative order (kTypeNames' order).
constexpr std::array<DecodeFn, kTypeNames.size()> kDecoders = {
    decode_register,          decode_update,
    decode_update_batch,      decode_consult,
    decode_migrate,           decode_ack,
    decode_process_register,  decode_process_deregister,
    decode_health,            decode_recommend,
    decode_evacuate,          decode_relaunch,
    decode_migration_outcome, decode_resize,
    decode_resize_outcome,    decode_ckpt_io_request,
    decode_ckpt_io_grant,
};

DecodeFn decoder_for(std::string_view type) noexcept {
  for (std::size_t i = 0; i < kTypeNames.size(); ++i) {
    if (kTypeNames[i] == type) {
      return kDecoders[i];
    }
  }
  return nullptr;
}

/// An envelope attribute's text, decoded into `storage` only when it held
/// entities.
std::string_view attr_text(const XmlAttr& attr, std::string& storage) {
  if (!attr.escaped) {
    return attr.value;
  }
  storage.clear();
  append_unescaped(storage, attr.value);
  return storage;
}

}  // namespace

std::string encode(const ProtocolMessage& message) {
  return encode(message, obs::TraceCtx{});
}

std::string encode(const ProtocolMessage& message, const obs::TraceCtx& ctx) {
  // Written into a per-thread buffer, then copied out at its exact size:
  // one allocation per message, and no capacity slack held by in-flight
  // payloads.
  thread_local std::string buffer;
  buffer.clear();
  XmlWriter w{buffer};
  w.open("ars");
  // Envelope attributes in key order (pspan < txn < type).  The context is
  // emitted only when set (same rule as ConsultMsg's routing fields), so a
  // context-free message keeps its pre-v2 byte layout.
  if (ctx.set()) {
    if (ctx.parent_span != 0) {
      w.attr("pspan", ctx.parent_span);
    }
    w.attr("txn", ctx.txn);
  }
  w.attr("type", kTypeNames[message.index()]);
  std::visit(Encoder{w}, message);
  w.close("ars");
  return buffer;
}

std::string message_type(const ProtocolMessage& message) {
  return std::string(kTypeNames[message.index()]);
}

Expected<Envelope> decode_envelope(std::string_view wire) {
  Decoder in{wire};
  XmlReader& reader = in.reader();
  if (reader.next() != XmlToken::kOpen) {
    return reader.error();
  }
  // The envelope's attributes, copied out before the body overwrites the
  // reader's attribute list.  A repeated attribute keeps its last value.
  std::optional<XmlAttr> type;
  std::optional<XmlAttr> txn;
  std::optional<XmlAttr> pspan;
  for (const XmlAttr& attr : reader.attrs()) {
    if (attr.name == "type") {
      type = attr;
    } else if (attr.name == "txn") {
      txn = attr;
    } else if (attr.name == "pspan") {
      pspan = attr;
    }
  }
  std::string storage;
  std::optional<Error> rejected;
  DecodeFn decoder = nullptr;
  if (reader.name() != "ars") {
    rejected = make_error("proto_decode",
                          "unexpected root <" + std::string(reader.name()) + ">");
  } else if (!type.has_value()) {
    rejected = make_error("proto_decode", "missing type attribute");
  } else {
    const std::string_view tag = attr_text(*type, storage);
    decoder = decoder_for(tag);
    if (decoder == nullptr) {
      rejected = make_error("proto_decode",
                            "unknown message type '" + std::string(tag) + "'");
    }
  }
  // Decoded in place: the message is built where the caller receives it.
  Expected<Envelope> result{Envelope{}};
  if (rejected) {
    reader.skip_element();
  } else {
    rejected = decoder(in, result->message);
  }
  // The rest of the document must be well-formed too: a parse error
  // outranks any decode error, as when the whole document parsed first.
  if (reader.next() != XmlToken::kEnd) {
    return reader.error();
  }
  if (rejected) {
    return *rejected;
  }
  Envelope& envelope = *result;
  // Malformed context attrs degrade to "no context" rather than rejecting
  // the message: causality is advisory, the payload is not.
  if (txn.has_value()) {
    if (const auto id = support::parse_uint(attr_text(*txn, storage));
        id.has_value() && *id > 0) {
      envelope.trace.txn = *id;
      if (pspan.has_value()) {
        if (const auto sid = support::parse_uint(attr_text(*pspan, storage));
            sid.has_value() && *sid > 0) {
          envelope.trace.parent_span = *sid;
        }
      }
    }
  }
  return result;
}

Expected<ProtocolMessage> decode(std::string_view wire) {
  auto envelope = decode_envelope(wire);
  if (!envelope.has_value()) {
    return envelope.error();
  }
  return std::move(envelope->message);
}

}  // namespace ars::xmlproto

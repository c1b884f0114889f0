// Equivalence of the streaming codec with its contract: seeded random
// messages of every type survive writer -> reader -> writer byte for byte
// (through the typed decoder and through the document model), unsigned
// wire fields keep their full 64-bit range, and concurrent encoders and
// decoders on separate threads do not interfere.

#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "ars/xmlproto/messages.hpp"
#include "ars/xmlproto/xml.hpp"
#include "samples.hpp"

namespace ars::xmlproto {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

class CodecDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecDifferential, RandomMessagesRoundTripByteIdentically) {
  support::Rng rng{GetParam()};
  for (int round = 0; round < 40; ++round) {
    for (std::size_t type = 0; type < std::variant_size_v<ProtocolMessage>;
         ++type) {
      const ProtocolMessage message = testing::random_message(rng, type);
      const obs::TraceCtx ctx = testing::random_ctx(rng);
      const std::string wire = encode(message, ctx);

      const auto doc = parse_xml(wire);
      ASSERT_TRUE(doc.has_value()) << wire;
      EXPECT_EQ((*doc)->to_string(), wire);

      const auto envelope = decode_envelope(wire);
      ASSERT_TRUE(envelope.has_value())
          << wire << " -> " << envelope.error().to_string();
      EXPECT_EQ(envelope->message.index(), type);
      EXPECT_EQ(envelope->trace.txn, ctx.txn) << wire;
      EXPECT_EQ(envelope->trace.parent_span, ctx.parent_span) << wire;
      EXPECT_EQ(encode(envelope->message, envelope->trace), wire);

      const auto plain = decode(wire);
      ASSERT_TRUE(plain.has_value()) << wire;
      EXPECT_EQ(encode(*plain, ctx), wire);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecDifferential,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- unsigned wire fields -------------------------------------------------

TEST(UnsignedWireFields, MaxValuesRoundTrip) {
  RegisterMsg reg;
  reg.info.host = "ws1";
  reg.info.memory_bytes = kMax;
  reg.info.disk_bytes = kMax;
  const auto reg_back = decode(encode(reg));
  ASSERT_TRUE(reg_back.has_value()) << reg_back.error().to_string();
  EXPECT_EQ(std::get<RegisterMsg>(*reg_back).info.memory_bytes, kMax);
  EXPECT_EQ(std::get<RegisterMsg>(*reg_back).info.disk_bytes, kMax);

  UpdateMsg update;
  update.status.host = "ws1";
  update.status.disk_available = kMax;
  const auto update_back = decode(encode(update));
  ASSERT_TRUE(update_back.has_value());
  EXPECT_EQ(std::get<UpdateMsg>(*update_back).status.disk_available, kMax);

  MigrationOutcomeMsg outcome;
  outcome.process = "p";
  outcome.outcome = "committed";
  outcome.precopy_rounds = 2;
  outcome.precopy_bytes = kMax;
  const auto outcome_back = decode(encode(outcome));
  ASSERT_TRUE(outcome_back.has_value());
  EXPECT_EQ(std::get<MigrationOutcomeMsg>(*outcome_back).precopy_bytes, kMax);

  CkptIoRequestMsg request;
  request.host = "ws1";
  request.process = "p";
  request.verb = "request";
  request.bytes = kMax;
  const auto request_back = decode(encode(request));
  ASSERT_TRUE(request_back.has_value());
  EXPECT_EQ(std::get<CkptIoRequestMsg>(*request_back).bytes, kMax);

  const auto envelope =
      decode_envelope(encode(request, obs::TraceCtx{kMax, kMax}));
  ASSERT_TRUE(envelope.has_value());
  EXPECT_EQ(envelope->trace.txn, kMax);
  EXPECT_EQ(envelope->trace.parent_span, kMax);
}

std::string replace(std::string text, const std::string& from,
                    const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from << " not in " << text;
  return text.replace(at, from.size(), to);
}

TEST(UnsignedWireFields, RequiredFieldsRejectASign) {
  RegisterMsg reg;
  reg.info.host = "ws1";
  reg.info.memory_bytes = 7;
  reg.info.disk_bytes = 8;
  const std::string wire = encode(reg);
  EXPECT_FALSE(decode(replace(wire, "<memory>7<", "<memory>-1<")).has_value());
  EXPECT_FALSE(decode(replace(wire, "<disk>8<", "<disk>-1<")).has_value());
  EXPECT_FALSE(decode(replace(wire, "<disk>8<", "<disk>+8<")).has_value());
  EXPECT_FALSE(decode(replace(wire, "<memory>7<",
                              "<memory>18446744073709551616<"))
                   .has_value());  // 2^64

  UpdateMsg update;
  update.status.host = "ws1";
  update.status.disk_available = 9;
  EXPECT_FALSE(
      decode(replace(encode(update), "<disk_avail>9<", "<disk_avail>-1<"))
          .has_value());
}

TEST(UnsignedWireFields, OptionalFieldsReadANegativeAsZero) {
  MigrationOutcomeMsg outcome;
  outcome.process = "p";
  outcome.outcome = "committed";
  outcome.precopy_rounds = 1;
  outcome.precopy_bytes = 5;
  const auto outcome_back = decode(
      replace(encode(outcome), "<precopy_bytes>5<", "<precopy_bytes>-1<"));
  ASSERT_TRUE(outcome_back.has_value());
  EXPECT_EQ(std::get<MigrationOutcomeMsg>(*outcome_back).precopy_bytes, 0U);

  CkptIoRequestMsg request;
  request.host = "ws1";
  request.process = "p";
  request.verb = "request";
  request.bytes = 5;
  const auto request_back =
      decode(replace(encode(request), "<bytes>5<", "<bytes>-1<"));
  ASSERT_TRUE(request_back.has_value());
  EXPECT_EQ(std::get<CkptIoRequestMsg>(*request_back).bytes, 0U);
}

TEST(UnsignedWireFields, NegativeContextIsDropped) {
  const std::string wire = encode(EvacuateMsg{"ws1", "drain"});
  const auto no_txn =
      decode_envelope(replace(wire, "<ars ", "<ars txn=\"-1\" pspan=\"3\" "));
  ASSERT_TRUE(no_txn.has_value());
  EXPECT_FALSE(no_txn->trace.set());
  const auto no_pspan =
      decode_envelope(replace(wire, "<ars ", "<ars txn=\"4\" pspan=\"-1\" "));
  ASSERT_TRUE(no_pspan.has_value());
  EXPECT_EQ(no_pspan->trace.txn, 4U);
  EXPECT_EQ(no_pspan->trace.parent_span, 0U);
}

// ---- known wire quirks, kept for byte identity ------------------------------

// The optional doubles are emitted when positive but written at 6 decimals,
// so a positive value under 5e-7 goes out as 0.000000 and comes back as
// zero, which is then not emitted at all.  The second encoding is the
// canonical one; the first is what senders have always written.
TEST(WireQuirks, SubResolutionOptionalDoubleIsDropped) {
  const std::string wire = encode(CkptIoGrantMsg{"p", "defer", 1e-9});
  EXPECT_NE(wire.find("<retry_after>0.000000</retry_after>"),
            std::string::npos);
  const auto back = decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<CkptIoGrantMsg>(*back).retry_after, 0.0);
  EXPECT_EQ(encode(*back), encode(CkptIoGrantMsg{"p", "defer", 0.0}));
}

// ---- threads ----------------------------------------------------------------

// Shards run the codec on their own threads: each thread here encodes and
// decodes its own messages, and every result must match what one thread
// alone produced (the TSan job runs this test to prove it race-free).
TEST(CodecThreads, ConcurrentEncodeDecodeAgreeWithSerial) {
  constexpr int kThreads = 4;
  std::vector<std::vector<ProtocolMessage>> messages(kThreads);
  std::vector<std::vector<std::string>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    support::Rng rng{static_cast<std::uint64_t>(100 + t)};
    for (int i = 0; i < 64; ++i) {
      messages[t].push_back(testing::random_message(
          rng, static_cast<std::size_t>(i) %
                   std::variant_size_v<ProtocolMessage>));
      expected[t].push_back(encode(messages[t].back()));
    }
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < messages[t].size(); ++i) {
          const std::string wire = encode(messages[t][i]);
          const auto back = decode(wire);
          if (wire != expected[t][i] || !back.has_value() ||
              encode(*back) != wire) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace ars::xmlproto

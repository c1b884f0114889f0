// Property-style sweeps for the XML layer: randomly generated documents
// must round-trip writer -> parser -> writer byte-identically, random byte
// mutations of valid documents must never crash the parser, and the typed
// envelope decoder must reject every document the parser rejects.

#include <gtest/gtest.h>

#include "ars/support/rng.hpp"
#include "ars/support/strings.hpp"
#include "ars/xmlproto/messages.hpp"
#include "ars/xmlproto/xml.hpp"
#include "samples.hpp"

namespace ars::xmlproto {
namespace {

std::string random_name(support::Rng& rng) {
  static const char* kNames[] = {"host", "load", "status", "cfg", "item",
                                 "rule", "x", "metric", "node", "entry"};
  return kNames[rng.uniform_int(0, 9)];
}

std::string random_text(support::Rng& rng) {
  std::string text;
  const int length = static_cast<int>(rng.uniform_int(0, 24));
  for (int i = 0; i < length; ++i) {
    // Includes the XML special characters to exercise escaping.
    static const char kAlphabet[] =
        "abc XYZ0123456789&<>\"'._-";
    text.push_back(
        kAlphabet[rng.uniform_int(0, sizeof kAlphabet - 2)]);
  }
  return text;
}

void build_random(XmlNode& node, support::Rng& rng, int depth) {
  const int attrs = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < attrs; ++i) {
    node.set_attr("a" + std::to_string(i), random_text(rng));
  }
  if (depth <= 0 || rng.uniform() < 0.4) {
    // The parser canonicalizes element text by trimming surrounding
    // whitespace, so generate pre-trimmed text for byte-exact round trips.
    node.set_text(std::string(support::trim(random_text(rng))));
    return;
  }
  const int children = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < children; ++i) {
    build_random(node.add_child(random_name(rng)), rng, depth - 1);
  }
}

class XmlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlFuzz, RandomDocumentRoundTrips) {
  support::Rng rng{GetParam()};
  XmlNode root{random_name(rng)};
  build_random(root, rng, 4);
  const std::string wire = root.to_string();
  const auto parsed = parse_xml(wire);
  ASSERT_TRUE(parsed.has_value())
      << wire << " -> " << parsed.error().to_string();
  EXPECT_EQ((*parsed)->to_string(), wire);
}

TEST_P(XmlFuzz, MutatedDocumentNeverCrashesParser) {
  support::Rng rng{GetParam() ^ 0xabcdef};
  XmlNode root{random_name(rng)};
  build_random(root, rng, 3);
  std::string wire = root.to_string();
  // Apply a handful of random mutations; the parser must either succeed or
  // return an error, never crash or hang.
  for (int mutation = 0; mutation < 16; ++mutation) {
    std::string mutated = wire;
    const auto position = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        mutated[position] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:
        mutated.erase(position, 1);
        break;
      default:
        mutated.insert(position, 1,
                       static_cast<char>(rng.uniform_int(32, 126)));
        break;
    }
    const auto result = parse_xml(mutated);
    if (result.has_value()) {
      // If it still parses, it must re-serialize without crashing.
      (void)(*result)->to_string();
    }
  }
}

TEST_P(XmlFuzz, MutatedProtocolMessagesNeverCrashDecoder) {
  support::Rng rng{GetParam() ^ 0x1234};
  UpdateMsg update;
  update.status.host = "ws1";
  update.status.state = "busy";
  update.status.load1 = 1.5;
  std::string wire = encode(ProtocolMessage{update});
  for (int mutation = 0; mutation < 16; ++mutation) {
    std::string mutated = wire;
    const auto position = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[position] = static_cast<char>(rng.uniform_int(32, 126));
    (void)decode(mutated);  // must not crash; error results are fine
  }
}

/// One decoration a peer (or line noise) may add to a wire document.
void decorate(std::string& doc, support::Rng& rng) {
  static const char* kRootAttrs[] = {
      " txn=\"7\"",  " pspan=\"3\"",     " txn='18446744073709551615'",
      " txn=\"-3\"", " pspan=\"x\"",     " txn=\"1&amp;\"",
      " type=\"ack\"", " a=\"&lt;&gt;\"", " txn = \"5\"",
      " txn=\"&bogus;\"", " txn=\"4\"",  " pspan=\"0\"",
  };
  static const char* kInserts[] = {
      "<!-- note -->", "<!---->", " ", "\n\t", "&amp;", "&lt;x&gt;",
      "&quot;&apos;", "<extra/>", "<extra>1</extra>", "&nbsp;", "<!-- open",
  };
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // another (possibly repeated or malformed) root attribute
      const auto at = doc.find("<ars") + 4;
      doc.insert(at, kRootAttrs[rng.uniform_int(0, std::size(kRootAttrs) - 1)]);
      break;
    }
    case 1: {  // a comment, whitespace, entity or element after some '>'
      std::vector<std::size_t> closes;
      for (std::size_t i = 0; i < doc.size(); ++i) {
        if (doc[i] == '>') {
          closes.push_back(i + 1);
        }
      }
      const auto at = closes[rng.uniform_int(0, closes.size() - 1)];
      doc.insert(at, kInserts[rng.uniform_int(0, std::size(kInserts) - 1)]);
      break;
    }
    case 2: {  // leading or trailing whitespace and comments
      if (rng.uniform() < 0.5) {
        doc.insert(0, rng.uniform() < 0.5 ? "\n " : "<?xml version=\"1.0\"?>");
      } else {
        doc += rng.uniform() < 0.5 ? " <!-- end -->\n" : " junk";
      }
      break;
    }
    default: {  // a random printable byte replaced, inserted or removed
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(doc.size()) - 1));
      const char c = static_cast<char>(rng.uniform_int(32, 126));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          doc[at] = c;
          break;
        case 1:
          doc.erase(at, 1);
          break;
        default:
          doc.insert(at, 1, c);
          break;
      }
    }
  }
}

TEST_P(XmlFuzz, EnvelopeDecoderRejectsEverythingTheParserRejects) {
  support::Rng rng{GetParam() ^ 0x5eed};
  int rejected = 0;
  int accepted = 0;
  for (int round = 0; round < 300; ++round) {
    const auto type = static_cast<std::size_t>(
        round % std::variant_size_v<ProtocolMessage>);
    std::string doc = encode(testing::random_message(rng, type),
                             testing::random_ctx(rng));
    const auto decorations = rng.uniform_int(1, 4);
    for (std::int64_t i = 0; i < decorations; ++i) {
      decorate(doc, rng);
    }
    const auto parsed = parse_xml(doc);
    const auto envelope = decode_envelope(doc);
    if (!parsed.has_value()) {
      ++rejected;
      EXPECT_FALSE(envelope.has_value()) << doc;
      continue;
    }
    if (!envelope.has_value()) {
      continue;  // well-formed XML that is not a valid message
    }
    ++accepted;
    // The envelope decoder reads the same attributes the document model
    // holds: the last of a repeated attribute, entities decoded.
    const auto txn = support::parse_uint((*parsed)->attr_or("txn", ""));
    EXPECT_EQ(envelope->trace.txn, txn.value_or(0)) << doc;
    // Whatever it accepted re-encodes to a document it decodes again to
    // the same bytes.
    const std::string again = encode(envelope->message, envelope->trace);
    const auto twice = decode_envelope(again);
    ASSERT_TRUE(twice.has_value()) << again;
    EXPECT_EQ(encode(twice->message, twice->trace), again);
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

TEST(EnvelopeAttributes, RepeatedAttributeKeepsItsLastValue) {
  const auto envelope = decode_envelope(
      "<ars type=\"nosuch\" txn=\"3\" type=\"evacuate\" txn=\"9\">"
      "<host>ws1</host></ars>");
  ASSERT_TRUE(envelope.has_value()) << envelope.error().to_string();
  EXPECT_TRUE(std::holds_alternative<EvacuateMsg>(envelope->message));
  EXPECT_EQ(envelope->trace.txn, 9U);
}

TEST(EnvelopeAttributes, ValuesMayHoldEntitiesCommentsAndWhitespace) {
  const auto envelope = decode_envelope(
      "<?xml version=\"1.0\"?>\n<!-- hello -->\n"
      "<ars type = 'evac&#x75;ate'><host>ws1</host></ars>");
  EXPECT_FALSE(envelope.has_value());  // &#x75; is not a supported entity
  const auto spaced = decode_envelope(
      "<?xml version=\"1.0\"?>\n<!-- hello -->\n"
      "<ars  txn = '12'\n type = \"evacuate\" >\n"
      "  <host> ws&amp;1 <!-- split --> x </host>\n"
      "  <reason>a &lt;b&gt; c</reason>\n"
      "</ars >\n<!-- bye -->");
  ASSERT_TRUE(spaced.has_value()) << spaced.error().to_string();
  const auto& evacuate = std::get<EvacuateMsg>(spaced->message);
  EXPECT_EQ(evacuate.host, "ws&1  x");
  EXPECT_EQ(evacuate.reason, "a <b> c");
  EXPECT_EQ(spaced->trace.txn, 12U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ars::xmlproto

// Golden wire bytes: every message type, with and without a trace context,
// as the DOM-based encoder wrote them before the streaming codec replaced
// it.  The wire layout is a contract — bandwidth sharing, traces and
// byte-exact replay all depend on it — so these strings are frozen: a
// change to any of them is a protocol change, not a refactor.

#include <gtest/gtest.h>

#include <set>

#include "ars/xmlproto/messages.hpp"
#include "samples.hpp"

namespace ars::xmlproto {
namespace {

struct GoldenWire {
  const char* label;
  const char* plain;
  const char* traced;  // with testing::golden_ctx() on the envelope
};

// clang-format off
const GoldenWire kGolden[] = {
    {"register",
     R"wire(<ars type="register"><static><host>ws1</host><ip>10.0.0.1</ip><os>SunOS 5.8 &lt;sparc&gt; &amp; &quot;friends&quot;</os><memory>18446744073709551615</memory><disk>21474836480</disk><cpu_speed>1.250000</cpu_speed><byte_order>big</byte_order></static><monitor_port>5001</monitor_port><commander_port>5002</commander_port></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="register"><static><host>ws1</host><ip>10.0.0.1</ip><os>SunOS 5.8 &lt;sparc&gt; &amp; &quot;friends&quot;</os><memory>18446744073709551615</memory><disk>21474836480</disk><cpu_speed>1.250000</cpu_speed><byte_order>big</byte_order></static><monitor_port>5001</monitor_port><commander_port>5002</commander_port></ars>)wire"},
    {"update",
     R"wire(<ars type="update"><status><host>h-19999</host><state>overloaded</state><load1>2.520000</load1><load5>0.000000</load5><cpu_util>0.970000</cpu_util><processes>-3</processes><mem_avail_pct>42.500000</mem_avail_pct><disk_avail>1234567890123</disk_avail><net_in>6710000.000000</net_in><net_out>-0.000000</net_out><sockets>703</sockets><timestamp>280.123456</timestamp></status></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="update"><status><host>h-19999</host><state>overloaded</state><load1>2.520000</load1><load5>0.000000</load5><cpu_util>0.970000</cpu_util><processes>-3</processes><mem_avail_pct>42.500000</mem_avail_pct><disk_avail>1234567890123</disk_avail><net_in>6710000.000000</net_in><net_out>-0.000000</net_out><sockets>703</sockets><timestamp>280.123456</timestamp></status></ars>)wire"},
    {"update_batch",
     R"wire(<ars type="update_batch"><renewal><host>h-1</host><state>free</state><timestamp>35.000000</timestamp></renewal><renewal><host>h-2</host><state>busy</state><timestamp>1000000000000000.000000</timestamp></renewal><renewal><host/><state/><timestamp>0.100000</timestamp></renewal></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="update_batch"><renewal><host>h-1</host><state>free</state><timestamp>35.000000</timestamp></renewal><renewal><host>h-2</host><state>busy</state><timestamp>1000000000000000.000000</timestamp></renewal><renewal><host/><state/><timestamp>0.100000</timestamp></renewal></ars>)wire"},
    {"update_batch.empty",
     R"wire(<ars type="update_batch"/>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="update_batch"/>)wire"},
    {"consult",
     R"wire(<ars type="consult"><host>ws1</host><reason>overloaded for 63.0s</reason></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="consult"><host>ws1</host><reason>overloaded for 63.0s</reason></ars>)wire"},
    {"consult.escalated",
     R"wire(<ars type="consult"><host>ws1</host><reason>overloaded (escalated by ws2)</reason><origin_registry>ws2</origin_registry><pid>1042</pid><process_name>test_tree</process_name><schema_name>test_tree</schema_name><commander_port>5002</commander_port></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="consult"><host>ws1</host><reason>overloaded (escalated by ws2)</reason><origin_registry>ws2</origin_registry><pid>1042</pid><process_name>test_tree</process_name><schema_name>test_tree</schema_name><commander_port>5002</commander_port></ars>)wire"},
    {"migrate",
     R"wire(<ars type="migrate"><pid>12</pid><process_name>test_tree.0</process_name><dest_host>ws4</dest_host><dest_ip>10.0.0.4</dest_ip><dest_port>5002</dest_port><schema_name/></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="migrate"><pid>12</pid><process_name>test_tree.0</process_name><dest_host>ws4</dest_host><dest_ip>10.0.0.4</dest_ip><dest_port>5002</dest_port><schema_name/></ars>)wire"},
    {"ack",
     R"wire(<ars type="ack"><of>migrate</of><ok>false</ok><detail>dest &apos;ws4&apos; said &quot;no&quot; &lt;busy&gt; &amp; gone</detail></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="ack"><of>migrate</of><ok>false</ok><detail>dest &apos;ws4&apos; said &quot;no&quot; &lt;busy&gt; &amp; gone</detail></ars>)wire"},
    {"process_register",
     R"wire(<ars type="process_register"><host>ws1</host><pid>2147483647</pid><name>matmul</name><start_time>12.500000</start_time><migration_enabled>true</migration_enabled><schema_name>matmul</schema_name></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="process_register"><host>ws1</host><pid>2147483647</pid><name>matmul</name><start_time>12.500000</start_time><migration_enabled>true</migration_enabled><schema_name>matmul</schema_name></ars>)wire"},
    {"process_deregister",
     R"wire(<ars type="process_deregister"><host>ws1</host><pid>-2147483648</pid></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="process_deregister"><host>ws1</host><pid>-2147483648</pid></ars>)wire"},
    {"health",
     R"wire(<ars type="health"><registry_host>reg-3</registry_host><registry_port>6000</registry_port><free_hosts>120</free_hosts><busy_hosts>7</busy_hosts><overloaded_hosts>1</overloaded_hosts><timestamp>33.333333</timestamp></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="health"><registry_host>reg-3</registry_host><registry_port>6000</registry_port><free_hosts>120</free_hosts><busy_hosts>7</busy_hosts><overloaded_hosts>1</overloaded_hosts><timestamp>33.333333</timestamp></ars>)wire"},
    {"recommend",
     R"wire(<ars type="recommend"><found>true</found><dest_host>ws7</dest_host><dest_ip>10.0.0.7</dest_ip><dest_port>5002</dest_port></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="recommend"><found>true</found><dest_host>ws7</dest_host><dest_ip>10.0.0.7</dest_ip><dest_port>5002</dest_port></ars>)wire"},
    {"recommend.none",
     R"wire(<ars type="recommend"><found>false</found><dest_host/><dest_ip/><dest_port>0</dest_port></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="recommend"><found>false</found><dest_host/><dest_ip/><dest_port>0</dest_port></ars>)wire"},
    {"evacuate",
     R"wire(<ars type="evacuate"><host>ws3</host><reason>planned shutdown</reason></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="evacuate"><host>ws3</host><reason>planned shutdown</reason></ars>)wire"},
    {"relaunch",
     R"wire(<ars type="relaunch"><process_name>stencil.2</process_name><lost_host>ws5</lost_host><schema_name>stencil</schema_name></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="relaunch"><process_name>stencil.2</process_name><lost_host>ws5</lost_host><schema_name>stencil</schema_name></ars>)wire"},
    {"migration_outcome",
     R"wire(<ars type="migration_outcome"><process>test_tree.0</process><source>ws1</source><destination>ws4</destination><outcome>committed</outcome></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="migration_outcome"><process>test_tree.0</process><source>ws1</source><destination>ws4</destination><outcome>committed</outcome></ars>)wire"},
    {"migration_outcome.precopy",
     R"wire(<ars type="migration_outcome"><process>test_tree.0</process><source>ws1</source><destination>ws4</destination><outcome>rolled-back</outcome><reason>dest-failed</reason><phase>restore</phase><precopy_rounds>3</precopy_rounds><precopy_bytes>18446744073709551615</precopy_bytes></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="migration_outcome"><process>test_tree.0</process><source>ws1</source><destination>ws4</destination><outcome>rolled-back</outcome><reason>dest-failed</reason><phase>restore</phase><precopy_rounds>3</precopy_rounds><precopy_bytes>18446744073709551615</precopy_bytes></ars>)wire"},
    {"resize",
     R"wire(<ars type="resize"><job>stencil</job><verb>expand</verb><delta>3</delta><strategy>tree</strategy><target>ws2</target><target>ws3</target><target>ws4</target></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="resize"><job>stencil</job><verb>expand</verb><delta>3</delta><strategy>tree</strategy><target>ws2</target><target>ws3</target><target>ws4</target></ars>)wire"},
    {"resize.shrink",
     R"wire(<ars type="resize"><job>stencil</job><verb>shrink</verb><delta>-2</delta></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="resize"><job>stencil</job><verb>shrink</verb><delta>-2</delta></ars>)wire"},
    {"resize_outcome",
     R"wire(<ars type="resize_outcome"><job>stencil</job><verb>expand</verb><delta>3</delta><outcome>partial-rollback</outcome><ranks_after>5</ranks_after><reason>spawn-timeout</reason><phase>spawn</phase></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="resize_outcome"><job>stencil</job><verb>expand</verb><delta>3</delta><outcome>partial-rollback</outcome><ranks_after>5</ranks_after><reason>spawn-timeout</reason><phase>spawn</phase></ars>)wire"},
    {"ckpt_io_request",
     R"wire(<ars type="ckpt_io_request"><host>ws1</host><process>matmul</process><verb>request</verb><bytes>60000000</bytes><risk>1.000001</risk></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="ckpt_io_request"><host>ws1</host><process>matmul</process><verb>request</verb><bytes>60000000</bytes><risk>1.000001</risk></ars>)wire"},
    {"ckpt_io_request.done",
     R"wire(<ars type="ckpt_io_request"><host>ws1</host><process>matmul</process><verb>done</verb></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="ckpt_io_request"><host>ws1</host><process>matmul</process><verb>done</verb></ars>)wire"},
    {"ckpt_io_grant",
     R"wire(<ars type="ckpt_io_grant"><process>matmul</process><verb>defer</verb><retry_after>2.750000</retry_after></ars>)wire",
     R"wire(<ars pspan="42" txn="1234567890123" type="ckpt_io_grant"><process>matmul</process><verb>defer</verb><retry_after>2.750000</retry_after></ars>)wire"},
};
// clang-format on

const GoldenWire& golden_for(const std::string& label) {
  for (const GoldenWire& golden : kGolden) {
    if (label == golden.label) {
      return golden;
    }
  }
  ADD_FAILURE() << "no golden wire for " << label;
  return kGolden[0];
}

TEST(GoldenWire, CoversEveryMessageType) {
  std::set<std::string> types;
  for (const auto& sample : testing::codec_samples()) {
    types.insert(message_type(sample.message));
  }
  EXPECT_EQ(types.size(), std::variant_size_v<ProtocolMessage>);
  EXPECT_EQ(std::size(kGolden), testing::codec_samples().size());
}

TEST(GoldenWire, EncoderWritesFrozenBytes) {
  for (const auto& sample : testing::codec_samples()) {
    const GoldenWire& golden = golden_for(sample.label);
    EXPECT_EQ(encode(sample.message), golden.plain) << sample.label;
    EXPECT_EQ(encode(sample.message, obs::TraceCtx{}), golden.plain)
        << sample.label;
    EXPECT_EQ(encode(sample.message, testing::golden_ctx()), golden.traced)
        << sample.label;
  }
}

TEST(GoldenWire, FrozenBytesDecodeAndReencodeIdentically) {
  for (const GoldenWire& golden : kGolden) {
    const auto plain = decode_envelope(golden.plain);
    ASSERT_TRUE(plain.has_value()) << golden.label;
    EXPECT_FALSE(plain->trace.set()) << golden.label;
    EXPECT_EQ(encode(plain->message), golden.plain) << golden.label;

    const auto traced = decode_envelope(golden.traced);
    ASSERT_TRUE(traced.has_value()) << golden.label;
    EXPECT_EQ(traced->trace.txn, testing::golden_ctx().txn) << golden.label;
    EXPECT_EQ(traced->trace.parent_span, testing::golden_ctx().parent_span)
        << golden.label;
    EXPECT_EQ(encode(traced->message, traced->trace), golden.traced)
        << golden.label;
  }
}

}  // namespace
}  // namespace ars::xmlproto

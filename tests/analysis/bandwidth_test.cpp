#include "analysis/bandwidth.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/dataset.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"
#include "tests/analysis/testlib.hpp"

namespace uncharted::analysis {
namespace {

std::vector<std::uint8_t> saved(const BandwidthAccumulator& acc) {
  ByteWriter w;
  acc.save(w);
  auto bytes = w.view();
  return {bytes.begin(), bytes.end()};
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (auto b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (auto b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

BandwidthAccumulator standalone(const std::vector<net::CapturedPacket>& packets) {
  BandwidthAccumulator acc;
  for (const auto& pkt : packets) acc.add_packet(pkt);
  return acc;
}

/// Bandwidth accounted by a DatasetBuilder's own decode pass.
BandwidthAccumulator fused(const std::vector<net::CapturedPacket>& packets,
                           ParseMode mode) {
  BandwidthAccumulator acc;
  CaptureDataset::Options options;
  options.mode = mode;
  DatasetBuilder builder(options);
  builder.set_bandwidth_sink(&acc);
  builder.add_packets(net::as_frame_views(packets));
  builder.finish();
  return acc;
}

/// Every report field, with the inter-arrival RunningStats compared bitwise
/// through its checkpoint encoding.
void expect_same_report(const BandwidthReport& got, const BandwidthReport& want) {
  EXPECT_EQ(got.bucket_seconds, want.bucket_seconds);
  EXPECT_EQ(got.start_ts, want.start_ts);
  ASSERT_EQ(got.series.size(), want.series.size());
  for (const auto& [proto, buckets] : want.series) {
    ASSERT_TRUE(got.series.count(proto)) << tap_protocol_name(proto);
    const auto& other = got.series.at(proto);
    ASSERT_EQ(other.size(), buckets.size()) << tap_protocol_name(proto);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      EXPECT_EQ(other[i].t_seconds, buckets[i].t_seconds) << i;
      EXPECT_EQ(other[i].bytes, buckets[i].bytes) << i;
      EXPECT_EQ(other[i].packets, buckets[i].packets) << i;
    }
  }
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.total_packets, want.total_packets);
  EXPECT_EQ(got.top_connections, want.top_connections);
  ByteWriter a;
  ByteWriter b;
  got.iec104_interarrival_s.save(a);
  want.iec104_interarrival_s.save(b);
  EXPECT_EQ(hex(a.view()), hex(b.view()));
}

/// The accounting edge cases in one capture: an undecodable frame first
/// (it anchors the start but is not counted), a packet stamped before the
/// start, a jump past the zero-fill limit (10k buckets), and a reordered
/// packet landing inside the elided gap.
std::vector<net::CapturedPacket> edge_capture() {
  net::CapturedPacket junk;
  junk.ts = 2'000'000;
  junk.data = {0xde, 0xad, 0xbe, 0xef};
  junk.original_length = 4;
  std::vector<net::CapturedPacket> packets{junk};
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 1);
  auto station = testlib::ip(10, 1, 0, 5);
  auto apdu = [&](Timestamp ts, bool from_station, float v, std::uint16_t ns) {
    cb.apdu(ts, server, station, from_station,
            testlib::i_apdu(testlib::float_asdu(5, 1, v), ns, 0));
  };
  apdu(5'000'000, true, 1.0f, 0);
  apdu(1'000'000, false, 2.0f, 1);
  apdu(26'000'000, true, 3.0f, 2);
  apdu(250'000'000'000ULL, true, 4.0f, 3);
  apdu(100'000'000'000ULL, true, 5.0f, 4);
  packets.insert(packets.end(), cb.packets().begin(), cb.packets().end());
  return packets;
}

const std::vector<net::CapturedPacket>& y1_packets() {
  static const auto capture = sim::generate_capture(sim::CaptureConfig::y1(90.0));
  return capture.packets;
}

const std::vector<net::CapturedPacket>& faulty_y2_packets() {
  static const auto faulted = faultinject::apply_faults(
      sim::generate_capture(sim::CaptureConfig::y2(60.0)).packets,
      faultinject::FaultConfig::uniform(0.05));
  return faulted.packets;
}

TEST(Bandwidth, BucketsAndTotalsFromHandBuiltCapture) {
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 1);
  auto station = testlib::ip(10, 1, 0, 5);
  // Three APDUs: t=0s, t=5s, t=25s.
  cb.apdu(0, server, station, true, testlib::i_apdu(testlib::float_asdu(5, 1, 1.0f), 0, 0));
  cb.apdu(5'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 2.0f), 1, 0));
  cb.apdu(25'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 3.0f), 2, 0));

  auto report = analyze_bandwidth(cb.packets(), 10.0);
  ASSERT_TRUE(report.series.count(TapProtocol::kIec104));
  const auto& buckets = report.series.at(TapProtocol::kIec104);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].packets, 2u);
  EXPECT_EQ(buckets[1].packets, 0u);
  EXPECT_EQ(buckets[2].packets, 1u);
  EXPECT_EQ(report.total_packets.at(TapProtocol::kIec104), 3u);
  EXPECT_GT(report.total_bytes.at(TapProtocol::kIec104), 3u * 60u);

  // Inter-arrival stats: gaps of 5 s and 20 s.
  EXPECT_EQ(report.iec104_interarrival_s.count(), 2u);
  EXPECT_NEAR(report.iec104_interarrival_s.mean(), 12.5, 1e-9);

  // Top talker is our single connection.
  ASSERT_FALSE(report.top_connections.empty());
  EXPECT_GT(report.top_connections[0].second, 0u);
}

TEST(Bandwidth, EmptyCapture) {
  auto report = analyze_bandwidth(std::vector<net::CapturedPacket>{});
  EXPECT_TRUE(report.series.empty());
  EXPECT_EQ(report.duration_seconds(), 0.0);
  EXPECT_EQ(report.mean_rate_bps(TapProtocol::kIec104), 0.0);
}

TEST(Bandwidth, ProtocolSplitOnSimCapture) {
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(90.0));
  auto report = analyze_bandwidth(capture.packets, 10.0);
  EXPECT_GT(report.total_bytes.at(TapProtocol::kIec104), 0u);
  EXPECT_GT(report.total_bytes.at(TapProtocol::kC37118), 0u);
  EXPECT_GT(report.total_bytes.at(TapProtocol::kIccp), 0u);
  EXPECT_EQ(report.total_bytes.count(TapProtocol::kOther), 0u);
  // SCADA telemetry is low-bandwidth: well under 1 MB/s at this scale.
  EXPECT_LT(report.mean_rate_bps(TapProtocol::kIec104), 1e6);
  EXPECT_GT(report.mean_rate_bps(TapProtocol::kIec104), 1e3);
  // C37.118 rate is steady: no empty buckets after warm-up.
  const auto& pmu = report.series.at(TapProtocol::kC37118);
  for (std::size_t i = 1; i + 1 < pmu.size(); ++i) {
    EXPECT_GT(pmu[i].packets, 0u) << "bucket " << i;
  }
}

TEST(Bandwidth, TimestampJumpRecordsDiscontinuityInsteadOfFillingGap) {
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 1);
  auto station = testlib::ip(10, 1, 0, 5);
  cb.apdu(0, server, station, true, testlib::i_apdu(testlib::float_asdu(5, 1, 1.0f), 0, 0));
  // 49 years later — the epoch-vs-relative timebase confusion an attacker
  // (or a buggy tap) can feed a live monitor. Dense zero-fill would try to
  // materialize ~155 million buckets here.
  constexpr Timestamp kEpoch2019 = 1'560'556'800ULL * 1'000'000ULL;
  cb.apdu(kEpoch2019, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 2.0f), 1, 0));

  auto report = analyze_bandwidth(cb.packets(), 10.0);
  const auto& buckets = report.series.at(TapProtocol::kIec104);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].t_seconds, 0.0);
  EXPECT_EQ(buckets[0].packets, 1u);
  // The far bucket still carries its true offset, so duration and mean
  // rate reflect the real (absurd) span.
  EXPECT_NEAR(buckets[1].t_seconds, 1'560'556'800.0, 10.0);
  EXPECT_EQ(buckets[1].packets, 1u);
  EXPECT_GT(report.duration_seconds(), 1e9);
}

TEST(Bandwidth, PacketBeforeCaptureStartCollapsesIntoBucketZero) {
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 1);
  auto station = testlib::ip(10, 1, 0, 5);
  cb.apdu(5'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 1.0f), 0, 0));
  // Stamped before the first-seen packet: unsigned subtraction must not
  // wrap into a ~580,000-year bucket offset.
  cb.apdu(1'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 2.0f), 1, 0));

  auto report = analyze_bandwidth(cb.packets(), 10.0);
  const auto& buckets = report.series.at(TapProtocol::kIec104);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].packets, 2u);
  // The reordered inter-arrival sample is skipped, not recorded as huge.
  EXPECT_EQ(report.iec104_interarrival_s.count(), 0u);
}

TEST(Bandwidth, FusedBuilderPassEqualsStandalonePass) {
  // The faulty capture must carry undecodable frames (the nullptr path).
  std::size_t undecodable = 0;
  net::DecodedFrame frame;
  for (const auto& pkt : faulty_y2_packets()) {
    if (!net::decode_frame_into(pkt.data, frame)) ++undecodable;
  }
  ASSERT_GT(undecodable, 0u);

  struct Case {
    const char* name;
    const std::vector<net::CapturedPacket>& packets;
    ParseMode mode;
  };
  auto edges = edge_capture();
  const Case cases[] = {{"y1", y1_packets(), ParseMode::kPerPacket},
                        {"y2 5% faults", faulty_y2_packets(), ParseMode::kReassembled},
                        {"edge cases", edges, ParseMode::kPerPacket}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto want = standalone(c.packets);
    auto got = fused(c.packets, c.mode);
    expect_same_report(got.finish(), want.finish());
    // The whole state, not just the top-20 talkers the report keeps.
    EXPECT_EQ(hex(saved(got)), hex(saved(want)));
  }
}

// Checkpoint payloads written before the flat accumulator, pinned: the
// format is unchanged, so no checkpoint version bump is needed.
TEST(Bandwidth, SaveBytesMatchPinnedEncoding) {
  const std::string edge_hex =
    "00000000000024400180841e0000000000010000000005000000000000000000"
    "0000940000000000000002000000000000000000000000002440000000000000"
    "0000000000000000000000000000000034404a00000000000000010000000000"
    "0000000000006069f8404a000000000000000100000000000000000000003084"
    "0e414a0000000000000001000000000000000100000000720100000000000001"
    "000000000500000000000000010000000100000a00c00500010a640964000000"
    "000000000100e87648170000000200000000000000000000007884fe40000092"
    "838a171d420000000078840e41000000000000394000000000b0830e41";;
  auto edges = standalone(edge_capture());
  EXPECT_EQ(hex(saved(edges)), edge_hex);

  auto y1 = saved(standalone(y1_packets()));
  EXPECT_EQ(y1.size(), 6567u);
  EXPECT_EQ(fnv1a(y1), 0x3103866c5f9b0467ULL);
  auto y2 = saved(standalone(faulty_y2_packets()));
  EXPECT_EQ(y2.size(), 7678u);
  EXPECT_EQ(fnv1a(y2), 0x7de1ea46a7d9956dULL);

  // A pinned payload restores and re-saves to the same bytes.
  auto bytes = saved(edges);
  ByteReader r(bytes);
  BandwidthAccumulator restored;
  ASSERT_TRUE(restored.load(r).ok());
  EXPECT_EQ(hex(saved(restored)), edge_hex);
}

// Out-of-range tags are covered end to end in tests/core/checkpoint_test.cpp.
TEST(Bandwidth, LoadRejectsSectionsThatDisagreeOnProtocols) {
  // One protocol per section, each section naming its own tag.
  auto load = [](std::uint8_t series_tag, std::uint8_t bytes_tag,
                 std::uint8_t packets_tag) {
    ByteWriter w;
    w.f64le(10.0);  // bucket width
    w.u8(1);        // start seen
    w.u64le(0);
    w.u32le(1);  // one series of one bucket
    w.u8(series_tag);
    w.u32le(1);
    w.f64le(0.0);
    w.u64le(60);
    w.u64le(1);
    w.u32le(1);  // total bytes
    w.u8(bytes_tag);
    w.u64le(60);
    w.u32le(1);  // total packets
    w.u8(packets_tag);
    w.u64le(1);
    w.u32le(0);  // no connections
    w.u8(0);     // no previous IEC 104 timestamp
    RunningStats{}.save(w);
    ByteReader r(w.view());
    BandwidthAccumulator acc;
    return acc.load(r);
  };
  EXPECT_TRUE(load(0, 0, 0).ok());
  EXPECT_FALSE(load(0, 2, 0).ok());
  EXPECT_FALSE(load(0, 0, 2).ok());
}

TEST(Bandwidth, Names) {
  EXPECT_EQ(tap_protocol_name(TapProtocol::kIec104), "IEC 104");
  EXPECT_EQ(tap_protocol_name(TapProtocol::kIccp), "ICCP");
}

}  // namespace
}  // namespace uncharted::analysis

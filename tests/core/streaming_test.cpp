// StreamingAnalyzer: batch equivalence, crash/restore via checkpoint,
// resource governance, and the degradation reporting around both.
#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/names.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"
#include "tests/core/snapshot_twin.hpp"

namespace uncharted::core {
namespace {

const sim::CaptureResult& capture() {
  static const auto c = [] {
    return sim::generate_capture(sim::CaptureConfig::y1(90.0));
  }();
  return c;
}

CaptureAnalyzer::Options batch_options() {
  CaptureAnalyzer::Options options;
  options.keep_series = false;
  return options;
}

const AnalysisReport& batch_report() {
  static const auto report =
      CaptureAnalyzer::analyze(capture().packets, batch_options());
  return report;
}

std::string temp_path(const std::string& name) {
  auto path = ::testing::TempDir() + "streaming_test_" + name;
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  return path;
}

void expect_headlines_match(const AnalysisReport& got, const AnalysisReport& want) {
  EXPECT_EQ(got.stats.packets, want.stats.packets);
  EXPECT_EQ(got.stats.tcp_packets, want.stats.tcp_packets);
  EXPECT_EQ(got.stats.apdus, want.stats.apdus);
  EXPECT_EQ(got.stats.apdu_failures, want.stats.apdu_failures);
  EXPECT_EQ(got.flows.summary.total, want.flows.summary.total);
  EXPECT_EQ(got.station_types.size(), want.station_types.size());
  EXPECT_EQ(got.clustering.profiles.size(), want.clustering.profiles.size());
  EXPECT_EQ(got.bandwidth.total_bytes, want.bandwidth.total_bytes);
}

TEST(Streaming, MatchesBatchAnalyzerExactly) {
  StreamingOptions options;
  options.analyze = batch_options();
  options.batch_packets = 256;  // force many slices
  StreamingAnalyzer analyzer(options);
  analyzer.add_packets(capture().packets);
  auto report = analyzer.finalize();

  EXPECT_FALSE(report.degradation.degraded());
  expect_headlines_match(report, batch_report());
}

TEST(Streaming, CheckpointRestoreResumesMidStream) {
  auto path = temp_path("resume.ckpt");
  StreamingOptions options;
  options.analyze = batch_options();
  options.checkpoint_path = path;

  const auto& packets = capture().packets;
  const std::size_t cut = packets.size() / 2;
  {
    // First incarnation: half the capture, one explicit checkpoint, then
    // gone without finalize — the crash case.
    StreamingAnalyzer first(options);
    first.add_packets({packets.data(), cut});
    ASSERT_TRUE(first.checkpoint_now().ok());
  }

  StreamingAnalyzer second(options);
  ASSERT_TRUE(second.try_restore());
  ASSERT_EQ(second.packets_consumed(), cut);
  second.add_packets({packets.data() + cut, packets.size() - cut});
  auto report = second.finalize();
  expect_headlines_match(report, batch_report());
}

TEST(Streaming, PeriodicCheckpointsAreWritten) {
  auto path = temp_path("periodic.ckpt");
  StreamingOptions options;
  options.analyze = batch_options();
  options.checkpoint_path = path;
  options.checkpoint_every_packets = 200;

  StreamingAnalyzer analyzer(options);
  const auto& packets = capture().packets;
  for (std::size_t i = 0; i < 500 && i < packets.size(); ++i) {
    analyzer.add_packet(packets[i]);
  }
  EXPECT_TRUE(std::filesystem::exists(path));

  // A fresh analyzer restores from the periodic snapshot alone.
  StreamingAnalyzer resumed(options);
  ASSERT_TRUE(resumed.try_restore());
  EXPECT_GT(resumed.packets_consumed(), 0u);
  EXPECT_LE(resumed.packets_consumed(), 500u);
  EXPECT_EQ(resumed.packets_consumed() % 200, 0u);
}

TEST(Streaming, CorruptPrimaryFallsBackToRotatedGeneration) {
  auto path = temp_path("fallback.ckpt");
  StreamingOptions options;
  options.analyze = batch_options();
  options.checkpoint_path = path;

  const auto& packets = capture().packets;
  {
    StreamingAnalyzer a(options);
    a.add_packets({packets.data(), std::size_t{300}});
    ASSERT_TRUE(a.checkpoint_now().ok());  // generation 1: 300 packets
    a.add_packets({packets.data() + 300, std::size_t{200}});
    ASSERT_TRUE(a.checkpoint_now().ok());  // generation 0: 500 packets
  }
  // Tear the primary the way a mid-write crash would.
  std::filesystem::resize_file(path, 32);

  StreamingAnalyzer resumed(options);
  ASSERT_TRUE(resumed.try_restore());
  EXPECT_EQ(resumed.packets_consumed(), 300u);
}

TEST(Streaming, GarbageCheckpointsStartFreshNotCrash) {
  auto path = temp_path("garbage.ckpt");
  StreamingOptions options;
  options.analyze = batch_options();
  options.checkpoint_path = path;
  for (const auto& victim : {path, path + ".1"}) {
    std::ofstream f(victim, std::ios::binary);
    f << "not a checkpoint at all";
  }
  StreamingAnalyzer analyzer(options);
  EXPECT_FALSE(analyzer.try_restore());
  EXPECT_EQ(analyzer.packets_consumed(), 0u);

  analyzer.add_packets(capture().packets);
  auto report = analyzer.finalize();
  expect_headlines_match(report, batch_report());
}

TEST(Streaming, RestoreWithoutCheckpointPathIsFresh) {
  StreamingAnalyzer analyzer(StreamingOptions{});
  EXPECT_FALSE(analyzer.try_restore());
  auto status = analyzer.checkpoint_now();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "checkpoint-unconfigured");
}

TEST(Streaming, ResourceBudgetsSurfaceAsDegradation) {
  StreamingOptions options;
  options.analyze = batch_options();
  options.budgets.max_flow_entries = 8;
  options.budgets.max_records = 512;
  options.budgets.max_parsers = 4;

  StreamingAnalyzer analyzer(options);
  analyzer.add_packets(capture().packets);
  EXPECT_TRUE(analyzer.pressure().any());
  auto report = analyzer.finalize();

  const auto& rp = report.degradation.resources;
  EXPECT_TRUE(report.degradation.degraded());
  EXPECT_GT(rp.flow_evictions + rp.records_evicted + rp.parsers_evicted, 0u);
  EXPECT_LE(rp.peak_flow_entries, 8u);
  EXPECT_LE(rp.peak_records, 512u);
  bool mentioned = false;
  for (const auto& w : report.degradation.warnings) {
    if (w.find("resource budgets") != std::string::npos) mentioned = true;
  }
  EXPECT_TRUE(mentioned);

  NameMap names;
  auto rendered = render_report(report, names);
  EXPECT_NE(rendered.find("resource pressure:"), std::string::npos);
}

TEST(Streaming, UnlimitedBudgetsReportNoPressure) {
  StreamingOptions options;
  options.analyze = batch_options();
  StreamingAnalyzer analyzer(options);
  analyzer.add_packets(capture().packets);
  EXPECT_FALSE(analyzer.pressure().any());
  auto report = analyzer.finalize();
  EXPECT_FALSE(report.degradation.resources.any());
}

TEST(Streaming, RepeatedWarningsRenderOnceWithCount) {
  // Dedup rendering: a long soak repeating the same condition every batch
  // must not scroll the report; distinct lines keep first-seen order.
  AnalysisReport report = batch_report();
  report.degradation.pcap_truncated = true;  // force the degraded section
  report.degradation.warnings = {"flow table under pressure",
                                 "flow table under pressure",
                                 "checkpoint write failed: disk full",
                                 "flow table under pressure"};
  NameMap names;
  auto rendered = render_report(report, names);

  auto first = rendered.find("warning: flow table under pressure (x3)");
  EXPECT_NE(first, std::string::npos);
  EXPECT_EQ(rendered.find("warning: flow table under pressure",
                          first + 1),
            std::string::npos);
  // The singleton warning renders without a count suffix.
  EXPECT_NE(rendered.find("warning: checkpoint write failed: disk full\n"),
            std::string::npos);
}

TEST(Streaming, AnalyzeFileStreamingMatchesAnalyzeFile) {
  auto pcap = ::testing::TempDir() + "streaming_test_roundtrip.pcap";
  ASSERT_TRUE(sim::write_capture_pcap(capture(), pcap).ok());

  StreamingOptions options;
  options.analyze = batch_options();
  options.checkpoint_path = temp_path("file.ckpt");
  options.checkpoint_every_packets = 1000;
  auto streamed = analyze_file_streaming(pcap, options);
  ASSERT_TRUE(streamed.ok());
  auto batch = CaptureAnalyzer::analyze_file(pcap, batch_options());
  ASSERT_TRUE(batch.ok());
  expect_headlines_match(*streamed, *batch);

  // Second run: the shutdown checkpoint from the first run covers the
  // whole file, so the resume cursor skips everything and the report is
  // still identical.
  auto resumed = analyze_file_streaming(pcap, options);
  ASSERT_TRUE(resumed.ok());
  expect_headlines_match(*resumed, *batch);
}

const std::vector<net::CapturedPacket>& faulty_packets() {
  static const auto faulted = faultinject::apply_faults(
      capture().packets, faultinject::FaultConfig::uniform(0.05));
  return faulted.packets;
}

StreamingOptions snapshot_options(analysis::ParseMode mode, bool evicting) {
  StreamingOptions options;
  options.analyze = batch_options();
  options.analyze.mode = mode;
  if (evicting) options.budgets = snapshot_twin::evicting_budgets();
  return options;
}

TEST(StreamingSnapshot, PerPacketMatchesTwin) {
  snapshot_twin::expect_snapshots_match_twin(
      capture().packets, snapshot_options(analysis::ParseMode::kPerPacket, false),
      false);
}

TEST(StreamingSnapshot, ReassembledMatchesTwin) {
  snapshot_twin::expect_snapshots_match_twin(
      capture().packets, snapshot_options(analysis::ParseMode::kReassembled, false),
      false);
}

TEST(StreamingSnapshot, FaultyInputMatchesTwin) {
  for (auto mode : {analysis::ParseMode::kPerPacket, analysis::ParseMode::kReassembled}) {
    snapshot_twin::expect_snapshots_match_twin(faulty_packets(),
                                         snapshot_options(mode, false), false);
  }
}

TEST(StreamingSnapshot, EvictingBudgetsMatchTwin) {
  for (auto mode : {analysis::ParseMode::kPerPacket, analysis::ParseMode::kReassembled}) {
    snapshot_twin::expect_snapshots_match_twin(faulty_packets(),
                                         snapshot_options(mode, true), false);
  }
}

TEST(StreamingSnapshot, ParkedPacketsMatchTwin) {
  snapshot_twin::expect_snapshots_match_twin(
      faulty_packets(), snapshot_options(analysis::ParseMode::kReassembled, false),
      true);
}

TEST(StreamingSnapshot, QueriesLeaveStateUntouched) {
  snapshot_twin::expect_snapshots_leave_state_untouched(
      capture().packets, snapshot_options(analysis::ParseMode::kPerPacket, false));
  snapshot_twin::expect_snapshots_leave_state_untouched(
      faulty_packets(), snapshot_options(analysis::ParseMode::kReassembled, true));
}

}  // namespace
}  // namespace uncharted::core

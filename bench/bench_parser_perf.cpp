// E14 — parser and pipeline throughput (google-benchmark).
//
// The paper's pipeline had to chew through ~11 hours of captures; this
// bench verifies the C++ implementation handles capture-scale inputs at
// interactive speed: APDU encode/decode, tolerant stream parsing, TCP
// reassembly, bandwidth accounting, and the full analyzer.
#include <benchmark/benchmark.h>

#include "analysis/bandwidth.hpp"
#include "analysis/dataset.hpp"
#include "core/analyzer.hpp"
#include "iec104/parser.hpp"
#include "sim/capture.hpp"

using namespace uncharted;

namespace {

iec104::Asdu sample_asdu(int objects) {
  iec104::Asdu asdu;
  asdu.type = iec104::TypeId::M_ME_TF_1;
  asdu.cot.cause = iec104::Cause::kSpontaneous;
  asdu.common_address = 17;
  for (int i = 0; i < objects; ++i) {
    iec104::InformationObject obj;
    obj.ioa = 2000 + static_cast<std::uint32_t>(i);
    obj.value = iec104::ShortFloat{60.0f + static_cast<float>(i), {}};
    obj.time = iec104::Cp56Time2a::from_timestamp(1560556800ULL * 1'000'000);
    asdu.objects.push_back(std::move(obj));
  }
  return asdu;
}

void BM_ApduEncode(benchmark::State& state) {
  auto asdu = sample_asdu(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto bytes = iec104::Apdu::make_i(1, 2, asdu).encode();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ApduEncode)->Arg(1)->Arg(8)->Arg(16);

void BM_ApduDecode(benchmark::State& state) {
  auto bytes = iec104::Apdu::make_i(1, 2, sample_asdu(static_cast<int>(state.range(0))))
                   .encode()
                   .take();
  for (auto _ : state) {
    ByteReader r(bytes);
    auto apdu = iec104::decode_apdu(r);
    benchmark::DoNotOptimize(apdu);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_ApduDecode)->Arg(1)->Arg(8)->Arg(16);

void BM_TolerantStreamParse(benchmark::State& state) {
  // A stream mixing standard and legacy-profile APDUs.
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 100; ++i) {
    auto profile = i % 4 == 0 ? iec104::CodecProfile::legacy_cot()
                              : iec104::CodecProfile::standard();
    auto bytes = iec104::Apdu::make_i(static_cast<std::uint16_t>(i), 0, sample_asdu(1))
                     .encode(profile)
                     .take();
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  for (auto _ : state) {
    iec104::ApduStreamParser parser;
    parser.feed(0, stream);
    benchmark::DoNotOptimize(parser.apdus().size());
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_TolerantStreamParse);

void BM_StrictStreamParse(benchmark::State& state) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 100; ++i) {
    auto bytes =
        iec104::Apdu::make_i(static_cast<std::uint16_t>(i), 0, sample_asdu(1)).encode().take();
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  for (auto _ : state) {
    iec104::ApduStreamParser parser(iec104::ApduStreamParser::Mode::kStrict);
    parser.feed(0, stream);
    benchmark::DoNotOptimize(parser.apdus().size());
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_StrictStreamParse);

const sim::CaptureResult& capture_120s() {
  static const sim::CaptureResult capture =
      sim::generate_capture(sim::CaptureConfig::y1(120.0));
  return capture;
}

void BM_CaptureGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto capture = sim::generate_capture(
        sim::CaptureConfig::y1(static_cast<double>(state.range(0))));
    benchmark::DoNotOptimize(capture.packets.size());
  }
}
BENCHMARK(BM_CaptureGeneration)->Arg(30)->Arg(120)->Unit(benchmark::kMillisecond);

void BM_DatasetBuildPerPacket(benchmark::State& state) {
  const auto& capture = capture_120s();
  for (auto _ : state) {
    auto ds = analysis::CaptureDataset::build(capture.packets);
    benchmark::DoNotOptimize(ds.stats().apdus);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(capture.packets.size()));
}
BENCHMARK(BM_DatasetBuildPerPacket)->Unit(benchmark::kMillisecond);

void BM_DatasetBuildReassembled(benchmark::State& state) {
  const auto& capture = capture_120s();
  analysis::CaptureDataset::Options opts;
  opts.mode = analysis::ParseMode::kReassembled;
  for (auto _ : state) {
    auto ds = analysis::CaptureDataset::build(capture.packets, opts);
    benchmark::DoNotOptimize(ds.stats().apdus);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(capture.packets.size()));
}
BENCHMARK(BM_DatasetBuildReassembled)->Unit(benchmark::kMillisecond);

// Bandwidth layer, decode + account: the standalone pass the sharded path
// and streaming admission run.
void BM_BandwidthAddPacket(benchmark::State& state) {
  const auto& capture = capture_120s();
  for (auto _ : state) {
    analysis::BandwidthAccumulator acc;
    for (const auto& pkt : capture.packets) acc.add_packet(pkt);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(capture.packets.size()));
}
BENCHMARK(BM_BandwidthAddPacket)->Unit(benchmark::kMillisecond);

// Bandwidth layer, accounting only: what the single-builder path adds to
// the DatasetBuilder's own decode.
void BM_BandwidthAddDecoded(benchmark::State& state) {
  const auto& capture = capture_120s();
  std::vector<net::DecodedFrame> frames(capture.packets.size());
  std::vector<bool> ok(capture.packets.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ok[i] = net::decode_frame_into(capture.packets[i].data, frames[i]);
  }
  for (auto _ : state) {
    analysis::BandwidthAccumulator acc;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      acc.add_decoded(capture.packets[i].ts, capture.packets[i].data.size(),
                      ok[i] ? &frames[i] : nullptr);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_BandwidthAddDecoded)->Unit(benchmark::kMillisecond);

void BM_FullAnalyzer(benchmark::State& state) {
  const auto& capture = capture_120s();
  for (auto _ : state) {
    auto report = core::CaptureAnalyzer::analyze(capture.packets);
    benchmark::DoNotOptimize(report.stats.apdus);
  }
}
BENCHMARK(BM_FullAnalyzer)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Batch workloads: a capture written to a pcap on disk, then
// CaptureAnalyzer::analyze_file + render_report + report_to_json, timed
// from the outside as one sample and repeated for the run's seconds.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "faultinject/fault.hpp"
#include "faultinject/sysfault.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncharted;

namespace {

constexpr int kMinSamples = 3;

/// Set-up: generate the capture (plus seeded faults) and write the pcap.
/// Returns the packet count.
std::uint64_t write_batch_input(const WorkloadSpec& spec, const std::string& path) {
  auto capture = sim::generate_capture(spec.capture);
  if (spec.fault_rate > 0.0) {
    auto damaged = faultinject::apply_faults(
        capture.packets, faultinject::FaultConfig::uniform(spec.fault_rate, spec.fault_seed));
    capture.packets = std::move(damaged.packets);
  }
  if (auto st = sim::write_capture_pcap(capture, path); !st) {
    throw std::runtime_error("cannot write " + path + ": " + st.error().str());
  }
  return capture.packets.size();
}

struct Sample {
  double wall_ms = 0.0;
  std::uint64_t json_digest = 0;
  std::uint64_t text_digest = 0;
};

Sample untraced_sample(const std::string& path, const core::CaptureAnalyzer::Options& options) {
  const auto start = Clock::now();
  auto report = core::CaptureAnalyzer::analyze_file(path, options);
  if (!report) throw std::runtime_error("analyze_file: " + report.error().str());
  const std::string text = core::render_report(*report, core::NameMap{});
  const std::string json = core::report_to_json(*report);
  Sample s;
  s.wall_ms = ms_between(start, Clock::now());
  s.json_digest = digest(json);
  s.text_digest = digest(text);
  return s;
}

}  // namespace

core::CaptureAnalyzer::Options analyzer_options(const WorkloadSpec& spec) {
  core::CaptureAnalyzer::Options options;
  options.mode = spec.reassembled ? analysis::ParseMode::kReassembled
                                  : analysis::ParseMode::kPerPacket;
  options.threads = spec.threads;
  return options;
}

RunResult run_batch(const WorkloadSpec& spec, const Args& args) {
  RunResult result;
  std::filesystem::create_directories(args.workdir);
  const std::string path = args.workdir + "/" + spec.name + "-" +
                           std::to_string(args.seed) + "-" + std::to_string(getpid()) +
                           ".pcap";
  struct Remove {
    std::string path;
    ~Remove() { std::remove(path.c_str()); }
  } remove_pcap{path};

  std::vector<double> setup_s;
  std::uint64_t packets = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto start = Clock::now();
    packets = write_batch_input(spec, path);
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  // Flush the pcap's dirty pages now, so their writeback does not run
  // under the timed samples. The file stays in the page cache.
  auto& sys = faultinject::real_sys_ops();
  if (const int fd = sys.open(path.c_str(), O_RDONLY, 0); fd >= 0) {
    sys.fsync(fd);
    sys.close(fd);
  }
  std::printf("setup: %llu packets, pcap %s (%.1f MB)\n",
              static_cast<unsigned long long>(packets), path.c_str(),
              static_cast<double>(std::filesystem::file_size(path)) / 1e6);

  const auto options = analyzer_options(spec);
  const double rss_baseline_mb = reset_peak_rss();
  // Warm-up: fills the page cache and lazy state; its report is the
  // reference every later sample must reproduce byte for byte.
  const Sample reference = untraced_sample(path, options);
  result.attempted += 1;

  auto check = [&](std::uint64_t json_digest, std::uint64_t text_digest, const char* what) {
    result.attempted += 1;
    if (json_digest != reference.json_digest || text_digest != reference.text_digest) {
      result.fail(1, std::string(what) + " report digest " + hex(json_digest) +
                         " != reference " + hex(reference.json_digest));
    }
  };

  std::vector<double> untraced_ms, traced_ms;
  std::vector<Layers> traced_layers;
  const double cpu_start = process_cpu_s();
  const auto run_start = Clock::now();
  while (true) {
    const double elapsed_s = ms_between(run_start, Clock::now()) / 1000.0;
    const std::size_t done = untraced_ms.size() + traced_ms.size();
    if (elapsed_s >= args.seconds && done >= kMinSamples) break;
    if (!args.trace || done % 2 == 0) {
      Sample s = untraced_sample(path, options);
      untraced_ms.push_back(s.wall_ms);
      check(s.json_digest, s.text_digest, "untraced");
    } else {
      TracedSample s = traced_batch_sample(path, spec);
      traced_ms.push_back(s.wall_ms);
      traced_layers.push_back(std::move(s.layers));
      check(digest(s.json), digest(s.text), "traced");
    }
  }
  const double cpu_s = process_cpu_s() - cpu_start;
  const double rss_mb = peak_rss_mb() - rss_baseline_mb;
  std::printf("samples: %zu untraced, %zu traced; reference digest %s\nuntraced ms:",
              untraced_ms.size(), traced_ms.size(), hex(reference.json_digest).c_str());
  for (double ms : untraced_ms) std::printf(" %.1f", ms);
  if (args.trace) {
    std::printf("\ntraced ms:");
    for (double ms : traced_ms) std::printf(" %.1f", ms);
  }
  std::printf("\n");

  const double p50 = median(untraced_ms);
  if (args.trace) {
    // Each layer metric is its median over the traced samples.
    Layers layers;
    for (const auto& [name, value] : traced_layers.front()) {
      std::vector<double> values;
      for (const auto& sample : traced_layers) values.push_back(sample.at(name));
      layers[name] = median(values);
    }
    layers["bench.trace.overhead_ms"] = median(traced_ms) - p50;
    set_layer_metrics(result, layers);
    std::printf("tracing overhead: traced p50 %.3f ms - untraced p50 %.3f ms\n",
                median(traced_ms), p50);
    return result;
  }

  const double mpkt = static_cast<double>(packets) * untraced_ms.size() / 1e6;
  result.set("setup_s", median(setup_s), "s");
  result.set("latency_ms_p50", p50, "ms");
  result.set("query_ms_p50", p50, "ms");
  result.set("items_per_s", static_cast<double>(packets) / (p50 / 1000.0), "1/s");
  result.set("cpu_s_per_mpkt", cpu_s / mpkt, "s/Mpkt");
  result.set("peak_rss_mb", rss_mb, "MB");
  std::printf("batch_ms_p50 %.3f ms over %zu samples; peak rss %.1f MB above a %.1f MB "
              "baseline; error_rate %.6f\n",
              p50, untraced_ms.size(), rss_mb, rss_baseline_mb,
              static_cast<double>(result.failed) / static_cast<double>(result.attempted));
  return result;
}

}  // namespace perfbench

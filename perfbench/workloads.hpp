// The workload runners and the layer trace they share.
#pragma once

#include <map>
#include <string>

#include "common.hpp"
#include "core/analyzer.hpp"

namespace perfbench {

/// batch_y1 / batch_y2_faulty: pcap on disk -> analyze_file ->
/// render_report + report_to_json, repeated for the run's seconds.
RunResult run_batch(const WorkloadSpec& spec, const Args& args);

/// live_y1 / live_y1_query: LiveIngestDaemon on one thread, a paced
/// FleetClient replaying the capture on another, queries from the caller.
RunResult run_live(const WorkloadSpec& spec, const Args& args);

/// The analyzer options a workload runs with.
uncharted::core::CaptureAnalyzer::Options analyzer_options(const WorkloadSpec& spec);

/// Per-layer values of one traced run, by metric name.
using Layers = std::map<std::string, double>;

/// Sets every per-layer metric a --trace 1 run prints, with its unit, in
/// BENCHMARK.json order. A metric missing from `layers` (a layer the
/// workload never calls) reads 0.
void set_layer_metrics(RunResult& result, const Layers& layers);

/// One traced batch sample: the pipeline CaptureAnalyzer::analyze_file
/// composes, rebuilt here from the layers' public calls with a span around
/// each, then the standalone net / iec104 layer passes over the same
/// frames. `json` and `text` are the composed pipeline's report, which
/// must equal the untraced one; `wall_ms` covers the composed pipeline
/// only (pcap on disk to text + JSON), never the layer passes.
struct TracedSample {
  std::string json;
  std::string text;
  double wall_ms = 0.0;
  Layers layers;
};
TracedSample traced_batch_sample(const std::string& pcap_path, const WorkloadSpec& spec);

}  // namespace perfbench

// The layer trace: spans recorded from outside the library, around each
// call into a layer's public functions, composed the way
// CaptureAnalyzer::analyze_file composes them. Nothing in src/ is
// instrumented, so the trace only sees layer boundaries the public API
// exposes. Layers that DatasetBuilder drives internally (decode, flow
// table, reassembly, APDU parsing) get standalone passes over the same
// frames, timed per batch of frames rather than per call so the clock
// reads stay out of the numbers.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/bandwidth.hpp"
#include "analysis/sharded.hpp"
#include "core/export.hpp"
#include "exec/pool.hpp"
#include "iec104/parser.hpp"
#include "net/frame.hpp"
#include "net/mapping.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"
#include "util/arena.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncharted;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Keep in step with "per_layer" in BENCHMARK.json.
const std::vector<LayerMetric>& layer_catalogue() {
  static const std::vector<LayerMetric> catalogue = {
      {"net.cursor.ms", "ms"},
      {"net.cursor.frames", "count"},
      {"net.decode.ms", "ms"},
      {"net.decode.undecodable", "count"},
      {"net.flow.ms", "ms"},
      {"net.flow.flows", "count"},
      {"net.reassembly.ms", "ms"},
      {"net.reassembly.out_of_order", "count"},
      {"net.reassembly.gaps_skipped", "count"},
      {"net.reassembly.slab_bytes", "bytes"},
      {"iec104.parse.ms", "ms"},
      {"iec104.parse.apdus", "count"},
      {"iec104.parse.failures", "count"},
      {"iec104.parse.yield", "ratio"},
      {"analysis.builder.ms", "ms"},
      {"analysis.builder.other_ms", "ms"},
      {"analysis.builder.arena_bytes", "bytes"},
      {"analysis.route.ms", "ms"},
      {"analysis.fanout.ms", "ms"},
      {"analysis.lane.ms_max", "ms"},
      {"analysis.lane.skew", "ratio"},
      {"analysis.merge.ms", "ms"},
      {"exec.pool.utilization", "ratio"},
      {"analysis.bandwidth.ms", "ms"},
      {"analysis.flows.ms", "ms"},
      {"analysis.sessions.ms", "ms"},
      {"analysis.markov.ms", "ms"},
      {"analysis.classify.ms", "ms"},
      {"analysis.series.ms", "ms"},
      {"analysis.seq_audit.ms", "ms"},
      {"analysis.conformance.ms", "ms"},
      {"core.render.ms", "ms"},
      {"core.json.ms", "ms"},
      {"core.json.bytes", "bytes"},
      {"core.streaming.add_packet.ns", "ns"},
      {"core.streaming.report_snapshot.ms", "ms"},
      {"core.checkpoint.save_ms", "ms"},
      {"core.checkpoint.bytes", "bytes"},
      {"netd.server.frames_received", "count"},
      {"netd.server.frames_released", "count"},
      {"netd.server.paused_reads", "count"},
      {"netd.server.peak_queued_bytes", "bytes"},
      {"netd.server.forced_releases", "count"},
      {"netd.server.shed_connections", "count"},
      {"netd.server.queries_served", "count"},
      {"netd.merge.backlog_frames_p99", "count"},
      {"netd.reactor.cpu_share", "ratio"},
      {"netd.client.frames_sent", "count"},
      {"netd.client.reconnects", "count"},
      {"netd.client.busy_retries", "count"},
      {"bench.fleet.late_ms_p99", "ms"},
      {"bench.release.ms_p99", "ms"},
      {"bench.query.under_load_ms_p50", "ms"},
      {"bench.trace.overhead_ms", "ms"},
  };
  return catalogue;
}

/// Runs `fn` and adds its wall time to `acc_ms`.
template <typename Fn>
auto span(double& acc_ms, Fn&& fn) {
  auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc_ms += ms_between(start, Clock::now());
  } else {
    auto out = fn();
    acc_ms += ms_between(start, Clock::now());
    return out;
  }
}

bool on_port(const net::DecodedFrame& frame, std::uint16_t port) {
  return frame.tcp.src_port == port || frame.tcp.dst_port == port;
}

/// Standalone passes over the layers DatasetBuilder drives per packet, in
/// the builder's order and with the workload's parse mode: decode_frame,
/// FlowTable::add, then TcpReassembler::add feeding per-flow
/// ApduStreamParsers (reassembled mode) or a per-payload parser
/// (per-packet mode). Parse time spent inside the reassembler's sink is
/// the parser's, not the reassembler's (its self time excludes it).
void probe_ingest_layers(std::span<const net::FrameView> frames,
                         const analysis::CaptureDataset::Options& ds_opts, Layers& L) {
  constexpr std::size_t kBatch = 4096;
  const std::uint16_t port = ds_opts.iec104_port;
  std::vector<net::DecodedFrame> decoded(kBatch);
  std::vector<char> ok(kBatch);
  net::FlowTable flows;
  util::RecordArena arena;
  iec104::ApduStreamParser packet_parser(ds_opts.parser_mode);
  packet_parser.set_arena(arena.resource());
  std::map<net::FlowKey, iec104::ApduStreamParser> parsers;
  std::vector<iec104::ParsedApdu> apdus;
  std::vector<iec104::ParseFailure> failures;
  std::uint64_t n_apdus = 0, n_failures = 0, undecodable = 0;
  double decode_ms = 0, flow_ms = 0, reassembly_ms = 0, parse_ms = 0;
  std::size_t slab_peak = 0;

  auto account = [&] {
    n_apdus += apdus.size();
    n_failures += failures.size();
    apdus.clear();
    failures.clear();
  };
  auto parser_for = [&](const net::FlowKey& key) -> iec104::ApduStreamParser& {
    auto it = parsers.find(key);
    if (it == parsers.end()) {
      it = parsers.emplace(key, iec104::ApduStreamParser(ds_opts.parser_mode)).first;
      it->second.set_arena(arena.resource());
    }
    return it->second;
  };
  net::TcpReassembler reassembler(
      [&](const net::FlowKey& key, Timestamp ts, std::span<const std::uint8_t> data) {
        span(parse_ms, [&] {
          auto& parser = parser_for(key);
          parser.feed(ts, data);
          parser.drain(apdus, failures);
        });
        account();
      },
      ds_opts.reassembly_limits);
  const bool reassembled = ds_opts.mode == analysis::ParseMode::kReassembled;

  for (std::size_t base = 0; base < frames.size(); base += kBatch) {
    const std::size_t n = std::min(kBatch, frames.size() - base);
    span(decode_ms, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        ok[i] = net::decode_frame_into(frames[base + i].data, decoded[i]) ? 1 : 0;
      }
    });
    for (std::size_t i = 0; i < n; ++i) undecodable += ok[i] ? 0 : 1;
    span(flow_ms, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        if (ok[i]) flows.add(frames[base + i].ts, decoded[i]);
      }
    });
    if (reassembled) {
      const double nested_before = parse_ms;
      span(reassembly_ms, [&] {
        for (std::size_t i = 0; i < n; ++i) {
          if (ok[i] && on_port(decoded[i], port)) {
            reassembler.add(frames[base + i].ts, decoded[i]);
          }
        }
      });
      reassembly_ms -= parse_ms - nested_before;
      slab_peak = std::max(slab_peak, reassembler.pending_bytes());
    } else {
      span(parse_ms, [&] {
        for (std::size_t i = 0; i < n; ++i) {
          if (!ok[i] || !on_port(decoded[i], port) || decoded[i].payload.empty()) continue;
          const Timestamp ts = frames[base + i].ts;
          packet_parser.reset_stream();
          packet_parser.feed(ts, decoded[i].payload);
          packet_parser.finish(ts);
          packet_parser.drain(apdus, failures);
          account();
        }
      });
    }
  }
  if (reassembled && !frames.empty()) {
    const Timestamp last_ts = frames.back().ts;
    const double nested_before = parse_ms;
    span(reassembly_ms, [&] { reassembler.flush(last_ts); });
    reassembly_ms -= parse_ms - nested_before;
    span(parse_ms, [&] {
      for (auto& [key, parser] : parsers) {
        parser.finish(last_ts);
        parser.drain(apdus, failures);
      }
    });
    account();
    const auto totals = reassembler.totals();
    L["net.reassembly.ms"] = reassembly_ms;
    L["net.reassembly.out_of_order"] = static_cast<double>(totals.out_of_order);
    L["net.reassembly.gaps_skipped"] = static_cast<double>(totals.gaps_skipped);
    L["net.reassembly.slab_bytes"] = static_cast<double>(slab_peak);
  }
  L["net.decode.ms"] = decode_ms;
  L["net.decode.undecodable"] = static_cast<double>(undecodable);
  L["net.flow.ms"] = flow_ms;
  L["net.flow.flows"] = static_cast<double>(flows.connection_count());
  L["iec104.parse.ms"] = parse_ms;
  L["iec104.parse.apdus"] = static_cast<double>(n_apdus);
  L["iec104.parse.failures"] = static_cast<double>(n_failures);
  L["iec104.parse.yield"] =
      n_apdus + n_failures == 0
          ? 0.0
          : static_cast<double>(n_apdus) / static_cast<double>(n_apdus + n_failures);
}

/// The sharded engine, as build_dataset_sharded composes it: route every
/// frame with shard_of, run one DatasetBuilder per shard on the pool, then
/// merge_partials. Lane times are measured inside each lane task.
analysis::CaptureDataset build_sharded(std::span<const net::FrameView> frames,
                                       const analysis::CaptureDataset::Options& ds_opts,
                                       exec::Pool& pool, std::size_t shard_count,
                                       Layers& L) {
  std::vector<std::vector<std::size_t>> members(shard_count);
  double route_ms = 0, fanout_ms = 0, merge_ms = 0;
  span(route_ms, [&] {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      members[analysis::shard_of(frames[i].data, shard_count)].push_back(i);
    }
  });
  const Timestamp flush_ts = frames.empty() ? Timestamp{0} : frames.back().ts;
  std::vector<analysis::ShardPartial> partials(shard_count);
  std::vector<double> lane_ms(shard_count, 0.0), build_ms(shard_count, 0.0);
  std::vector<std::size_t> arena_bytes(shard_count, 0);
  span(fanout_ms, [&] {
    exec::TaskGroup group(&pool);
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (members[s].empty()) continue;
      group.run([&, s] {
        const auto start = Clock::now();
        analysis::DatasetBuilder builder(ds_opts);
        std::vector<net::FrameView> batch;
        batch.reserve(members[s].size());
        for (std::size_t idx : members[s]) batch.push_back(frames[idx]);
        builder.add_packets(batch);
        build_ms[s] = ms_between(start, Clock::now());
        arena_bytes[s] = builder.record_arena_bytes();
        partials[s] = builder.finish_partial(flush_ts);
        lane_ms[s] = ms_between(start, Clock::now());
      });
    }
    group.wait();
  });
  auto dataset = span(merge_ms, [&] { return analysis::merge_partials(std::move(partials), ds_opts); });

  double lane_sum = 0, lane_max = 0, build_sum = 0, arena_sum = 0;
  std::size_t lanes = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (members[s].empty()) continue;
    ++lanes;
    lane_sum += lane_ms[s];
    lane_max = std::max(lane_max, lane_ms[s]);
    build_sum += build_ms[s];
    arena_sum += static_cast<double>(arena_bytes[s]);
  }
  // The pool's workers plus the caller, which helps while it waits.
  const double busy_threads = static_cast<double>(pool.worker_count() + 1);
  L["analysis.builder.ms"] = build_sum;
  L["analysis.builder.arena_bytes"] = arena_sum;
  L["analysis.route.ms"] = route_ms;
  L["analysis.fanout.ms"] = fanout_ms;
  L["analysis.lane.ms_max"] = lane_max;
  L["analysis.lane.skew"] = lanes && lane_sum > 0 ? lane_max / (lane_sum / lanes) : 0.0;
  L["analysis.merge.ms"] = merge_ms;
  L["exec.pool.utilization"] = fanout_ms > 0 ? lane_sum / (busy_threads * fanout_ms) : 0.0;
  return dataset;
}

}  // namespace

void set_layer_metrics(RunResult& result, const Layers& layers) {
  for (const auto& m : layer_catalogue()) {
    auto it = layers.find(m.name);
    result.set(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
  }
}

TracedSample traced_batch_sample(const std::string& pcap_path, const WorkloadSpec& spec) {
  TracedSample out;
  Layers& L = out.layers;
  const auto options = analyzer_options(spec);
  analysis::CaptureDataset::Options ds_opts;
  ds_opts.mode = options.mode;
  ds_opts.parser_mode = options.parser_mode;
  const auto start = Clock::now();

  // net: map the file and cut frame views, as analyze_file does.
  double cursor_ms = 0;
  auto mapping = span(cursor_ms, [&] { return net::PcapMapping::open(pcap_path); });
  if (!mapping) throw std::runtime_error("traced open: " + mapping.error().str());
  std::vector<net::FrameView> frames;
  bool truncated = false;
  std::string truncated_warning;
  span(cursor_ms, [&] {
    auto cursor = net::PcapCursor::open(mapping->bytes());
    if (!cursor) throw std::runtime_error("traced cursor: " + cursor.error().str());
    net::FrameView view;
    while (cursor->next(view)) frames.push_back(view);
    truncated = cursor->truncated_tail();
    truncated_warning = cursor->warning();
  });
  L["net.cursor.ms"] = cursor_ms;
  L["net.cursor.frames"] = static_cast<double>(frames.size());

  // analysis: the single builder at one thread, the sharded engine above.
  std::unique_ptr<exec::Pool> pool;
  if (options.threads > 1) pool = std::make_unique<exec::Pool>(options.threads);
  analysis::CaptureDataset dataset;
  if (!pool) {
    analysis::DatasetBuilder builder(ds_opts);
    double builder_ms = 0, merge_ms = 0;
    span(builder_ms, [&] { builder.add_packets(frames); });
    L["analysis.builder.arena_bytes"] = static_cast<double>(builder.record_arena_bytes());
    dataset = span(merge_ms, [&] { return builder.finish(); });
    L["analysis.builder.ms"] = builder_ms;
    L["analysis.merge.ms"] = merge_ms;
  } else {
    dataset = build_sharded(frames, ds_opts, *pool, options.shard_count, L);
  }

  // The §6 analytics, in analyze_dataset's order.
  exec::Pool* p = pool.get();
  core::AnalysisReport report;
  double t_bandwidth = 0, t_flows = 0, t_sessions = 0, t_markov = 0, t_classify = 0,
         t_series = 0, t_seq = 0, t_conf = 0;
  auto bandwidth = span(t_bandwidth, [&] { return analysis::analyze_bandwidth(frames); });
  report.stats = dataset.stats();
  report.flows = span(t_flows, [&] { return analysis::analyze_flows(dataset.flow_table()); });
  report.compliance = dataset.compliance();
  report.clustering =
      span(t_sessions, [&] { return analysis::cluster_sessions(dataset, options.cluster_k, p); });
  report.chains = span(t_markov, [&] { return analysis::build_connection_chains(dataset, p); });
  span(t_classify, [&] {
    report.station_types = analysis::classify_stations(dataset);
    report.typeids = analysis::typeid_distribution(dataset);
    report.typeid_stations = analysis::typeid_station_counts(dataset);
  });
  span(t_series, [&] {
    auto series = analysis::extract_time_series(dataset);
    report.variance_ranking = analysis::rank_by_normalized_variance(series);
    if (options.keep_series) report.series = std::move(series);
  });
  report.bandwidth = std::move(bandwidth);
  report.sequence_audit = span(t_seq, [&] { return analysis::audit_sequences(dataset); });
  report.conformance = span(t_conf, [&] { return analysis::audit_conformance(dataset); });
  report.degradation.counters = report.stats.degradation;
  if (report.degradation.counters.any()) {
    report.degradation.warnings.push_back(
        "degraded capture: " + format_count(report.degradation.counters.total()) +
        " fault events survived (see degradation counters)");
  }
  if (truncated) {
    report.degradation.pcap_truncated = true;
    report.degradation.warnings.insert(report.degradation.warnings.begin(),
                                       truncated_warning);
  }
  L["analysis.bandwidth.ms"] = t_bandwidth;
  L["analysis.flows.ms"] = t_flows;
  L["analysis.sessions.ms"] = t_sessions;
  L["analysis.markov.ms"] = t_markov;
  L["analysis.classify.ms"] = t_classify;
  L["analysis.series.ms"] = t_series;
  L["analysis.seq_audit.ms"] = t_seq;
  L["analysis.conformance.ms"] = t_conf;

  // core: render and JSON.
  double render_ms = 0, json_ms = 0;
  out.text = span(render_ms, [&] { return core::render_report(report, core::NameMap{}); });
  out.json = span(json_ms, [&] { return core::report_to_json(report); });
  out.wall_ms = ms_between(start, Clock::now());
  L["core.render.ms"] = render_ms;
  L["core.json.ms"] = json_ms;
  L["core.json.bytes"] = static_cast<double>(out.json.size());

  // Release the dataset and pool before the standalone passes.
  dataset = analysis::CaptureDataset{};
  pool.reset();
  probe_ingest_layers(frames, ds_opts, L);
  L["analysis.builder.other_ms"] =
      L["analysis.builder.ms"] - (L["net.decode.ms"] + L["net.flow.ms"] +
                                  L["net.reassembly.ms"] + L["iec104.parse.ms"]);
  return out;
}

}  // namespace perfbench

// Live workloads: a LiveIngestDaemon on its own thread and reactor, a
// FleetClient on a second thread replaying the capture's fleet script
// open loop at a fixed pace, and (live_y1_query) report queries from the
// calling thread at a fixed rate.
//
// Release latency is measured from the outside: after every reactor turn
// the daemon thread reads frames_ingested(). The daemon releases frames in
// the merge order (capture_ts, stream_id, seq), so frame k of that order
// has been ingested once the count exceeds k; its latency runs from when
// the fleet was scheduled to send it.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/liveingest.hpp"
#include "netd/client.hpp"
#include "sim/fleet.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncharted;

namespace {

constexpr int kTurnMs = 20;            ///< max reactor wait per turn
constexpr double kGraceS = 30.0;       ///< replay time allowed beyond the schedule
constexpr int kFullStateQueries = 5;   ///< closed-loop queries after the replay, at least

/// Set-up: generate the capture and cut it into the fleet script.
sim::FleetScript build_live_input(const WorkloadSpec& spec) {
  auto capture = sim::generate_capture(spec.capture);
  sim::FleetScriptConfig config;
  config.seed = spec.fleet_seed;
  return sim::build_fleet_script(capture.packets, config);
}

struct MergeKey {
  Timestamp ts;
  std::uint64_t stream_id;
  std::uint64_t seq;
  std::size_t stream_idx;
};

/// The reference: the same frames fed in merge order to one
/// StreamingAnalyzer, with the streaming and checkpoint probes timed.
struct Reference {
  std::uint64_t json_digest = 0;
  Layers layers;
};

Reference compute_reference(const sim::FleetScript& script, const std::vector<MergeKey>& order,
                            const core::StreamingOptions& options, bool trace) {
  Reference ref;
  core::StreamingAnalyzer analyzer(options);
  const auto start = Clock::now();
  for (const auto& key : order) {
    analyzer.add_packet(script.streams[key.stream_idx].frames[key.seq]);
  }
  const double feed_ms = ms_between(start, Clock::now());
  ref.layers["core.streaming.add_packet.ns"] =
      order.empty() ? 0.0 : feed_ms * 1e6 / static_cast<double>(order.size());
  if (trace) {
    auto t = Clock::now();
    auto snapshot = analyzer.report_snapshot();
    ref.layers["core.streaming.report_snapshot.ms"] = ms_between(t, Clock::now());
    ByteWriter w;
    t = Clock::now();
    if (auto st = analyzer.save_state(w); !st) {
      throw std::runtime_error("save_state: " + st.error().str());
    }
    ref.layers["core.checkpoint.save_ms"] = ms_between(t, Clock::now());
    ref.layers["core.checkpoint.bytes"] = static_cast<double>(w.size());
  }
  ref.json_digest = digest(core::report_to_json(analyzer.finalize()));
  return ref;
}

/// When each frame of the merge order is due, in seconds after the
/// fleet's start, and the streams' count.
struct Schedule {
  std::vector<double> due_s;
  double replay_s = 0.0;
  std::size_t streams = 0;
};

/// What the replay observed: a fresh daemon and fleet over the script.
struct Replay {
  std::vector<double> release_ms;  ///< per frame, merge order
  std::vector<double> late_ms;     ///< per frame sent, against the schedule
  std::vector<double> query_ms;       ///< closed loop, at full state after the replay
  std::vector<double> load_query_ms;  ///< open loop during the replay (live_y1_query)
  std::vector<double> backlog;     ///< received - released, per daemon turn
  std::uint64_t queries_failed = 0;
  std::uint64_t ingested = 0;
  netd::ServerStats server;        ///< when the last frame was ingested (or at stop)
  netd::FleetStats fleet;
  bool fleet_all_done = false;
  bool self_terminated = false;
  double peak_rss_mb = 0.0;        ///< process high-water mark when the replay ends
  double cpu_s = 0.0;              ///< daemon-thread CPU up to the last ingest
  double active_s = 0.0;           ///< fleet start to the last ingest
  std::uint64_t json_digest = 0;
  double render_ms = 0.0, json_ms = 0.0, json_bytes = 0.0;
};

using Progress = std::vector<std::pair<std::uint64_t, Clock::time_point>>;

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

Clock::time_point from_ns(std::int64_t ns) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(ns)));
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Appends the latency of each frame k (schedule order) from when it was
/// due to the first observation whose count covers it.
void append_latencies(const Progress& progress, Clock::time_point t0,
                      const std::vector<double>& due_s, std::vector<double>& out) {
  std::uint64_t prev = 0;
  for (const auto& [count, when] : progress) {
    const double at_ms = ms_between(t0, when);
    for (std::uint64_t k = prev; k < count && k < due_s.size(); ++k) {
      out.push_back(at_ms - due_s[k] * 1000.0);
    }
    prev = std::max(prev, count);
  }
}

/// Replays the streams, then queries the full-state daemon closed loop
/// until `run_s` after the fleet's start (kFullStateQueries at least).
Replay replay_once(const WorkloadSpec& spec, std::vector<netd::ReplayStream> streams,
                   const Schedule& schedule, const core::StreamingOptions& streaming,
                   double run_s) {
  Replay out;
  const std::uint64_t total = schedule.due_s.size();
  std::atomic<bool> stop_daemon{false}, stop_fleet{false}, fleet_done{false};
  std::atomic<std::uint64_t> ingested{0};
  std::atomic<std::int64_t> t0_ns{0};
  std::promise<std::uint16_t> port_promise;
  auto port_future = port_promise.get_future();
  Progress daemon_progress, fleet_progress;
  Clock::time_point all_in{};

  std::thread daemon_thread([&] {
    bool port_sent = false;
    try {
      netd::Reactor reactor;
      core::LiveIngestOptions options;
      options.streaming = streaming;
      options.checkpoint_every_s = 0.0;  // no checkpoint path: no fsync
      options.server.expect_streams = schedule.streams;
      core::LiveIngestDaemon daemon(reactor, options);
      if (auto st = daemon.start(false); !st) {
        throw std::runtime_error("daemon start: " + st.error().str());
      }
      port_promise.set_value(daemon.server().port());
      port_sent = true;
      const double cpu_start = thread_cpu_s();
      bool all_ingested = false;
      std::uint64_t last = 0;
      while (!stop_daemon.load()) {
        reactor.run_once(kTurnMs);
        const std::uint64_t n = daemon.frames_ingested();
        const auto now = Clock::now();
        const auto& stats = daemon.server().stats();
        out.backlog.push_back(static_cast<double>(stats.frames_received - stats.frames_released));
        if (n != last) {
          daemon_progress.emplace_back(n, now);
          last = n;
          ingested.store(n);
        }
        if (!all_ingested && n >= total) {
          all_ingested = true;
          all_in = now;
          out.cpu_s = thread_cpu_s() - cpu_start;
          out.server = stats;
        }
        if (daemon.terminate_requested()) {
          out.self_terminated = true;
          break;
        }
      }
      if (!all_ingested) {
        all_in = Clock::now();
        out.cpu_s = thread_cpu_s() - cpu_start;
        out.server = daemon.server().stats();
      }
      auto report = daemon.finalize();
      auto t = Clock::now();
      const std::string text = core::render_report(report, core::NameMap{});
      out.render_ms = ms_between(t, Clock::now());
      t = Clock::now();
      const std::string json = core::report_to_json(report);
      out.json_ms = ms_between(t, Clock::now());
      out.json_bytes = static_cast<double>(json.size());
      out.json_digest = digest(json);
    } catch (...) {
      if (!port_sent) {
        port_promise.set_exception(std::current_exception());
      } else {
        std::fprintf(stderr, "perfbench: daemon thread failed\n");
      }
    }
  });
  // Stops and joins the threads on every exit path, exceptions included.
  struct Join {
    std::thread& thread;
    std::atomic<bool>& stop;
    ~Join() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } join_daemon{daemon_thread, stop_daemon};

  const std::uint16_t port = port_future.get();
  std::thread fleet_thread([&] {
    netd::Reactor reactor;
    netd::FleetConfig config;
    config.port = port;
    config.pace = spec.pace;
    config.seed = spec.fleet_seed;
    netd::FleetClient client(reactor, config, std::move(streams));
    t0_ns.store(to_ns(Clock::now()));
    client.start();
    std::uint64_t last = 0;
    while (!client.all_done() && !stop_fleet.load()) {
      reactor.run_once(kTurnMs);
      const std::uint64_t sent = client.stats().frames_sent;
      if (sent != last) {
        fleet_progress.emplace_back(sent, Clock::now());
        last = sent;
      }
    }
    out.fleet = client.stats();
    out.fleet_all_done = client.all_done();
    fleet_done.store(true);
  });
  Join join_fleet{fleet_thread, stop_fleet};

  while (t0_ns.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const Clock::time_point t0 = from_ns(t0_ns.load());
  const auto deadline = after(t0, schedule.replay_s + kGraceS);

  auto query = [&](Clock::time_point due, std::vector<double>& latencies) {
    auto reply = netd::fetch_report("127.0.0.1", port, 10.0);
    const auto done = Clock::now();
    if (!reply || reply->empty()) {
      ++out.queries_failed;
      std::fprintf(stderr, "perfbench: query failed: %s\n",
                   reply ? "empty reply" : reply.error().str().c_str());
    } else {
      latencies.push_back(ms_between(due, done));
    }
  };
  if (spec.query_hz > 0.0) {
    // Open loop over the replay's schedule: query j is due at t0 + j / rate
    // however late the daemon runs (one mid-replay query if none fits).
    std::vector<double> due;
    for (double at = 1.0 / spec.query_hz; at <= schedule.replay_s; at += 1.0 / spec.query_hz) {
      due.push_back(at);
    }
    if (due.empty()) due.push_back(schedule.replay_s / 2.0);
    for (double at : due) {
      std::this_thread::sleep_until(after(t0, at));
      if (Clock::now() > deadline) break;
      query(after(t0, at), out.load_query_ms);
    }
  }
  while ((!fleet_done.load() || ingested.load() < total) && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The replay's memory peak, before the full-state queries' report twins.
  out.peak_rss_mb = peak_rss_mb();
  const auto queries_until = after(t0, run_s);
  for (int i = 0; i < kFullStateQueries || Clock::now() < queries_until; ++i) {
    query(Clock::now(), out.query_ms);
  }
  stop_fleet.store(true);
  fleet_thread.join();
  stop_daemon.store(true);
  daemon_thread.join();

  out.ingested = daemon_progress.empty() ? 0 : daemon_progress.back().first;
  out.active_s = std::max(1e-9, ms_between(t0, all_in) / 1000.0);
  append_latencies(daemon_progress, t0, schedule.due_s, out.release_ms);
  append_latencies(fleet_progress, t0, schedule.due_s, out.late_ms);
  return out;
}

}  // namespace

RunResult run_live(const WorkloadSpec& spec, const Args& args) {
  RunResult result;
  std::vector<double> setup_s;
  sim::FleetScript script;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto start = Clock::now();
    script = build_live_input(spec);
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }

  Schedule schedule;
  schedule.streams = script.streams.size();
  std::vector<MergeKey> order;
  order.reserve(script.total_frames);
  Timestamp epoch = 0;
  bool have_epoch = false;
  for (std::size_t s = 0; s < schedule.streams; ++s) {
    const auto& stream = script.streams[s];
    if (!stream.frames.empty() && (!have_epoch || stream.frames.front().ts < epoch)) {
      epoch = stream.frames.front().ts;
      have_epoch = true;
    }
    for (std::size_t i = 0; i < stream.frames.size(); ++i) {
      order.push_back(MergeKey{stream.frames[i].ts, stream.id, i, s});
    }
  }
  std::sort(order.begin(), order.end(), [](const MergeKey& a, const MergeKey& b) {
    return std::tie(a.ts, a.stream_id, a.seq) < std::tie(b.ts, b.stream_id, b.seq);
  });
  const std::uint64_t total = order.size();
  schedule.due_s.resize(total);
  for (std::size_t k = 0; k < total; ++k) {
    schedule.due_s[k] = static_cast<double>(order[k].ts - epoch) /
                        static_cast<double>(kMicrosPerSecond) / spec.pace;
  }
  schedule.replay_s = total ? schedule.due_s.back() : 0.0;
  std::printf("setup: %zu streams, %llu frames, replay %.2f s at pace %g\n", schedule.streams,
              static_cast<unsigned long long>(total), schedule.replay_s, spec.pace);

  core::StreamingOptions streaming;
  streaming.analyze = analyzer_options(spec);
  const Reference reference = compute_reference(script, order, streaming, args.trace);
  order = {};
  // The script stays resident for the fleet, so it is part of the baseline.
  const double rss_baseline_mb = reset_peak_rss();

  // Correctness: every frame released, every stream finished, every query
  // answered, and the final report equal to the merge-order reference.
  const Replay rep = replay_once(spec, std::move(script.streams), schedule, streaming, args.seconds);
  result.attempted += total + schedule.streams + rep.query_ms.size() +
                      rep.load_query_ms.size() + rep.queries_failed + 1;
  if (rep.ingested < total) {
    result.fail(total - rep.ingested, "frames never released (" + std::to_string(rep.ingested) +
                                          " of " + std::to_string(total) + " ingested)");
  }
  const std::uint64_t finished = std::min<std::uint64_t>(
      rep.fleet.finished_streams - std::min(rep.fleet.failed_streams, rep.fleet.finished_streams),
      schedule.streams);
  if (!rep.fleet_all_done || rep.fleet.failed_streams > 0 || finished < schedule.streams) {
    result.fail(std::max<std::uint64_t>(1, schedule.streams - finished),
                "streams failed or unfinished");
  }
  result.fail(rep.queries_failed, "queries failed");
  if (rep.self_terminated) std::fprintf(stderr, "perfbench: daemon self-terminated\n");
  if (rep.json_digest != reference.json_digest) {
    result.fail(1, "final report digest " + hex(rep.json_digest) +
                       " != merge-order reference " + hex(reference.json_digest));
  }
  std::printf("replay: %llu/%llu frames ingested in %.3f s; queries ms during:",
              static_cast<unsigned long long>(rep.ingested),
              static_cast<unsigned long long>(total), rep.active_s);
  for (double ms : rep.load_query_ms) std::printf(" %.1f", ms);
  std::printf(", after:");
  for (double ms : rep.query_ms) std::printf(" %.1f", ms);
  std::printf("\nreference digest %s\n", hex(reference.json_digest).c_str());

  if (args.trace) {
    Layers L = reference.layers;
    const auto& s = rep.server;
    L["core.render.ms"] = rep.render_ms;
    L["core.json.ms"] = rep.json_ms;
    L["core.json.bytes"] = rep.json_bytes;
    L["netd.server.frames_received"] = static_cast<double>(s.frames_received);
    L["netd.server.frames_released"] = static_cast<double>(s.frames_released);
    L["netd.server.paused_reads"] = static_cast<double>(s.paused_reads);
    L["netd.server.peak_queued_bytes"] = static_cast<double>(s.peak_queued_bytes);
    L["netd.server.forced_releases"] = static_cast<double>(s.forced_releases);
    L["netd.server.shed_connections"] = static_cast<double>(s.shed_connections);
    L["netd.server.queries_served"] = static_cast<double>(s.queries_served);
    L["netd.merge.backlog_frames_p99"] = percentile(rep.backlog, 99.0);
    L["netd.reactor.cpu_share"] = rep.cpu_s / rep.active_s;
    L["netd.client.frames_sent"] = static_cast<double>(rep.fleet.frames_sent);
    L["netd.client.reconnects"] = static_cast<double>(rep.fleet.reconnects);
    L["netd.client.busy_retries"] = static_cast<double>(rep.fleet.busy_retries);
    L["bench.fleet.late_ms_p99"] = percentile(rep.late_ms, 99.0);
    L["bench.release.ms_p99"] = percentile(rep.release_ms, 99.0);
    L["bench.query.under_load_ms_p50"] = median(rep.load_query_ms);
    set_layer_metrics(result, L);
    return result;
  }

  const double release_p50 = percentile(rep.release_ms, 50.0);
  const double frames_per_s = static_cast<double>(rep.ingested) / rep.active_s;
  result.set("setup_s", median(setup_s), "s");
  result.set("latency_ms_p50", release_p50, "ms");
  result.set("query_ms_p50", median(rep.query_ms), "ms");
  result.set("items_per_s", frames_per_s, "1/s");
  result.set("cpu_s_per_mpkt",
             rep.ingested ? rep.cpu_s / (static_cast<double>(rep.ingested) / 1e6) : 0.0, "s/Mpkt");
  result.set("peak_rss_mb", rep.peak_rss_mb - rss_baseline_mb, "MB");
  std::printf("release_ms_p50 %.3f ms, p90 %.3f ms, release_ms_p99 %.3f ms, max %.3f ms over "
              "%zu frames; query_ms_p50 %.3f ms over %zu queries at full state, %.3f ms over "
              "%zu during the replay; live_frames_per_s %.1f; peak rss %.1f MB above a %.1f MB "
              "baseline; fleet late p99 %.3f ms; error_rate %.6f\n",
              release_p50, percentile(rep.release_ms, 90.0), percentile(rep.release_ms, 99.0),
              percentile(rep.release_ms, 100.0), rep.release_ms.size(), median(rep.query_ms),
              rep.query_ms.size(), median(rep.load_query_ms), rep.load_query_ms.size(), frames_per_s,
              rep.peak_rss_mb - rss_baseline_mb, rss_baseline_mb, percentile(rep.late_ms, 99.0),
              static_cast<double>(result.failed) / static_cast<double>(result.attempted));
  return result;
}

}  // namespace perfbench

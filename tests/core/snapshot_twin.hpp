// Reference checks for StreamingAnalyzer::report_snapshot(). The reference
// is the serialize → reload → finalize twin: save_state() into a buffer,
// load_state() into a fresh analyzer, finalize() that one. It is rebuilt
// here from the public API only, so the snapshot is never checked against
// itself.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/streaming.hpp"

namespace uncharted::core::snapshot_twin {

inline std::vector<std::uint8_t> saved_state(StreamingAnalyzer& analyzer) {
  ByteWriter w;
  EXPECT_TRUE(analyzer.save_state(w).ok());
  return {w.view().begin(), w.view().end()};
}

inline std::string twin_report_json(StreamingAnalyzer& live,
                                     StreamingOptions options) {
  auto bytes = saved_state(live);
  options.checkpoint_path.clear();
  options.stall_hook = nullptr;
  StreamingAnalyzer twin(options);
  ByteReader r(bytes);
  EXPECT_TRUE(twin.load_state(r).ok());
  return report_to_json(twin.finalize());
}

/// Small enough to evict records and flows (and retire parsers) on a
/// two-minute Y1 capture at every shard count.
inline analysis::ResourceBudgets evicting_budgets() {
  analysis::ResourceBudgets budgets;
  budgets.max_flow_entries = 24;
  budgets.max_reassembly_bytes = 2048;
  budgets.max_records = 3000;
  budgets.max_parsers = 16;
  return budgets;
}

/// Feeds `packets` and, at a quarter, half and three quarters of the way,
/// requires report_snapshot() to be byte-equal to the twin's report. With
/// `stall`, one shard is wedged from 40% to 60% of the stream, so the
/// half-way snapshot is taken with packets parked. At the end, the
/// snapshot must equal finalize() itself.
inline void expect_snapshots_match_twin(const std::vector<net::CapturedPacket>& packets,
                                        StreamingOptions options, bool stall) {
  constexpr std::size_t kNoVictim = ~std::size_t{0};
  bool wedged = false;
  std::size_t victim = kNoVictim;
  if (stall) {
    options.stall_hook = [&](std::size_t shard) {
      if (!wedged) return false;
      if (victim == kNoVictim) victim = shard;
      return shard == victim;
    };
  }
  StreamingAnalyzer live(options);
  const std::size_t n = packets.size();
  std::size_t fed = 0;
  auto feed_to = [&](std::size_t end) {
    for (; fed < end; ++fed) {
      if (stall && fed == n * 2 / 5) wedged = true;
      if (stall && fed == n * 3 / 5) {
        wedged = false;
        live.poll_deferred();
      }
      live.add_packet(packets[fed]);
    }
  };
  for (std::size_t cut : {n / 4, n / 2, n * 3 / 4}) {
    feed_to(cut);
    if (stall && cut == n / 2) {
      EXPECT_FALSE(live.quiescent()) << "the half-way cut must see parked packets";
    }
    EXPECT_EQ(report_to_json(live.report_snapshot()), twin_report_json(live, options))
        << "snapshot differs from the twin at packet " << cut;
  }
  feed_to(n);
  EXPECT_TRUE(live.quiescent());
  if (options.budgets.max_records > 0) {
    auto pressure = live.pressure();
    EXPECT_GT(pressure.records_evicted, 0u);
    EXPECT_GT(pressure.flow_evictions, 0u);
  }
  auto last = report_to_json(live.report_snapshot());
  EXPECT_EQ(last, report_to_json(live.finalize()));
}

/// Five snapshots interleaved into the stream must change nothing: the
/// checkpoint bytes and the final report equal a run with no queries.
inline void expect_snapshots_leave_state_untouched(
    const std::vector<net::CapturedPacket>& packets, const StreamingOptions& options) {
  StreamingAnalyzer queried(options);
  StreamingAnalyzer quiet(options);
  const std::size_t step = packets.size() / 6;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i > 0 && i % step == 0 && i / step <= 5) (void)queried.report_snapshot();
    queried.add_packet(packets[i]);
    quiet.add_packet(packets[i]);
  }
  EXPECT_EQ(saved_state(queried), saved_state(quiet));
  EXPECT_EQ(report_to_json(queried.finalize()), report_to_json(quiet.finalize()));
}

}  // namespace uncharted::core::snapshot_twin

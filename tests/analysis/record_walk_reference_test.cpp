// The dataset index and the §6 analytics against their record-walk
// reference (record_walk_reference.hpp), field by field: generated Y1 and
// faulted Y2 captures at one and eight threads, under evicting budgets,
// through the live snapshot, and a hand-built capture that takes both
// branches of the canonical sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "analysis/sharded.hpp"
#include "exec/pool.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"
#include "tests/analysis/record_walk_reference.hpp"
#include "tests/analysis/testlib.hpp"

namespace uncharted::analysis {
namespace {

const std::vector<net::CapturedPacket>& y1_packets() {
  static const auto capture = sim::generate_capture(sim::CaptureConfig::y1(90.0));
  return capture.packets;
}

const std::vector<net::CapturedPacket>& y2_faulty_packets() {
  static const auto faulted = faultinject::apply_faults(
      sim::generate_capture(sim::CaptureConfig::y2(60.0)).packets,
      faultinject::FaultConfig::uniform(0.05));
  return faulted.packets;
}

CaptureDataset::Options options_for(ParseMode mode) {
  CaptureDataset::Options options;
  options.mode = mode;
  return options;
}

/// Small enough that records, flows and parsers are all evicted.
ResourceBudgets evicting_budgets() {
  ResourceBudgets budgets;
  budgets.max_flow_entries = 24;
  budgets.max_reassembly_bytes = 2048;
  budgets.max_records = 3000;
  budgets.max_parsers = 16;
  return budgets;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_records(const std::vector<ApduRecord>& got,
                         const std::vector<ApduRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ts, want[i].ts) << "record " << i;
    ASSERT_EQ(got[i].flow, want[i].flow) << "record " << i;
    ASSERT_EQ(got[i].seq, want[i].seq) << "record " << i;
  }
}

void expect_same_index(const CaptureDataset& ds, const reference::DatasetIndex& want) {
  expect_same_records(ds.records(), want.records);
  EXPECT_EQ(ds.sessions(), want.sessions);
  EXPECT_EQ(ds.connections(), want.connections);
  ASSERT_EQ(ds.compliance().size(), want.compliance.size());
  for (auto a = ds.compliance().begin(), b = want.compliance.begin();
       a != ds.compliance().end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
    EXPECT_EQ(a->second.i_apdus, b->second.i_apdus);
    EXPECT_EQ(a->second.non_compliant, b->second.non_compliant);
    EXPECT_EQ(a->second.profile, b->second.profile);
  }
  const auto& got = ds.columns();
  EXPECT_EQ(got.ts, want.columns.ts);
  EXPECT_EQ(got.flow_index, want.columns.flow_index);
  EXPECT_EQ(got.seq, want.columns.seq);
  EXPECT_EQ(got.type_id, want.columns.type_id);
  EXPECT_EQ(got.wire_size, want.columns.wire_size);
  ASSERT_EQ(got.token.size(), want.tokens.size());
  for (std::size_t i = 0; i < got.token.size(); ++i) {
    ASSERT_EQ(iec104::token_name(got.token[i]), want.tokens[i]) << "record " << i;
    ASSERT_EQ(iec104::token_format(got.token[i]), want.records[i].apdu.apdu.format)
        << "record " << i;
  }
  EXPECT_EQ(ds.flow_keys(), want.flow_keys);
}

void expect_same_seq_audit(const SeqAuditReport& got, const SeqAuditReport& want) {
  EXPECT_EQ(got.total_gaps, want.total_gaps);
  EXPECT_EQ(got.total_duplicates, want.total_duplicates);
  EXPECT_EQ(got.total_ack_violations, want.total_ack_violations);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    const auto& a = got.entries[i];
    const auto& b = want.entries[i];
    EXPECT_EQ(a.direction, b.direction) << "entry " << i;
    EXPECT_EQ(a.i_apdus, b.i_apdus) << "entry " << i;
    EXPECT_EQ(a.gaps, b.gaps) << "entry " << i;
    EXPECT_EQ(a.duplicates, b.duplicates) << "entry " << i;
    EXPECT_EQ(a.resets, b.resets) << "entry " << i;
    EXPECT_EQ(a.ack_violations, b.ack_violations) << "entry " << i;
  }
}

void expect_same_profile(const iec104::ConformanceProfile& a,
                         const iec104::ConformanceProfile& b) {
  EXPECT_EQ(a.apdus, b.apdus);
  EXPECT_EQ(a.i_apdus, b.i_apdus);
  EXPECT_EQ(bits(a.warn_score), bits(b.warn_score));
  EXPECT_EQ(a.hostile_events, b.hostile_events);
  EXPECT_EQ(a.legacy_events, b.legacy_events);
  EXPECT_EQ(bits(a.timers.max_idle_s), bits(b.timers.max_idle_s));
  EXPECT_EQ(bits(a.timers.max_ack_delay_s), bits(b.timers.max_ack_delay_s));
  EXPECT_EQ(bits(a.timers.max_testfr_rtt_s), bits(b.timers.max_testfr_rtt_s));
  EXPECT_EQ(bits(a.timers.max_startdt_rtt_s), bits(b.timers.max_startdt_rtt_s));
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    const auto& va = a.violations[i];
    const auto& vb = b.violations[i];
    EXPECT_EQ(va.code, vb.code) << "violation " << i;
    EXPECT_EQ(va.severity, vb.severity) << "violation " << i;
    EXPECT_EQ(va.count, vb.count) << "violation " << i;
    EXPECT_EQ(va.first_ts, vb.first_ts) << "violation " << i;
    EXPECT_EQ(va.last_ts, vb.last_ts) << "violation " << i;
    EXPECT_EQ(va.detail, vb.detail) << "violation " << i;
  }
}

void expect_same_conformance(const ConformanceReport& got, const ConformanceReport& want) {
  EXPECT_EQ(got.clean_connections, want.clean_connections);
  EXPECT_EQ(got.legacy_connections, want.legacy_connections);
  EXPECT_EQ(got.suspect_connections, want.suspect_connections);
  EXPECT_EQ(got.hostile_connections, want.hostile_connections);
  EXPECT_EQ(got.hostile_events, want.hostile_events);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    SCOPED_TRACE("conformance entry " + std::to_string(i));
    EXPECT_EQ(got.entries[i].pair, want.entries[i].pair);
    EXPECT_EQ(got.entries[i].verdict, want.entries[i].verdict);
    EXPECT_EQ(got.entries[i].flows, want.entries[i].flows);
    expect_same_profile(got.entries[i].profile, want.entries[i].profile);
  }
}

void expect_same_chains(const std::vector<ConnectionChain>& got,
                        const std::vector<ConnectionChain>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("chain " + std::to_string(i));
    EXPECT_EQ(got[i].pair, want[i].pair);
    EXPECT_EQ(got[i].tokens, want[i].tokens);
    EXPECT_EQ(got[i].nodes, want[i].nodes);
    EXPECT_EQ(got[i].edges, want[i].edges);
    EXPECT_EQ(got[i].has_i100, want[i].has_i100);
    EXPECT_EQ(got[i].cluster, want[i].cluster);
    EXPECT_EQ(got[i].chain.counts(), want[i].chain.counts());
    EXPECT_EQ(got[i].chain.str(), want[i].chain.str());
  }
}

void expect_same_sessions(const std::vector<SessionFeatures>& got,
                          const std::vector<SessionFeatures>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << "session " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << "session " << i;
    ASSERT_EQ(got[i].values.size(), want[i].values.size());
    for (std::size_t f = 0; f < got[i].values.size(); ++f) {
      EXPECT_EQ(bits(got[i].values[f]), bits(want[i].values[f]))
          << "session " << i << " feature " << feature_name(f);
    }
  }
}

void expect_same_series(const std::map<SeriesKey, TimeSeries>& got,
                        const std::map<SeriesKey, TimeSeries>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (auto a = got.begin(), b = want.begin(); a != got.end(); ++a, ++b) {
    ASSERT_EQ(a->first, b->first);
    EXPECT_EQ(a->second.type_id, b->second.type_id) << a->first.str();
    ASSERT_EQ(a->second.points.size(), b->second.points.size()) << a->first.str();
    for (std::size_t i = 0; i < a->second.points.size(); ++i) {
      EXPECT_EQ(a->second.points[i].ts, b->second.points[i].ts) << a->first.str();
      EXPECT_EQ(bits(a->second.points[i].value), bits(b->second.points[i].value))
          << a->first.str();
    }
  }
  auto got_rank = rank_by_normalized_variance(got);
  auto want_rank = rank_by_normalized_variance(want);
  ASSERT_EQ(got_rank.size(), want_rank.size());
  for (std::size_t i = 0; i < got_rank.size(); ++i) {
    EXPECT_EQ(got_rank[i].key, want_rank[i].key) << "rank " << i;
    EXPECT_EQ(got_rank[i].type_id, want_rank[i].type_id) << "rank " << i;
    EXPECT_EQ(bits(got_rank[i].normalized_variance),
              bits(want_rank[i].normalized_variance))
        << "rank " << i;
    EXPECT_EQ(got_rank[i].samples, want_rank[i].samples) << "rank " << i;
  }
}

void expect_same_stations(const std::vector<StationClassification>& got,
                          const std::vector<StationClassification>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("station " + got[i].station.str());
    EXPECT_EQ(got[i].station, want[i].station);
    EXPECT_EQ(got[i].type, want[i].type);
    ASSERT_EQ(got[i].connections.size(), want[i].connections.size());
    for (std::size_t c = 0; c < got[i].connections.size(); ++c) {
      const auto& a = got[i].connections[c];
      const auto& b = want[i].connections[c];
      EXPECT_EQ(a.server, b.server);
      EXPECT_EQ(a.i_from_station, b.i_from_station);
      EXPECT_EQ(a.i_from_server, b.i_from_server);
      EXPECT_EQ(a.u16, b.u16);
      EXPECT_EQ(a.u32, b.u32);
      EXPECT_EQ(a.startdt, b.startdt);
      EXPECT_EQ(a.has_i100, b.has_i100);
      EXPECT_EQ(a.u_before_i, b.u_before_i);
    }
  }
}

/// Every analytic of `ds` against its reference. `pool` runs the analytics
/// that take one; the reference is always sequential.
void expect_same_analytics(const CaptureDataset& ds, exec::Pool* pool) {
  expect_same_seq_audit(audit_sequences(ds), reference::audit_sequences(ds));
  expect_same_conformance(audit_conformance(ds), reference::audit_conformance(ds));
  expect_same_chains(build_connection_chains(ds, pool),
                     reference::build_connection_chains(ds));
  expect_same_sessions(extract_session_features(ds),
                       reference::extract_session_features(ds));
  expect_same_series(extract_time_series(ds), reference::extract_time_series(ds));
  expect_same_stations(classify_stations(ds), reference::classify_stations(ds));
  auto dist = typeid_distribution(ds);
  auto want_dist = reference::typeid_distribution(ds);
  EXPECT_EQ(dist.counts, want_dist.counts);
  EXPECT_EQ(dist.total, want_dist.total);
  EXPECT_EQ(typeid_station_counts(ds).stations,
            reference::typeid_station_counts(ds).stations);
}

/// The index is checked by re-indexing the dataset's own records from the
/// reverse order: the reference must sort them back into the same place.
void expect_matches_reference(const CaptureDataset& ds, exec::Pool* pool) {
  ASSERT_FALSE(ds.records().empty());
  {
    SCOPED_TRACE("index");
    std::vector<ApduRecord> reversed(ds.records().rbegin(), ds.records().rend());
    expect_same_index(ds, reference::index_records(std::move(reversed)));
  }
  SCOPED_TRACE("analytics");
  expect_same_analytics(ds, pool);
}

CaptureDataset build_at(const std::vector<net::CapturedPacket>& packets, ParseMode mode,
                        exec::Pool* pool, const ResourceBudgets& budgets = {}) {
  if (pool == nullptr) {
    DatasetBuilder builder(options_for(mode), budgets);
    for (const auto& pkt : packets) builder.add_packet(pkt);
    return builder.finish();
  }
  return build_dataset_sharded(packets, options_for(mode), pool, kDefaultShardCount,
                               budgets);
}

TEST(RecordWalkReference, Y1PerPacketThreads1) {
  expect_matches_reference(build_at(y1_packets(), ParseMode::kPerPacket, nullptr),
                           nullptr);
}

TEST(RecordWalkReference, Y1PerPacketThreads8) {
  exec::Pool pool(8);
  expect_matches_reference(build_at(y1_packets(), ParseMode::kPerPacket, &pool), &pool);
}

TEST(RecordWalkReference, Y2FaultyReassembledThreads1) {
  expect_matches_reference(build_at(y2_faulty_packets(), ParseMode::kReassembled, nullptr),
                           nullptr);
}

TEST(RecordWalkReference, Y2FaultyReassembledThreads8) {
  exec::Pool pool(8);
  expect_matches_reference(build_at(y2_faulty_packets(), ParseMode::kReassembled, &pool),
                           &pool);
}

TEST(RecordWalkReference, EvictingBudgets) {
  exec::Pool pool(8);
  for (auto mode : {ParseMode::kPerPacket, ParseMode::kReassembled}) {
    SCOPED_TRACE(mode == ParseMode::kPerPacket ? "per-packet" : "reassembled");
    expect_matches_reference(
        build_at(y2_faulty_packets(), mode, nullptr, evicting_budgets()), nullptr);
    expect_matches_reference(
        build_at(y2_faulty_packets(), mode, &pool, evicting_budgets()), &pool);
  }
}

TEST(RecordWalkReference, LiveSnapshot) {
  // The live query path: snapshot() of a builder mid-capture, with and
  // without budget eviction.
  for (const auto& budgets : {ResourceBudgets{}, evicting_budgets()}) {
    DatasetBuilder builder(options_for(ParseMode::kPerPacket), budgets);
    const auto& packets = y1_packets();
    for (std::size_t i = 0; i < packets.size() / 2; ++i) builder.add_packet(packets[i]);
    expect_matches_reference(builder.snapshot(), nullptr);
  }
}

/// Three stations per tick, all stamped with the same timestamp and
/// appended in descending flow order, so each tick is an equal-ts run the
/// canonical order must rearrange. One station speaks a legacy profile; a
/// fourth sends only garbage, so its flow is quarantined and known to the
/// conformance audit through damage() alone.
void append_ticks(testlib::CaptureBuilder& cb, Timestamp from, int ticks,
                  std::uint16_t& ns) {
  using testlib::ip;
  const auto server = ip(10, 0, 0, 1);
  const std::vector<std::uint8_t> garbage = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  for (int t = 0; t < ticks; ++t) {
    Timestamp ts = from + static_cast<Timestamp>(t) * 1'000'000;
    cb.segment(ts, server, ip(10, 1, 0, 4), true, garbage);
    for (int s = 3; s >= 1; --s) {
      auto station = ip(10, 1, 0, static_cast<std::uint8_t>(s));
      auto profile = s == 2 ? iec104::CodecProfile::legacy_cot()
                            : iec104::CodecProfile::standard();
      cb.apdu(ts, server, station, true,
              testlib::i_apdu(testlib::float_asdu(static_cast<std::uint16_t>(s),
                                                  100 + static_cast<std::uint32_t>(t % 3),
                                                  static_cast<float>(t)),
                              ns, 0),
              profile);
      cb.apdu(ts, server, station, false, iec104::Apdu::make_s(ns));
      if (t % 4 == 0) {
        cb.apdu(ts, server, station, false,
                iec104::Apdu::make_u(iec104::UFunction::kTestFrAct));
      }
    }
    ++ns;
  }
}

bool ts_nondecreasing(const std::vector<ApduRecord>& records) {
  return std::is_sorted(records.begin(), records.end(),
                        [](const ApduRecord& a, const ApduRecord& b) { return a.ts < b.ts; });
}

TEST(RecordWalkReference, EqualTimestampRunsAndRegression) {
  testlib::CaptureBuilder cb;
  std::uint16_t ns = 0;
  append_ticks(cb, 10'000'000, 12, ns);
  const std::size_t monotone_prefix = cb.packets().size();
  append_ticks(cb, 5'000'000, 3, ns);  // capture clock steps backwards
  append_ticks(cb, 40'000'000, 6, ns);

  const auto options = options_for(ParseMode::kPerPacket);
  // Merges one builder's records in append order, against the reference
  // indexing the same appended records.
  auto merge_against_reference = [&](DatasetBuilder& builder, bool monotone) {
    auto part = builder.finish_partial(builder.last_ts());
    std::vector<ApduRecord> appended = part.records;
    ASSERT_EQ(ts_nondecreasing(appended), monotone);
    std::vector<ShardPartial> one;
    one.push_back(std::move(part));
    auto ds = merge_partials(std::move(one), options);
    ASSERT_EQ(ds.quarantined_flows().size(), 1u);
    // Equal-ts runs out of flow order: the canonical order is not the
    // append order.
    ASSERT_NE(ds.flow_keys().front(), appended.front().flow);
    expect_same_index(ds, reference::index_records(std::move(appended)));
    expect_matches_reference(ds, nullptr);
  };

  DatasetBuilder live(options);
  DatasetBuilder prefix(options);
  for (std::size_t i = 0; i < monotone_prefix; ++i) {
    live.add_packet(cb.packets()[i]);
    prefix.add_packet(cb.packets()[i]);
  }
  {
    SCOPED_TRACE("nondecreasing timestamps");
    expect_matches_reference(live.snapshot(), nullptr);
    merge_against_reference(prefix, true);
  }
  for (std::size_t i = monotone_prefix; i < cb.packets().size(); ++i) {
    live.add_packet(cb.packets()[i]);
  }
  SCOPED_TRACE("timestamp regression");
  expect_matches_reference(live.snapshot(), nullptr);
  merge_against_reference(live, false);
}

}  // namespace
}  // namespace uncharted::analysis

// DatasetBuilder::snapshot(): the dataset a restored copy's finish() would
// return, built without touching the live builder's state or its arena.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/sharded.hpp"
#include "exec/pool.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"

namespace uncharted::analysis {
namespace {

const std::vector<net::CapturedPacket>& y1_packets() {
  static const auto capture = sim::generate_capture(sim::CaptureConfig::y1(120.0));
  return capture.packets;
}

const std::vector<net::CapturedPacket>& faulty_packets() {
  static const auto faulted =
      faultinject::apply_faults(y1_packets(), faultinject::FaultConfig::uniform(0.05));
  return faulted.packets;
}

CaptureDataset::Options options_for(ParseMode mode) {
  CaptureDataset::Options options;
  options.mode = mode;
  return options;
}

/// Small enough that records, flows and parsers are all evicted.
ResourceBudgets tight_budgets() {
  ResourceBudgets budgets;
  budgets.max_flow_entries = 24;
  budgets.max_reassembly_bytes = 2048;
  budgets.max_records = 3000;
  budgets.max_parsers = 16;
  return budgets;
}

template <typename Saveable>
std::vector<std::uint8_t> saved(Saveable& state) {
  ByteWriter w;
  EXPECT_TRUE(state.save(w).ok());
  return {w.view().begin(), w.view().end()};
}

/// The reference: finish() on a builder restored from `live`'s checkpoint.
template <typename Builder, typename... Config>
CaptureDataset restored_finish(Builder& live, Config&&... config) {
  auto bytes = saved(live);
  Builder copy(std::forward<Config>(config)...);
  ByteReader r(bytes);
  EXPECT_TRUE(copy.load(r).ok());
  return copy.finish();
}

std::vector<std::uint8_t> flow_bytes(const net::FlowTable& flows) {
  ByteWriter w;
  flows.save(w);
  return {w.view().begin(), w.view().end()};
}

std::vector<std::uint64_t> stat_fields(const DatasetStats& s) {
  const auto& d = s.degradation;
  return {s.packets, s.tcp_packets, s.undecodable_frames, s.iec104_payload_packets,
          s.apdus, s.apdu_failures, s.c37118_packets, s.iccp_packets,
          s.other_tcp_packets, s.non_compliant_apdus, s.tcp_retransmissions,
          d.undecodable_frames, d.parser_resyncs, d.garbage_bytes,
          d.undecodable_apdus, d.truncated_tail_bytes, d.reassembly_gaps,
          d.reassembly_lost_bytes, d.overlapping_segments, d.aborted_streams,
          d.wild_segments, d.quarantined_connections, d.quarantined_apdus};
}

void expect_same_dataset(const CaptureDataset& got, const CaptureDataset& want) {
  EXPECT_EQ(stat_fields(got.stats()), stat_fields(want.stats()));
  EXPECT_EQ(flow_bytes(got.flow_table()), flow_bytes(want.flow_table()));

  ASSERT_EQ(got.records().size(), want.records().size());
  for (std::size_t i = 0; i < got.records().size(); ++i) {
    const auto& a = got.records()[i];
    const auto& b = want.records()[i];
    ASSERT_EQ(a.ts, b.ts) << "record " << i;
    ASSERT_EQ(a.flow, b.flow) << "record " << i;
    ASSERT_EQ(a.seq, b.seq) << "record " << i;
    ASSERT_EQ(a.apdu.ts, b.apdu.ts) << "record " << i;
    ASSERT_EQ(a.apdu.profile, b.apdu.profile) << "record " << i;
    ASSERT_EQ(a.apdu.compliant, b.apdu.compliant) << "record " << i;
    ASSERT_EQ(a.apdu.wire_size, b.apdu.wire_size) << "record " << i;
    ASSERT_EQ(a.apdu.apdu.encode(a.apdu.profile).value(),
              b.apdu.apdu.encode(b.apdu.profile).value())
        << "record " << i;
  }

  const auto& ca = got.columns();
  const auto& cb = want.columns();
  EXPECT_EQ(ca.ts, cb.ts);
  EXPECT_EQ(ca.flow_index, cb.flow_index);
  EXPECT_EQ(ca.seq, cb.seq);
  EXPECT_EQ(ca.type_id, cb.type_id);
  EXPECT_EQ(ca.wire_size, cb.wire_size);
  EXPECT_EQ(got.flow_keys(), want.flow_keys());
  EXPECT_EQ(got.quarantined_flows(), want.quarantined_flows());
  EXPECT_EQ(got.sessions(), want.sessions());
  EXPECT_EQ(got.connections(), want.connections());

  ASSERT_EQ(got.compliance().size(), want.compliance().size());
  for (auto a = got.compliance().begin(), b = want.compliance().begin();
       a != got.compliance().end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
    EXPECT_EQ(a->second.i_apdus, b->second.i_apdus);
    EXPECT_EQ(a->second.non_compliant, b->second.non_compliant);
    EXPECT_EQ(a->second.profile, b->second.profile);
  }

  ASSERT_EQ(got.damage().size(), want.damage().size());
  for (auto a = got.damage().begin(), b = want.damage().begin();
       a != got.damage().end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
    EXPECT_EQ(a->second.apdus, b->second.apdus);
    EXPECT_EQ(a->second.garbage, b->second.garbage);
    EXPECT_EQ(a->second.garbage_bytes, b->second.garbage_bytes);
    EXPECT_EQ(a->second.undecodable, b->second.undecodable);
    EXPECT_EQ(a->second.truncated, b->second.truncated);
    EXPECT_EQ(a->second.oversized, b->second.oversized);
    EXPECT_EQ(a->second.last_failure_ts, b->second.last_failure_ts);
  }
}

/// Snapshots at three cut points: each must equal a restored copy's
/// finish() and leave the checkpoint bytes and the arena footprint as
/// they were. A twin builder that never snapshots must end identical.
void check_builder(const std::vector<net::CapturedPacket>& packets, ParseMode mode,
                   const ResourceBudgets& budgets) {
  auto options = options_for(mode);
  DatasetBuilder live(options, budgets);
  DatasetBuilder untouched(options, budgets);
  std::size_t fed = 0;
  for (std::size_t cut : {packets.size() / 4, packets.size() / 2,
                          packets.size() * 3 / 4}) {
    for (; fed < cut; ++fed) {
      live.add_packet(packets[fed]);
      untouched.add_packet(packets[fed]);
    }
    auto before = saved(live);
    auto arena_before = live.record_arena_bytes();
    auto snapshot = live.snapshot();
    EXPECT_EQ(saved(live), before) << "snapshot changed the state at " << cut;
    EXPECT_EQ(live.record_arena_bytes(), arena_before)
        << "snapshot allocated in the live arena at " << cut;
    SCOPED_TRACE(cut);
    expect_same_dataset(snapshot, restored_finish(live, options, budgets));
  }
  for (; fed < packets.size(); ++fed) {
    live.add_packet(packets[fed]);
    untouched.add_packet(packets[fed]);
  }
  EXPECT_EQ(saved(live), saved(untouched));
  expect_same_dataset(live.finish(), untouched.finish());
}

TEST(DatasetSnapshot, PerPacketMatchesRestoredFinish) {
  check_builder(y1_packets(), ParseMode::kPerPacket, {});
}

TEST(DatasetSnapshot, ReassembledMatchesRestoredFinish) {
  check_builder(y1_packets(), ParseMode::kReassembled, {});
}

TEST(DatasetSnapshot, FaultyReassembledMatchesRestoredFinish) {
  check_builder(faulty_packets(), ParseMode::kReassembled, {});
}

TEST(DatasetSnapshot, FaultyPerPacketMatchesRestoredFinish) {
  check_builder(faulty_packets(), ParseMode::kPerPacket, {});
}

TEST(DatasetSnapshot, EvictingBudgetsMatchRestoredFinish) {
  DatasetBuilder probe(options_for(ParseMode::kReassembled), tight_budgets());
  for (const auto& pkt : faulty_packets()) probe.add_packet(pkt);
  ASSERT_GT(probe.pressure().records_evicted, 0u);
  ASSERT_GT(probe.pressure().flow_evictions, 0u);
  ASSERT_GT(probe.pressure().parsers_evicted, 0u);

  check_builder(faulty_packets(), ParseMode::kReassembled, tight_budgets());
  check_builder(faulty_packets(), ParseMode::kPerPacket, tight_budgets());
}

TEST(DatasetSnapshot, ShardedMatchesRestoredFinish) {
  // No save() or pressure() before the snapshot: it must drain the staged
  // and queued lane batches itself.
  const auto& packets = faulty_packets();
  auto options = options_for(ParseMode::kReassembled);
  exec::Pool pool(4);
  ShardedDatasetBuilder live(options, tight_budgets(), &pool);
  ShardedDatasetBuilder untouched(options, tight_budgets(), &pool);
  for (std::size_t i = 0; i < packets.size() / 2; ++i) {
    live.add_packet(packets[i]);
    untouched.add_packet(packets[i]);
  }
  auto snapshot = live.snapshot();
  EXPECT_EQ(saved(live), saved(untouched));
  expect_same_dataset(snapshot,
                      restored_finish(live, options, tight_budgets(), &pool,
                                      kDefaultShardCount));
}

}  // namespace
}  // namespace uncharted::analysis

#include "analysis/seq_audit.hpp"

#include <algorithm>
#include <map>

#include "iec104/seq15.hpp"

namespace uncharted::analysis {

using iec104::seq15_delta;
using iec104::seq15_next;

namespace {

struct DirState {
  bool seen = false;
  std::uint16_t expected_ns = 0;  ///< next N(S) we expect
  SeqAuditEntry entry;
};

constexpr std::uint32_t kNoFlow = 0xffffffff;

/// For each flow index, the index of the reverse direction, or kNoFlow
/// when that direction carried no record.
std::vector<std::uint32_t> peer_flows(const std::vector<net::FlowKey>& keys) {
  std::map<net::FlowKey, std::uint32_t> index;
  for (std::uint32_t f = 0; f < keys.size(); ++f) index.emplace(keys[f], f);
  std::vector<std::uint32_t> peer(keys.size(), kNoFlow);
  for (std::uint32_t f = 0; f < keys.size(); ++f) {
    auto it = index.find(keys[f].reversed());
    if (it != index.end()) peer[f] = it->second;
  }
  return peer;
}

}  // namespace

SeqAuditReport audit_sequences(const CaptureDataset& dataset) {
  // One state per directed flow, indexed like the flow_index column; the
  // reverse direction's slot is resolved once per flow, not per record.
  const auto& keys = dataset.flow_keys();
  const auto& records = dataset.records();
  const auto& cols = dataset.columns();
  const auto peer = peer_flows(keys);
  std::vector<DirState> dirs(keys.size());
  for (std::size_t f = 0; f < keys.size(); ++f) dirs[f].entry.direction = keys[f];

  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto format = iec104::token_format(cols.token[i]);
    if (format == iec104::ApduFormat::kU) continue;
    const auto& apdu = records[i].apdu.apdu;
    const std::uint32_t f = cols.flow_index[i];
    auto& st = dirs[f];

    if (format == iec104::ApduFormat::kI) {
      ++st.entry.i_apdus;
      if (!st.seen) {
        st.seen = true;  // anchor mid-stream
        st.expected_ns = seq15_next(apdu.send_seq);
      } else {
        int delta = seq15_delta(apdu.send_seq, st.expected_ns);
        if (delta == 0) {
          st.expected_ns = seq15_next(apdu.send_seq);
        } else if (delta > 0) {
          ++st.entry.gaps;
          st.expected_ns = seq15_next(apdu.send_seq);
        } else if (delta == -1) {
          ++st.entry.duplicates;  // same N(S) again: retransmitted APDU
        } else {
          ++st.entry.resets;
          st.expected_ns = seq15_next(apdu.send_seq);
        }
      }
    }

    // Acknowledgement audit: the N(R) in I/S frames must not exceed the
    // peer direction's next N(S).
    if (peer[f] != kNoFlow && dirs[peer[f]].seen) {
      int ahead = seq15_delta(apdu.recv_seq, dirs[peer[f]].expected_ns);
      if (ahead > 0) ++st.entry.ack_violations;
    }
  }

  // Entries in FlowKey order, as a map over the directions would list them.
  std::sort(dirs.begin(), dirs.end(), [](const DirState& a, const DirState& b) {
    return a.entry.direction < b.entry.direction;
  });
  SeqAuditReport report;
  for (const auto& st : dirs) {
    if (st.entry.i_apdus == 0 && st.entry.ack_violations == 0) continue;
    report.total_gaps += st.entry.gaps;
    report.total_duplicates += st.entry.duplicates;
    report.total_ack_violations += st.entry.ack_violations;
    report.entries.push_back(st.entry);
  }
  return report;
}

}  // namespace uncharted::analysis

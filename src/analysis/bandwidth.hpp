// Bandwidth and timing analysis — the first prong of the paper's approach
// ("traffic analysis of TCP flows, bandwidth used, and timing
// characteristics of the packets").
//
// Produces per-protocol byte/packet rate time series (bucketed), per-
// connection byte totals, and packet inter-arrival statistics for the
// IEC 104 traffic.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/frame.hpp"
#include "net/pcap.hpp"
#include "util/ptrcache.hpp"
#include "util/stats.hpp"

namespace uncharted::analysis {

/// Protocol classes on the tap.
enum class TapProtocol { kIec104, kC37118, kIccp, kOther };

std::string tap_protocol_name(TapProtocol p);

/// One bucket of a rate series.
struct RateBucket {
  double t_seconds = 0.0;  ///< bucket start, relative to capture start
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

struct BandwidthReport {
  double bucket_seconds = 0.0;
  Timestamp start_ts = 0;
  /// Byte/packet rate per protocol over time.
  std::map<TapProtocol, std::vector<RateBucket>> series;
  /// Whole-capture totals.
  std::map<TapProtocol, std::uint64_t> total_bytes;
  std::map<TapProtocol, std::uint64_t> total_packets;
  /// Top talkers (canonical connection -> payload bytes), descending.
  std::vector<std::pair<net::FlowKey, std::uint64_t>> top_connections;
  /// IEC 104 packet inter-arrival statistics (all packets on port 2404).
  RunningStats iec104_interarrival_s;

  double duration_seconds() const;
  /// Mean throughput for a protocol in bytes/second.
  double mean_rate_bps(TapProtocol p) const;
};

/// Computes the report with the given time bucket (default 10 s).
BandwidthReport analyze_bandwidth(const std::vector<net::CapturedPacket>& packets,
                                  double bucket_seconds = 10.0);
/// Zero-copy variant over frame views (the mmap'd-file path).
BandwidthReport analyze_bandwidth(std::span<const net::FrameView> frames,
                                  double bucket_seconds = 10.0);

/// Incremental bandwidth accounting: one packet at a time, checkpointable.
/// `analyze_bandwidth` is a thin wrapper; the streaming analyzer feeds one
/// of these alongside the DatasetBuilder, and a DatasetBuilder can feed one
/// from its own decode pass (DatasetBuilder::set_bandwidth_sink).
class BandwidthAccumulator {
 public:
  explicit BandwidthAccumulator(double bucket_seconds = 10.0);

  void add_packet(const net::CapturedPacket& pkt) {
    add_packet(pkt.ts, pkt.data);
  }
  /// Zero-copy form: decode_frame_into + add_decoded. All accounting reads
  /// only the timestamp and the raw frame bytes, so views and owning
  /// packets take the same path.
  void add_packet(Timestamp ts, std::span<const std::uint8_t> data);
  /// Accounts a frame the caller has already decoded; `frame_size` is its
  /// captured length. Pass nullptr for an undecodable frame: it is not
  /// counted, but the first frame of any kind still anchors the start.
  void add_decoded(Timestamp ts, std::size_t frame_size,
                   const net::DecodedFrame* frame);

  /// Snapshot of the report so far (top talkers sorted and truncated).
  BandwidthReport finish() const;

  /// Checkpoint serialization. The bucket width is saved too — it shapes
  /// the series, so a restore under a different width must not silently
  /// mix scales (load adopts the saved width).
  void save(ByteWriter& w) const;
  /// A protocol tag outside TapProtocol, or sections that disagree on
  /// which protocols were seen, is an error (a CRC-valid but hostile or
  /// foreign payload), never an out-of-range index.
  Status load(ByteReader& r);

 private:
  static constexpr std::size_t kProtocols = 4;
  static_assert(static_cast<std::size_t>(TapProtocol::kOther) + 1 == kProtocols);

  double bucket_seconds_;
  bool have_start_ = false;
  Timestamp start_ts_ = 0;
  /// Per-protocol state indexed by TapProtocol. Bit p of seen_ is set once
  /// protocol p carried a packet; finish() and save() emit only those, the
  /// key set the report's per-protocol maps have always had.
  std::uint8_t seen_ = 0;
  std::array<std::vector<RateBucket>, kProtocols> series_;
  std::array<std::uint64_t, kProtocols> total_bytes_{};
  std::array<std::uint64_t, kProtocols> total_packets_{};
  std::map<net::FlowKey, std::uint64_t> connection_bytes_;
  /// Fronts connection_bytes_ on the per-packet path (the FlowTable::add
  /// idiom). Nodes are only ever cleared wholesale, by load().
  DirectMappedCache<net::FlowKey, std::uint64_t, 1024> connection_cache_;
  std::optional<Timestamp> prev_iec104_;
  RunningStats iec104_interarrival_s_;
};

}  // namespace uncharted::analysis

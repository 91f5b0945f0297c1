#include "analysis/sessions.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "exec/pool.hpp"

namespace uncharted::analysis {

std::string feature_name(std::size_t index) {
  switch (index) {
    case kFeatDirection: return "direction";
    case kFeatMeanInterArrival: return "mean_interarrival";
    case kFeatStdInterArrival: return "std_interarrival";
    case kFeatTotalBytes: return "total_bytes";
    case kFeatPacketCount: return "num_packets";
    case kFeatMeanApduSize: return "mean_apdu_size";
    case kFeatPercentI: return "percent_I";
    case kFeatPercentS: return "percent_S";
    case kFeatPercentU: return "percent_U";
    case kFeatDistinctIoas: return "distinct_ioas";
  }
  return "feature_" + std::to_string(index);
}

namespace {

/// Distinct IOAs of one session, kept as a sorted, unique vector. A small
/// direct-mapped filter of recently seen IOAs drops most repeats before
/// they reach the vector; the rest are appended and compacted (sort +
/// unique) whenever the unsorted tail outgrows the sorted part, so the
/// vector stays proportional to the distinct count.
class DistinctIoas {
 public:
  DistinctIoas() {
    // Slot i starts out holding i + 1, which can never hash to slot i:
    // an empty slot needs no sentinel that a real IOA could equal.
    for (std::uint32_t i = 0; i < recent_.size(); ++i) recent_[i] = i + 1;
  }

  void insert(std::uint32_t ioa) {
    auto& slot = recent_[ioa & (recent_.size() - 1)];
    if (slot == ioa) return;
    slot = ioa;
    ioas_.push_back(ioa);
    if (ioas_.size() >= 2 * sorted_ + recent_.size()) compact();
  }

  std::size_t count() {
    compact();
    return ioas_.size();
  }

 private:
  void compact() {
    std::sort(ioas_.begin(), ioas_.end());
    ioas_.erase(std::unique(ioas_.begin(), ioas_.end()), ioas_.end());
    sorted_ = ioas_.size();
  }

  std::array<std::uint32_t, 64> recent_;
  std::vector<std::uint32_t> ioas_;
  std::size_t sorted_ = 0;
};

/// Running totals of one session, in record order.
struct SessionAccumulator {
  bool from_server = false;
  double bytes = 0.0;
  std::size_t count = 0;
  std::size_t count_i = 0, count_s = 0, count_u = 0;
  DistinctIoas ioas;
  double sum_dt = 0.0, sum_dt2 = 0.0;
  std::size_t dt_n = 0;
  Timestamp prev = 0;
};

}  // namespace

std::vector<SessionFeatures> extract_session_features(const CaptureDataset& dataset) {
  // One accumulator per session, in session-map order, reached through a
  // per-directed-flow slot table. The walk over the records is then
  // sequential: columns for everything but the IOAs, and the record only
  // for an I-frame's objects.
  const auto& keys = dataset.flow_keys();
  std::map<std::pair<net::Ipv4Addr, net::Ipv4Addr>, std::size_t> session_of;
  for (const auto& [key, indices] : dataset.sessions()) {
    session_of.emplace(key, session_of.size());
  }
  std::vector<std::size_t> slot_of_flow(keys.size());
  for (std::size_t f = 0; f < keys.size(); ++f) {
    slot_of_flow[f] = session_of.at({keys[f].src_ip, keys[f].dst_ip});
  }
  std::vector<SessionAccumulator> acc(session_of.size());

  const auto& records = dataset.records();
  const auto& cols = dataset.columns();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint32_t f = cols.flow_index[i];
    auto& a = acc[slot_of_flow[f]];
    // Direction: the outstation owns the IEC 104 port, so a sender whose
    // flows target port 2404 is the control-server side.
    if (a.count++ == 0) a.from_server = keys[f].dst_port == iec104::kIec104Port;
    a.bytes += static_cast<double>(cols.wire_size[i]);
    switch (iec104::token_format(cols.token[i])) {
      case iec104::ApduFormat::kI: ++a.count_i; break;
      case iec104::ApduFormat::kS: ++a.count_s; break;
      case iec104::ApduFormat::kU: ++a.count_u; break;
    }
    if (cols.type_id[i] != CaptureDataset::kNoTypeId) {
      for (const auto& obj : records[i].apdu.apdu.asdu->objects) a.ioas.insert(obj.ioa);
    }
    const Timestamp ts = cols.ts[i];
    if (a.prev != 0) {
      double dt = to_seconds(static_cast<DurationUs>(ts - a.prev));
      a.sum_dt += dt;
      a.sum_dt2 += dt * dt;
      ++a.dt_n;
    }
    a.prev = ts;
  }

  std::vector<SessionFeatures> out;
  out.reserve(acc.size());
  for (const auto& [key, slot] : session_of) {
    auto& a = acc[slot];
    SessionFeatures sf;
    sf.src = key.first;
    sf.dst = key.second;
    sf.values.assign(kFeatureCount, 0.0);
    double n = static_cast<double>(a.count);
    double mean_dt = a.dt_n ? a.sum_dt / static_cast<double>(a.dt_n) : 0.0;
    double var_dt = a.dt_n ? std::max(0.0, a.sum_dt2 / static_cast<double>(a.dt_n) -
                                               mean_dt * mean_dt)
                           : 0.0;
    sf.values[kFeatDirection] = a.from_server ? 1.0 : 0.0;
    sf.values[kFeatMeanInterArrival] = mean_dt;
    sf.values[kFeatStdInterArrival] = std::sqrt(var_dt);
    sf.values[kFeatTotalBytes] = a.bytes;
    sf.values[kFeatPacketCount] = n;
    sf.values[kFeatMeanApduSize] = a.bytes / n;
    sf.values[kFeatPercentI] = static_cast<double>(a.count_i) / n;
    sf.values[kFeatPercentS] = static_cast<double>(a.count_s) / n;
    sf.values[kFeatPercentU] = static_cast<double>(a.count_u) / n;
    sf.values[kFeatDistinctIoas] = static_cast<double>(a.ioas.count());
    out.push_back(std::move(sf));
  }
  return out;
}

std::vector<FeatureRank> rank_features_by_silhouette(
    const std::vector<SessionFeatures>& sessions, int k, exec::Pool* pool) {
  std::vector<FeatureRank> ranks;
  if (sessions.size() < static_cast<std::size_t>(k) + 1) return ranks;

  ranks.resize(kFeatureCount);
  KMeansOptions opts;
  opts.pool = pool;
  exec::TaskGroup group(pool);
  for (std::size_t f = 0; f < kFeatureCount; ++f) {
    group.run([&, f] {
      Matrix column;
      column.reserve(sessions.size());
      for (const auto& s : sessions) column.push_back({s.values[f]});
      Matrix standardized = standardize(column);
      auto result = kmeans(standardized, k, opts);
      ranks[f] = FeatureRank{f, silhouette_score(standardized, result.assignment, k)};
    });
  }
  group.wait();
  std::sort(ranks.begin(), ranks.end(),
            [](const FeatureRank& a, const FeatureRank& b) {
              return a.silhouette > b.silhouette;
            });
  return ranks;
}

std::vector<std::size_t> paper_feature_selection() {
  return {kFeatMeanInterArrival, kFeatPacketCount, kFeatPercentI, kFeatPercentS,
          kFeatPercentU};
}

SessionClustering cluster_sessions(const CaptureDataset& dataset, int force_k,
                                   exec::Pool* pool) {
  SessionClustering out;
  out.sessions = extract_session_features(dataset);
  out.selected_features = paper_feature_selection();
  if (out.sessions.size() < 8) return out;

  Matrix selected;
  selected.reserve(out.sessions.size());
  for (const auto& s : out.sessions) {
    std::vector<double> row;
    row.reserve(out.selected_features.size());
    for (std::size_t f : out.selected_features) row.push_back(s.values[f]);
    selected.push_back(std::move(row));
  }
  Matrix standardized = standardize(selected);

  KMeansOptions opts;
  opts.pool = pool;
  int k_max = static_cast<int>(std::min<std::size_t>(8, out.sessions.size() - 1));
  out.k_sweep = sweep_k(standardized, 2, k_max, opts);
  out.chosen_k = force_k > 0 ? force_k : elbow_k(out.k_sweep);
  out.chosen_k = std::min<int>(out.chosen_k, static_cast<int>(out.sessions.size()));
  out.clustering = kmeans(standardized, out.chosen_k, opts);
  out.projection = pca(standardized, 2, pool);

  // Cluster profiles with heuristic interpretations (Fig 11 semantics).
  const int k = out.chosen_k;
  out.profiles.assign(static_cast<std::size_t>(k), {});
  for (int c = 0; c < k; ++c) out.profiles[static_cast<std::size_t>(c)].cluster = c;
  for (std::size_t i = 0; i < out.sessions.size(); ++i) {
    auto& p = out.profiles[static_cast<std::size_t>(out.clustering.assignment[i])];
    const auto& v = out.sessions[i].values;
    ++p.size;
    p.mean_inter_arrival += v[kFeatMeanInterArrival];
    p.mean_packets += v[kFeatPacketCount];
    p.pct_i += v[kFeatPercentI];
    p.pct_s += v[kFeatPercentS];
    p.pct_u += v[kFeatPercentU];
  }
  double max_dt = 0.0;
  int outlier_cluster = -1;
  for (auto& p : out.profiles) {
    if (p.size == 0) continue;
    double n = static_cast<double>(p.size);
    p.mean_inter_arrival /= n;
    p.mean_packets /= n;
    p.pct_i /= n;
    p.pct_s /= n;
    p.pct_u /= n;
    if (p.mean_inter_arrival > max_dt) {
      max_dt = p.mean_inter_arrival;
      outlier_cluster = p.cluster;
    }
  }
  for (auto& p : out.profiles) {
    if (p.size == 0) {
      p.interpretation = "empty";
    } else if (p.cluster == outlier_cluster) {
      p.interpretation = "outlier: extremely long inter-arrival times";
    } else if (p.pct_s > 0.8) {
      p.interpretation = "acknowledgements (S) from control servers";
    } else if (p.pct_u > 0.8) {
      p.interpretation = "keep-alive (U) backup connections";
    } else if (p.pct_i > 0.6 && p.mean_packets > 0) {
      p.interpretation = p.mean_inter_arrival < 3.0
                             ? "bulk I-format telemetry (spontaneous-heavy)"
                             : "regular I-format telemetry";
    } else {
      p.interpretation = "mixed";
    }
  }

  if (outlier_cluster >= 0) {
    for (std::size_t i = 0; i < out.sessions.size(); ++i) {
      if (out.clustering.assignment[i] == outlier_cluster) {
        out.outlier_sessions.push_back(&out.sessions[i]);
      }
    }
  }
  return out;
}

}  // namespace uncharted::analysis

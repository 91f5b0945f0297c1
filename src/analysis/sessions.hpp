// Session feature extraction and clustering (§6.3, Figs 10-11).
//
// A session is all APDU-bearing packets sent in one direction between two
// endpoints. Ten candidate statistical features are computed; per-feature
// silhouette ranking recovers the paper's selection of five (mean
// inter-arrival time, packet count, %I, %S, %U).
#pragma once

#include <string>
#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/kmeans.hpp"
#include "analysis/pca.hpp"

namespace uncharted::analysis {

/// Candidate feature indices into SessionFeatures::values.
enum SessionFeature : std::size_t {
  kFeatDirection = 0,    ///< 1 when sent by the control server side
  kFeatMeanInterArrival, ///< seconds
  kFeatStdInterArrival,
  kFeatTotalBytes,       ///< APDU wire bytes
  kFeatPacketCount,
  kFeatMeanApduSize,
  kFeatPercentI,
  kFeatPercentS,
  kFeatPercentU,
  kFeatDistinctIoas,
  kFeatureCount,
};

std::string feature_name(std::size_t index);

/// One directed session with its feature vector.
struct SessionFeatures {
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  std::vector<double> values;  ///< kFeatureCount entries
};

/// Extracts all sessions with >= 1 APDU, in the dataset's session-map
/// order, from one sequential walk over the records with a per-session
/// accumulator.
std::vector<SessionFeatures> extract_session_features(const CaptureDataset& dataset);

/// Mean silhouette of clustering on a single feature (k clusters), used to
/// rank candidate features as the paper does.
struct FeatureRank {
  std::size_t feature;
  double silhouette;
};
std::vector<FeatureRank> rank_features_by_silhouette(
    const std::vector<SessionFeatures>& sessions, int k = 5,
    exec::Pool* pool = nullptr);

/// The paper's selected five features.
std::vector<std::size_t> paper_feature_selection();

/// Full clustering result for Figs 10-11.
struct SessionClustering {
  std::vector<SessionFeatures> sessions;
  std::vector<std::size_t> selected_features;
  std::vector<KSweepEntry> k_sweep;      ///< k = 2..8 diagnostics
  int chosen_k = 0;                      ///< elbow choice
  KMeansResult clustering;               ///< on the chosen k
  PcaResult projection;                  ///< 2-D PCA of the selected features

  struct ClusterProfile {
    int cluster = 0;
    std::size_t size = 0;
    double mean_inter_arrival = 0.0;
    double mean_packets = 0.0;
    double pct_i = 0.0, pct_s = 0.0, pct_u = 0.0;
    std::string interpretation;  ///< heuristic label matching Fig 11
  };
  std::vector<ClusterProfile> profiles;

  /// Sessions in the cluster with the largest mean inter-arrival time
  /// (the paper's outlier "cluster 0": C2->O30 and C4<->O22).
  std::vector<const SessionFeatures*> outlier_sessions;
};

/// Runs the paper's session-clustering pipeline. `force_k` pins K (the
/// paper uses 5); 0 lets the elbow choose. `pool` parallelizes the k
/// sweep, the final k-means and the PCA — all with thread-count-invariant
/// results.
SessionClustering cluster_sessions(const CaptureDataset& dataset, int force_k = 5,
                                   exec::Pool* pool = nullptr);

}  // namespace uncharted::analysis

// Message-sequence models (§6.3.1): APDU tokenization (Table 4), bigram
// language models with MLE probabilities (Eq. 1-2), per-connection Markov
// chains, and the Fig 13 (nodes, edges) scatter with its three clusters:
// the (1,1) point (reset-backup connections), the "square" (ordinary
// chains) and the "ellipse" (chains containing the I100 interrogation).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"

namespace uncharted::exec {
class Pool;
}  // namespace uncharted::exec

namespace uncharted::analysis {

/// First-order Markov chain over tokens with MLE transition probabilities.
class MarkovChain {
 public:
  /// Builds from a token sequence; consecutive pairs become transitions.
  static MarkovChain from_tokens(const std::vector<std::string>& tokens);

  /// Builds from counted transitions: `nodes` names the distinct tokens,
  /// and pair_counts[a * nodes.size() + b] counts a -> b. The chain equals
  /// from_tokens() over any sequence with these tokens and transitions.
  static MarkovChain from_counts(const std::vector<std::string>& nodes,
                                 const std::vector<std::uint64_t>& pair_counts);

  std::size_t node_count() const { return counts_.size(); }
  std::size_t edge_count() const;

  /// MLE P(next | current); 0 when the transition was never seen.
  double probability(const std::string& current, const std::string& next) const;

  /// Raw transition counts: counts[current][next].
  const std::map<std::string, std::map<std::string, std::uint64_t>>& counts() const {
    return counts_;
  }

  bool has_node(const std::string& token) const { return counts_.count(token) > 0; }

  /// True when the chain contains a self-loop on `token`.
  bool has_self_loop(const std::string& token) const;

  /// Multi-line "A -> B : p" rendering, probabilities in edge order.
  std::string str() const;

 private:
  // Every node has an entry (possibly with an empty successor map).
  std::map<std::string, std::map<std::string, std::uint64_t>> counts_;
  std::map<std::string, std::uint64_t> outgoing_totals_;
};

/// Bigram language model over many sequences (Eq. 1-2), with
/// log-probability scoring for whitelist-style anomaly detection.
class BigramModel {
 public:
  static constexpr const char* kStart = "<s>";
  static constexpr const char* kEnd = "</s>";

  void add_sequence(const std::vector<std::string>& tokens);

  /// MLE P(next | current) including start/end pseudo-tokens.
  double probability(const std::string& current, const std::string& next) const;

  /// Average log2-probability per transition; `floor` substitutes for
  /// unseen transitions (default: treat as probability 2^-20).
  double log2_score(const std::vector<std::string>& tokens, double floor_log2 = -20.0) const;

  /// A sequence is anomalous when it contains a transition never seen in
  /// training.
  bool contains_unseen_transition(const std::vector<std::string>& tokens) const;

  std::size_t vocabulary_size() const { return counts_.size(); }

 private:
  std::map<std::string, std::map<std::string, std::uint64_t>> counts_;
  std::map<std::string, std::uint64_t> totals_;
};

/// Fig 13 cluster labels.
enum class ChainCluster {
  kPoint11,  ///< one node, one edge: repeated unanswered U16
  kSquare,   ///< ordinary chains without interrogation
  kEllipse,  ///< chains containing the I100 interrogation command
};

std::string chain_cluster_name(ChainCluster c);

/// One connection's chain summary (a Fig 13 scatter point).
struct ConnectionChain {
  EndpointPair pair;
  MarkovChain chain;
  std::vector<std::string> tokens;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  bool has_i100 = false;
  ChainCluster cluster = ChainCluster::kSquare;
};

/// Builds per-connection chains (tokens from both directions, time order)
/// from the dataset's token column: transitions are counted between token
/// ids, and each distinct token is named once. Connections are
/// independent; `pool` fans them out (inline when null), output in
/// connection-map order either way.
std::vector<ConnectionChain> build_connection_chains(const CaptureDataset& dataset,
                                                     exec::Pool* pool = nullptr);

}  // namespace uncharted::analysis

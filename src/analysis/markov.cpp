#include "analysis/markov.hpp"

#include <cmath>

#include "exec/pool.hpp"

namespace uncharted::analysis {

MarkovChain MarkovChain::from_tokens(const std::vector<std::string>& tokens) {
  MarkovChain chain;
  for (const auto& t : tokens) chain.counts_.try_emplace(t);
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    ++chain.counts_[tokens[i]][tokens[i + 1]];
    ++chain.outgoing_totals_[tokens[i]];
  }
  return chain;
}

MarkovChain MarkovChain::from_counts(const std::vector<std::string>& nodes,
                                     const std::vector<std::uint64_t>& pair_counts) {
  MarkovChain chain;
  const std::size_t n = nodes.size();
  for (std::size_t a = 0; a < n; ++a) {
    auto& successors = chain.counts_[nodes[a]];
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < n; ++b) {
      std::uint64_t count = pair_counts[a * n + b];
      if (count == 0) continue;
      successors[nodes[b]] += count;
      total += count;
    }
    if (total != 0) chain.outgoing_totals_[nodes[a]] += total;
  }
  return chain;
}

std::size_t MarkovChain::edge_count() const {
  std::size_t edges = 0;
  for (const auto& [node, successors] : counts_) edges += successors.size();
  return edges;
}

double MarkovChain::probability(const std::string& current, const std::string& next) const {
  auto it = counts_.find(current);
  if (it == counts_.end()) return 0.0;
  auto jt = it->second.find(next);
  if (jt == it->second.end()) return 0.0;
  auto tot = outgoing_totals_.find(current);
  if (tot == outgoing_totals_.end() || tot->second == 0) return 0.0;
  return static_cast<double>(jt->second) / static_cast<double>(tot->second);
}

bool MarkovChain::has_self_loop(const std::string& token) const {
  auto it = counts_.find(token);
  return it != counts_.end() && it->second.count(token) > 0;
}

std::string MarkovChain::str() const {
  std::string out;
  for (const auto& [node, successors] : counts_) {
    for (const auto& [next, count] : successors) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", probability(node, next));
      out += node + " -> " + next + " : " + buf + "\n";
    }
  }
  return out;
}

void BigramModel::add_sequence(const std::vector<std::string>& tokens) {
  if (tokens.empty()) return;
  ++counts_[kStart][tokens.front()];
  ++totals_[kStart];
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    ++counts_[tokens[i]][tokens[i + 1]];
    ++totals_[tokens[i]];
  }
  ++counts_[tokens.back()][kEnd];
  ++totals_[tokens.back()];
}

double BigramModel::probability(const std::string& current, const std::string& next) const {
  auto it = counts_.find(current);
  if (it == counts_.end()) return 0.0;
  auto jt = it->second.find(next);
  if (jt == it->second.end()) return 0.0;
  return static_cast<double>(jt->second) / static_cast<double>(totals_.at(current));
}

double BigramModel::log2_score(const std::vector<std::string>& tokens,
                               double floor_log2) const {
  if (tokens.empty()) return 0.0;
  double total = 0.0;
  std::size_t transitions = 0;
  auto add = [&](const std::string& a, const std::string& b) {
    double p = probability(a, b);
    total += p > 0.0 ? std::log2(p) : floor_log2;
    ++transitions;
  };
  add(kStart, tokens.front());
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) add(tokens[i], tokens[i + 1]);
  add(tokens.back(), kEnd);
  return total / static_cast<double>(transitions);
}

bool BigramModel::contains_unseen_transition(const std::vector<std::string>& tokens) const {
  if (tokens.empty()) return false;
  if (probability(kStart, tokens.front()) == 0.0) return true;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (probability(tokens[i], tokens[i + 1]) == 0.0) return true;
  }
  return probability(tokens.back(), kEnd) == 0.0;
}

std::string chain_cluster_name(ChainCluster c) {
  switch (c) {
    case ChainCluster::kPoint11: return "point(1,1)";
    case ChainCluster::kSquare: return "square";
    case ChainCluster::kEllipse: return "ellipse";
  }
  return "?";
}

std::vector<ConnectionChain> build_connection_chains(const CaptureDataset& dataset,
                                                     exec::Pool* pool) {
  const auto& token_of = dataset.columns().token;
  constexpr auto kI100 = static_cast<std::uint16_t>(iec104::TypeId::C_IC_NA_1);

  // Flatten the connection map so each chain builds into its own slot;
  // the output keeps the map's key order at any thread count.
  struct Item {
    const EndpointPair* pair;
    const std::vector<std::size_t>* indices;
  };
  std::vector<Item> items;
  items.reserve(dataset.connections().size());
  for (const auto& [pair, indices] : dataset.connections()) {
    items.push_back(Item{&pair, &indices});
  }

  std::vector<ConnectionChain> out(items.size());
  exec::parallel_for(pool, items.size(), 4, [&](std::size_t begin, std::size_t end) {
    // Token id -> this connection's node number, in first-seen order.
    std::vector<std::int32_t> node_of(iec104::kTokenSpace, -1);
    std::vector<std::uint16_t> node_tokens;
    std::vector<std::uint64_t> pair_counts;
    for (std::size_t i = begin; i < end; ++i) {
      ConnectionChain cc;
      cc.pair = *items[i].pair;
      const auto& indices = *items[i].indices;
      node_tokens.clear();
      for (std::size_t idx : indices) {
        const std::uint16_t token = token_of[idx];
        if (node_of[token] < 0) {
          node_of[token] = static_cast<std::int32_t>(node_tokens.size());
          node_tokens.push_back(token);
        }
      }
      const std::size_t n = node_tokens.size();
      pair_counts.assign(n * n, 0);
      std::vector<std::string> names;
      names.reserve(n);
      for (std::uint16_t token : node_tokens) {
        names.push_back(iec104::token_name(token));
        cc.has_i100 = cc.has_i100 || token == kI100;
      }
      cc.tokens.reserve(indices.size());
      std::int32_t prev = -1;
      for (std::size_t idx : indices) {
        const std::int32_t node = node_of[token_of[idx]];
        cc.tokens.push_back(names[static_cast<std::size_t>(node)]);
        if (prev >= 0) {
          ++pair_counts[static_cast<std::size_t>(prev) * n +
                        static_cast<std::size_t>(node)];
        }
        prev = node;
      }
      for (std::uint16_t token : node_tokens) node_of[token] = -1;

      cc.chain = MarkovChain::from_counts(names, pair_counts);
      cc.nodes = cc.chain.node_count();
      cc.edges = cc.chain.edge_count();
      if (cc.nodes == 1 && cc.edges == 1) {
        cc.cluster = ChainCluster::kPoint11;
      } else if (cc.has_i100) {
        cc.cluster = ChainCluster::kEllipse;
      } else {
        cc.cluster = ChainCluster::kSquare;
      }
      out[i] = std::move(cc);
    }
  });
  return out;
}

}  // namespace uncharted::analysis

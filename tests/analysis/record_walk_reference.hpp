// Record-walk reference implementations of the dataset index and the §6
// analytics, kept only for tests: each walks the records one by one with a
// map, set or string operation per record, the straightforward way. The
// product code computes the same results over dense per-flow tables; the
// reference suite asserts the two agree field by field.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/conformance_audit.hpp"
#include "analysis/dataset.hpp"
#include "analysis/markov.hpp"
#include "analysis/physical.hpp"
#include "analysis/seq_audit.hpp"
#include "analysis/sessions.hpp"
#include "analysis/typeid_stats.hpp"

namespace uncharted::reference {

/// Paper Table 4 token of one APDU, spelled out per format.
std::string apdu_token(const iec104::Apdu& apdu);

/// What merge_partials derives from the records: the canonical order and
/// every index built over it.
struct DatasetIndex {
  std::vector<analysis::ApduRecord> records;  ///< canonical (ts, flow, seq) order
  std::map<std::pair<net::Ipv4Addr, net::Ipv4Addr>, std::vector<std::size_t>> sessions;
  std::map<analysis::EndpointPair, std::vector<std::size_t>> connections;
  std::map<net::Ipv4Addr, analysis::CaptureDataset::ComplianceEntry> compliance;
  analysis::CaptureDataset::HotColumns columns;  ///< all but `token`
  std::vector<std::string> tokens;  ///< apdu_token() per record
  std::vector<net::FlowKey> flow_keys;
};

/// Full stable sort into canonical order, then one indexing pass with map
/// lookups per record. `records` may arrive in any order.
DatasetIndex index_records(std::vector<analysis::ApduRecord> records,
                           std::uint16_t iec104_port = iec104::kIec104Port);

analysis::SeqAuditReport audit_sequences(const analysis::CaptureDataset& dataset);

analysis::ConformanceReport audit_conformance(
    const analysis::CaptureDataset& dataset,
    const iec104::ConformancePolicy& policy = {},
    std::uint16_t iec104_port = iec104::kIec104Port);

std::vector<analysis::ConnectionChain> build_connection_chains(
    const analysis::CaptureDataset& dataset);

std::vector<analysis::SessionFeatures> extract_session_features(
    const analysis::CaptureDataset& dataset);

std::map<analysis::SeriesKey, analysis::TimeSeries> extract_time_series(
    const analysis::CaptureDataset& dataset);

std::vector<analysis::StationClassification> classify_stations(
    const analysis::CaptureDataset& dataset);

analysis::TypeIdDistribution typeid_distribution(const analysis::CaptureDataset& dataset);

analysis::TypeIdStations typeid_station_counts(const analysis::CaptureDataset& dataset);

}  // namespace uncharted::reference

#include "analysis/typeid_stats.hpp"

#include <algorithm>
#include <array>
#include <bitset>

namespace uncharted::analysis {

std::vector<std::pair<std::uint8_t, std::uint64_t>> TypeIdDistribution::sorted() const {
  std::vector<std::pair<std::uint8_t, std::uint64_t>> out(counts.begin(), counts.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

TypeIdDistribution typeid_distribution(const CaptureDataset& dataset) {
  // Counting pass over the SoA type_id column into a flat per-typeID
  // array; the map is filled once per typeID seen.
  std::array<std::uint64_t, 256> counts{};
  TypeIdDistribution dist;
  for (std::uint16_t type : dataset.columns().type_id) {
    if (type == CaptureDataset::kNoTypeId) continue;
    ++counts[type];
    ++dist.total;
  }
  for (std::size_t type = 0; type < counts.size(); ++type) {
    if (counts[type] != 0) dist.counts.emplace(static_cast<std::uint8_t>(type), counts[type]);
  }
  return dist;
}

TypeIdStations typeid_station_counts(const CaptureDataset& dataset) {
  // Which typeIDs each directed flow carried, as a per-flow bitset; the
  // station sets are filled once per (flow, typeID) afterwards.
  const auto& keys = dataset.flow_keys();
  const auto& cols = dataset.columns();
  std::vector<std::bitset<256>> carried(keys.size());
  for (std::size_t i = 0; i < cols.type_id.size(); ++i) {
    if (cols.type_id[i] == CaptureDataset::kNoTypeId) continue;
    carried[cols.flow_index[i]].set(cols.type_id[i]);
  }

  // The outstation owns the IEC 104 port; commands from a server are
  // attributed to the outstation they address.
  TypeIdStations out;
  for (std::size_t f = 0; f < keys.size(); ++f) {
    const net::Ipv4Addr station =
        keys[f].src_port == iec104::kIec104Port ? keys[f].src_ip : keys[f].dst_ip;
    for (std::size_t type = 0; type < carried[f].size(); ++type) {
      if (carried[f].test(type)) out.stations[static_cast<std::uint8_t>(type)].insert(station);
    }
  }
  return out;
}

}  // namespace uncharted::analysis

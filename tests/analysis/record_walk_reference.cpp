#include "tests/analysis/record_walk_reference.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>

#include "iec104/seq15.hpp"

namespace uncharted::reference {

using analysis::ApduRecord;
using analysis::CaptureDataset;
using analysis::EndpointPair;

namespace {

bool canonical_less(const ApduRecord& a, const ApduRecord& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (!(a.flow == b.flow)) return a.flow < b.flow;
  return a.seq < b.seq;
}

net::Ipv4Addr outstation_of(const net::FlowKey& flow, std::uint16_t iec104_port) {
  return flow.src_port == iec104_port ? flow.src_ip : flow.dst_ip;
}

}  // namespace

std::string apdu_token(const iec104::Apdu& apdu) {
  switch (apdu.format) {
    case iec104::ApduFormat::kS:
      return "S";
    case iec104::ApduFormat::kU:
      switch (apdu.u_function) {
        case iec104::UFunction::kStartDtAct: return "U1";
        case iec104::UFunction::kStartDtCon: return "U2";
        case iec104::UFunction::kStopDtAct: return "U4";
        case iec104::UFunction::kStopDtCon: return "U8";
        case iec104::UFunction::kTestFrAct: return "U16";
        case iec104::UFunction::kTestFrCon: return "U32";
      }
      return "U?";
    case iec104::ApduFormat::kI:
      if (apdu.asdu) return "I_" + std::to_string(static_cast<int>(apdu.asdu->type));
      return "I_?";
  }
  return "?";
}

DatasetIndex index_records(std::vector<ApduRecord> records, std::uint16_t iec104_port) {
  std::vector<std::uint32_t> order(records.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return canonical_less(records[a], records[b]);
  });

  DatasetIndex out;
  out.records.reserve(records.size());
  for (std::uint32_t idx : order) out.records.push_back(std::move(records[idx]));

  std::map<net::FlowKey, std::uint32_t> flow_ids;
  auto& cols = out.columns;
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    const auto& rec = out.records[i];
    out.sessions[{rec.flow.src_ip, rec.flow.dst_ip}].push_back(i);
    out.connections[EndpointPair::of(rec.flow.src_ip, rec.flow.dst_ip)].push_back(i);
    auto [fit, fresh] = flow_ids.try_emplace(
        rec.flow, static_cast<std::uint32_t>(out.flow_keys.size()));
    if (fresh) out.flow_keys.push_back(rec.flow);
    cols.ts.push_back(rec.ts);
    cols.flow_index.push_back(fit->second);
    cols.seq.push_back(rec.seq);
    cols.type_id.push_back(
        rec.apdu.apdu.format == iec104::ApduFormat::kI && rec.apdu.apdu.asdu
            ? static_cast<std::uint16_t>(rec.apdu.apdu.asdu->type)
            : CaptureDataset::kNoTypeId);
    cols.wire_size.push_back(static_cast<std::uint32_t>(rec.apdu.wire_size));
    out.tokens.push_back(apdu_token(rec.apdu.apdu));
    if (rec.apdu.apdu.format == iec104::ApduFormat::kI) {
      auto& entry = out.compliance[outstation_of(rec.flow, iec104_port)];
      ++entry.i_apdus;
      if (!rec.apdu.compliant) {
        ++entry.non_compliant;
        entry.profile = rec.apdu.profile;
      }
    }
  }
  return out;
}

analysis::SeqAuditReport audit_sequences(const CaptureDataset& dataset) {
  using iec104::seq15_delta;
  using iec104::seq15_next;
  struct DirState {
    bool seen = false;
    std::uint16_t expected_ns = 0;
    analysis::SeqAuditEntry entry;
  };
  std::map<net::FlowKey, DirState> dirs;

  for (const auto& rec : dataset.records()) {
    const auto& apdu = rec.apdu.apdu;
    auto& st = dirs[rec.flow];
    st.entry.direction = rec.flow;
    if (apdu.format == iec104::ApduFormat::kI) {
      ++st.entry.i_apdus;
      if (!st.seen) {
        st.seen = true;
        st.expected_ns = seq15_next(apdu.send_seq);
      } else {
        int delta = seq15_delta(apdu.send_seq, st.expected_ns);
        if (delta == 0) {
          st.expected_ns = seq15_next(apdu.send_seq);
        } else if (delta > 0) {
          ++st.entry.gaps;
          st.expected_ns = seq15_next(apdu.send_seq);
        } else if (delta == -1) {
          ++st.entry.duplicates;
        } else {
          ++st.entry.resets;
          st.expected_ns = seq15_next(apdu.send_seq);
        }
      }
    }
    if (apdu.format == iec104::ApduFormat::kI || apdu.format == iec104::ApduFormat::kS) {
      auto peer_it = dirs.find(rec.flow.reversed());
      if (peer_it != dirs.end() && peer_it->second.seen) {
        int ahead = seq15_delta(apdu.recv_seq, peer_it->second.expected_ns);
        if (ahead > 0) ++st.entry.ack_violations;
      }
    }
  }

  analysis::SeqAuditReport report;
  for (auto& [key, st] : dirs) {
    if (st.entry.i_apdus == 0 && st.entry.ack_violations == 0) continue;
    report.total_gaps += st.entry.gaps;
    report.total_duplicates += st.entry.duplicates;
    report.total_ack_violations += st.entry.ack_violations;
    report.entries.push_back(st.entry);
  }
  return report;
}

analysis::ConformanceReport audit_conformance(const CaptureDataset& dataset,
                                              const iec104::ConformancePolicy& policy,
                                              std::uint16_t iec104_port) {
  std::map<net::FlowKey, iec104::ConformanceMachine> machines;
  auto machine_for = [&](const net::FlowKey& canonical) -> iec104::ConformanceMachine& {
    auto it = machines.find(canonical);
    if (it == machines.end()) {
      it = machines.emplace(canonical, iec104::ConformanceMachine(policy)).first;
    }
    return it->second;
  };

  for (const auto& flow : dataset.flow_table().flows()) {
    if (flow.saw_syn && flow.saw_synack) {
      machine_for(flow.key.canonical()).on_connection_open(flow.first_ts);
    }
  }
  for (const auto& rec : dataset.records()) {
    bool from_controller = rec.flow.src_port != iec104_port;
    machine_for(rec.flow.canonical())
        .on_apdu(rec.ts, from_controller, rec.apdu.apdu, rec.apdu.profile);
  }
  for (const auto& [key, dmg] : dataset.damage()) {
    auto& machine = machine_for(key.canonical());
    Timestamp ts = dmg.last_failure_ts;
    machine.on_parse_failures(ts, iec104::FailureKind::kGarbage, dmg.garbage);
    machine.on_parse_failures(ts, iec104::FailureKind::kUndecodable, dmg.undecodable);
    machine.on_parse_failures(ts, iec104::FailureKind::kTruncatedTail, dmg.truncated);
    machine.on_parse_failures(ts, iec104::FailureKind::kUndecodable, 0, dmg.oversized);
  }

  std::map<EndpointPair, analysis::ConnectionConformance> pairs;
  for (const auto& [key, machine] : machines) {
    auto pair_key = EndpointPair::of(key.src_ip, key.dst_ip);
    auto& entry = pairs[pair_key];
    entry.pair = pair_key;
    entry.verdict = std::max(entry.verdict, machine.verdict());
    auto& into = entry.profile;
    const auto& from = machine.profile();
    into.apdus += from.apdus;
    into.i_apdus += from.i_apdus;
    into.warn_score += from.warn_score;
    into.hostile_events += from.hostile_events;
    into.legacy_events += from.legacy_events;
    into.timers.max_idle_s = std::max(into.timers.max_idle_s, from.timers.max_idle_s);
    into.timers.max_ack_delay_s =
        std::max(into.timers.max_ack_delay_s, from.timers.max_ack_delay_s);
    into.timers.max_testfr_rtt_s =
        std::max(into.timers.max_testfr_rtt_s, from.timers.max_testfr_rtt_s);
    into.timers.max_startdt_rtt_s =
        std::max(into.timers.max_startdt_rtt_s, from.timers.max_startdt_rtt_s);
    for (const auto& v : from.violations) {
      auto it = std::find_if(into.violations.begin(), into.violations.end(),
                             [&](const auto& e) { return e.code == v.code; });
      if (it == into.violations.end()) {
        into.violations.push_back(v);
      } else {
        it->count += v.count;
        it->first_ts = std::min(it->first_ts, v.first_ts);
        it->last_ts = std::max(it->last_ts, v.last_ts);
      }
    }
    ++entry.flows;
  }

  analysis::ConformanceReport report;
  for (auto& [pair_key, entry] : pairs) {
    switch (entry.verdict) {
      case iec104::Verdict::kClean: ++report.clean_connections; break;
      case iec104::Verdict::kLegacy: ++report.legacy_connections; break;
      case iec104::Verdict::kSuspect: ++report.suspect_connections; break;
      case iec104::Verdict::kHostile: ++report.hostile_connections; break;
    }
    report.hostile_events += entry.profile.hostile_events;
    report.entries.push_back(std::move(entry));
  }
  return report;
}

std::vector<analysis::ConnectionChain> build_connection_chains(
    const CaptureDataset& dataset) {
  const auto& records = dataset.records();
  std::vector<analysis::ConnectionChain> out;
  for (const auto& [pair, indices] : dataset.connections()) {
    analysis::ConnectionChain cc;
    cc.pair = pair;
    for (std::size_t idx : indices) {
      cc.tokens.push_back(apdu_token(records[idx].apdu.apdu));
      if (records[idx].apdu.apdu.asdu &&
          records[idx].apdu.apdu.asdu->type == iec104::TypeId::C_IC_NA_1) {
        cc.has_i100 = true;
      }
    }
    cc.chain = analysis::MarkovChain::from_tokens(cc.tokens);
    cc.nodes = cc.chain.node_count();
    cc.edges = cc.chain.edge_count();
    if (cc.nodes == 1 && cc.edges == 1) {
      cc.cluster = analysis::ChainCluster::kPoint11;
    } else if (cc.has_i100) {
      cc.cluster = analysis::ChainCluster::kEllipse;
    } else {
      cc.cluster = analysis::ChainCluster::kSquare;
    }
    out.push_back(std::move(cc));
  }
  return out;
}

std::vector<analysis::SessionFeatures> extract_session_features(
    const CaptureDataset& dataset) {
  using namespace analysis;
  const auto& records = dataset.records();
  std::vector<SessionFeatures> out;
  for (const auto& [key, indices] : dataset.sessions()) {
    if (indices.empty()) continue;
    SessionFeatures sf;
    sf.src = key.first;
    sf.dst = key.second;
    sf.values.assign(kFeatureCount, 0.0);
    const auto& first = records[indices.front()];
    sf.values[kFeatDirection] = first.flow.dst_port == iec104::kIec104Port ? 1.0 : 0.0;

    double bytes = 0.0;
    std::size_t count_i = 0, count_s = 0, count_u = 0;
    std::set<std::uint32_t> ioas;
    double sum_dt = 0.0, sum_dt2 = 0.0;
    std::size_t dt_n = 0;
    Timestamp prev = 0;
    for (std::size_t idx : indices) {
      const auto& rec = records[idx];
      bytes += static_cast<double>(rec.apdu.wire_size);
      switch (rec.apdu.apdu.format) {
        case iec104::ApduFormat::kI: ++count_i; break;
        case iec104::ApduFormat::kS: ++count_s; break;
        case iec104::ApduFormat::kU: ++count_u; break;
      }
      if (rec.apdu.apdu.asdu) {
        for (const auto& obj : rec.apdu.apdu.asdu->objects) ioas.insert(obj.ioa);
      }
      if (prev != 0) {
        double dt = to_seconds(static_cast<DurationUs>(rec.ts - prev));
        sum_dt += dt;
        sum_dt2 += dt * dt;
        ++dt_n;
      }
      prev = rec.ts;
    }

    double n = static_cast<double>(indices.size());
    double mean_dt = dt_n ? sum_dt / static_cast<double>(dt_n) : 0.0;
    double var_dt = dt_n ? std::max(0.0, sum_dt2 / static_cast<double>(dt_n) -
                                             mean_dt * mean_dt)
                         : 0.0;
    sf.values[kFeatMeanInterArrival] = mean_dt;
    sf.values[kFeatStdInterArrival] = std::sqrt(var_dt);
    sf.values[kFeatTotalBytes] = bytes;
    sf.values[kFeatPacketCount] = n;
    sf.values[kFeatMeanApduSize] = bytes / n;
    sf.values[kFeatPercentI] = static_cast<double>(count_i) / n;
    sf.values[kFeatPercentS] = static_cast<double>(count_s) / n;
    sf.values[kFeatPercentU] = static_cast<double>(count_u) / n;
    sf.values[kFeatDistinctIoas] = static_cast<double>(ioas.size());
    out.push_back(std::move(sf));
  }
  return out;
}

std::map<analysis::SeriesKey, analysis::TimeSeries> extract_time_series(
    const CaptureDataset& dataset) {
  using analysis::SeriesPoint;
  std::map<analysis::SeriesKey, analysis::TimeSeries> out;
  for (const auto& rec : dataset.records()) {
    const auto& apdu = rec.apdu.apdu;
    if (apdu.format != iec104::ApduFormat::kI || !apdu.asdu) continue;
    if (rec.flow.src_port != iec104::kIec104Port) continue;
    auto type = static_cast<std::uint8_t>(apdu.asdu->type);
    if (type >= 45) continue;
    for (const auto& obj : apdu.asdu->objects) {
      double value = 0.0;
      if (!iec104::numeric_value(obj.value, value)) continue;
      auto& series = out[analysis::SeriesKey{rec.flow.src_ip, obj.ioa}];
      series.type_id = type;
      Timestamp ts = obj.time ? obj.time->to_timestamp() : rec.ts;
      series.points.push_back(SeriesPoint{ts, value});
    }
  }
  for (auto& [key, series] : out) {
    std::sort(series.points.begin(), series.points.end(),
              [](const SeriesPoint& a, const SeriesPoint& b) { return a.ts < b.ts; });
  }
  return out;
}

std::vector<analysis::StationClassification> classify_stations(
    const CaptureDataset& dataset) {
  using analysis::ConnectionProfile;
  using analysis::StationType;
  const auto& records = dataset.records();
  std::map<net::Ipv4Addr, std::map<net::Ipv4Addr, ConnectionProfile>> profiles;

  for (const auto& [pair, indices] : dataset.connections()) {
    if (indices.empty()) continue;
    const auto& first = records[indices.front()];
    net::Ipv4Addr station = first.flow.dst_port == iec104::kIec104Port
                                ? first.flow.dst_ip
                                : first.flow.src_ip;
    net::Ipv4Addr server = station == pair.a ? pair.b : pair.a;
    ConnectionProfile& p = profiles[station][server];
    p.server = server;
    bool seen_i = false;
    for (std::size_t idx : indices) {
      const auto& rec = records[idx];
      bool from_station = rec.flow.src_ip == station;
      switch (rec.apdu.apdu.format) {
        case iec104::ApduFormat::kI:
          if (from_station) {
            ++p.i_from_station;
          } else {
            ++p.i_from_server;
          }
          seen_i = true;
          if (rec.apdu.apdu.asdu &&
              rec.apdu.apdu.asdu->type == iec104::TypeId::C_IC_NA_1) {
            p.has_i100 = true;
          }
          break;
        case iec104::ApduFormat::kU:
          switch (rec.apdu.apdu.u_function) {
            case iec104::UFunction::kTestFrAct:
              ++p.u16;
              if (!seen_i) p.u_before_i = true;
              break;
            case iec104::UFunction::kTestFrCon:
              ++p.u32;
              break;
            case iec104::UFunction::kStartDtAct:
            case iec104::UFunction::kStartDtCon:
              ++p.startdt;
              break;
            default:
              break;
          }
          break;
        case iec104::ApduFormat::kS:
          break;
      }
    }
  }

  std::vector<analysis::StationClassification> out;
  for (auto& [station, by_server] : profiles) {
    analysis::StationClassification sc;
    sc.station = station;
    for (auto& [server, p] : by_server) sc.connections.push_back(p);
    std::size_t i_conns = 0, dead_u16_conns = 0, healthy_u_conns = 0;
    bool any_switchover = false, any_inband_test = false;
    for (const auto& p : sc.connections) {
      bool has_i = p.i_from_station + p.i_from_server > 0;
      bool has_u = p.u16 + p.u32 > 0;
      if (has_i) ++i_conns;
      if (!has_i && has_u) {
        if (p.u16 > 0 && p.u32 == 0) {
          ++dead_u16_conns;
        } else {
          ++healthy_u_conns;
        }
      }
      if (p.has_i100 && p.u_before_i && p.startdt > 0) any_switchover = true;
      if (has_i && p.u16 > 0 && p.u32 > 0) any_inband_test = true;
    }
    if (any_switchover) {
      sc.type = StationType::kType8;
    } else if (i_conns >= 2) {
      sc.type = StationType::kType4;
    } else if (i_conns == 1 && dead_u16_conns > 0) {
      sc.type = StationType::kType6;
    } else if (i_conns == 1 && healthy_u_conns > 0) {
      sc.type = StationType::kType2;
    } else if (i_conns == 1 && any_inband_test) {
      sc.type = StationType::kType5;
    } else if (i_conns == 1) {
      sc.type = StationType::kType1;
    } else if (dead_u16_conns > 0 && healthy_u_conns == 0) {
      sc.type = StationType::kType7;
    } else {
      sc.type = StationType::kType3;
    }
    out.push_back(std::move(sc));
  }
  return out;
}

analysis::TypeIdDistribution typeid_distribution(const CaptureDataset& dataset) {
  analysis::TypeIdDistribution dist;
  for (const auto& rec : dataset.records()) {
    const auto& apdu = rec.apdu.apdu;
    if (apdu.format != iec104::ApduFormat::kI || !apdu.asdu) continue;
    ++dist.counts[static_cast<std::uint8_t>(apdu.asdu->type)];
    ++dist.total;
  }
  return dist;
}

analysis::TypeIdStations typeid_station_counts(const CaptureDataset& dataset) {
  analysis::TypeIdStations out;
  for (const auto& rec : dataset.records()) {
    const auto& apdu = rec.apdu.apdu;
    if (apdu.format != iec104::ApduFormat::kI || !apdu.asdu) continue;
    out.stations[static_cast<std::uint8_t>(apdu.asdu->type)].insert(
        outstation_of(rec.flow, iec104::kIec104Port));
  }
  return out;
}

}  // namespace uncharted::reference

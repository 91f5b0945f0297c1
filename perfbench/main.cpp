// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--workdir DIR] [--source-id ID]
//
// Runs one workload (batch_y1, batch_y2_faulty, live_y1, live_y1_query),
// checks every report it produces against a reference, and prints the
// metrics by name with their units. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// it holds the end-to-end metrics, with --trace 1 the per-layer ones.
// perfbench/README.md defines every workload and metric.
#include <sched.h>
#include <unistd.h>

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncharted;

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream): one seed gives independent
  // capture, fault and fleet seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--scale F] [--workdir DIR] [--source-id ID]\n");
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
      continue;
    }
    if (arg == "--workdir") {
      args->workdir = value;
      continue;
    }
    if (arg == "--source-id") {
      args->source_id = value;
      continue;
    }
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') return false;
    if (arg == "--seed" && v >= 0) {
      args->seed = static_cast<std::uint64_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (arg == "--seconds" && v > 0) {
      args->seconds = v;
    } else if (arg == "--trace" && (v == 0 || v == 1)) {
      args->trace = v == 1;
    } else if (arg == "--scale" && v > 0) {
      args->scale = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace

bool make_spec(const Args& args, WorkloadSpec* spec) {
  spec->name = args.workload;
  // batch_y1 and the live workloads replay the same Y1 capture for a seed.
  const std::uint64_t y1_seed = mix(args.seed, 1);
  if (args.workload == "batch_y1") {
    spec->kind = Kind::kBatch;
    spec->capture = sim::CaptureConfig::y1(4800.0 * args.scale);
    spec->capture.seed = y1_seed;
  } else if (args.workload == "batch_y2_faulty") {
    spec->kind = Kind::kBatch;
    spec->capture = sim::CaptureConfig::y2(3600.0 * args.scale);
    spec->capture.seed = mix(args.seed, 2);
    spec->fault_rate = 0.05;
    spec->fault_seed = mix(args.seed, 3);
    spec->reassembled = true;
    spec->threads = 3;
  } else if (args.workload == "live_y1" || args.workload == "live_y1_query") {
    spec->kind = Kind::kLive;
    spec->capture = sim::CaptureConfig::y1(4800.0 * args.scale);
    spec->capture.seed = y1_seed;
    spec->pace = 500.0;
    spec->query_hz = args.workload == "live_y1_query" ? 0.5 : 0.0;
    spec->fleet_seed = mix(args.seed, 4);
  } else {
    return false;
  }
  return true;
}

void RunResult::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void RunResult::fail(std::uint64_t count, const std::string& why) {
  if (count == 0) return;
  failed += count;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED x%llu: %s\n",
               static_cast<unsigned long long>(count), why.c_str());
}

std::string RunResult::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void print_metrics(const RunResult& result) {
  for (const auto& m : result.metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(samples.size()))));
  return samples[std::min(rank, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  return (*std::max_element(samples.begin(), samples.begin() + mid) + upper) / 2.0;
}

std::uint64_t digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/// A "/proc/self/status" field given in kB, in MB.
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(key) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double reset_peak_rss() {
  malloc_trim(0);
  {
    // "5" resets VmHWM to the current RSS (Linux >= 4.0).
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
  }
  return status_mb("VmRSS");
}

double peak_rss_mb() { return status_mb("VmHWM"); }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  WorkloadSpec spec;
  if (!parse_args(argc, argv, &args)) {
    usage();
    return 2;
  }
  if (!make_spec(args, &spec)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    usage();
    return 2;
  }
  // Results are only comparable between runs with the same fingerprint.
  std::printf(
      "fingerprint {\"cpu\": \"%s\", \"nproc\": %d, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"source\": \"%s\"}\n",
      json_escape(cpu_model()).c_str(), online_cpus(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, json_escape(args.source_id).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d scale %g\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.scale);
  std::fflush(stdout);
  try {
    RunResult result =
        spec.kind == Kind::kBatch ? run_batch(spec, args) : run_live(spec, args);
    print_metrics(result);
    std::printf("%s\n", result.to_json().c_str());
    // A run whose outputs failed a check prints its result but still fails.
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

// Shared pieces of the perfbench program: workload specs, the result
// record printed as the run's last line, percentiles, digests, and the
// clock / CPU / RSS probes every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/capture.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  double scale = 1.0;     ///< capture-duration factor (the self-test shrinks it)
  std::string workdir = ".bench_build/work";
  std::string source_id = "unknown";  ///< git sha or source digest
};

enum class Kind { kBatch, kLive };

/// One named workload: its capture, its ingest configuration and, for the
/// live ones, how it is replayed.
struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kBatch;
  uncharted::sim::CaptureConfig capture;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0;
  bool reassembled = false;
  unsigned threads = 1;
  double pace = 0.0;        ///< live: capture time / wall time
  double query_hz = 0.0;    ///< live: open-loop report queries during replay
  std::uint64_t fleet_seed = 0;
};

/// Resolves a workload name and seed into its spec; false for an unknown
/// name.
bool make_spec(const Args& args, WorkloadSpec* spec);

/// The run's outcome: the JSON object printed as the last stdout line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Counts `count` failed operations and logs why on stderr.
  void fail(std::uint64_t count, const std::string& why);
  std::string to_json() const;
};

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
double percentile(std::vector<double> samples, double p);
/// Median of unsorted samples, the mean of the middle two for an even
/// count; 0 if empty.
double median(std::vector<double> samples);

/// FNV-1a 64 — enough to compare report bytes between runs of one process.
std::uint64_t digest(std::string_view bytes);
std::string hex(std::uint64_t v);

double process_cpu_s();
double thread_cpu_s();
/// Resets the kernel's resident-set high-water mark to the current RSS
/// (after returning freed heap to the OS) and returns that RSS in MB: the
/// baseline a workload's peak_rss_mb is measured above, so that neither its
/// set-up nor its resident inputs count as its own memory.
double reset_peak_rss();
/// The resident-set high-water mark in MB.
double peak_rss_mb();

/// Prints "name value unit" lines for humans (stdout, before the JSON).
void print_metrics(const RunResult& result);

}  // namespace perfbench

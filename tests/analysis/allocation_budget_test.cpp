// Allocation-budget regression gate (DESIGN.md §15): the zero-copy ingest
// hot path — mmap'd frame views through decode, flow tracking, in-order
// reassembly and APDU parse into arena-backed records — must stay
// allocation-light. This binary replaces global operator new with a
// counting shim and pins an upper bound on heap allocations per 10k
// in-order packets. A copy sneaking back into the hot path (payload
// vectors, per-packet buffers, per-record heap nodes) shows up here as a
// per-packet allocation rate long before it shows up on a benchmark host.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "analysis/bandwidth.hpp"
#include "analysis/dataset.hpp"
#include "net/pcap.hpp"
#include "sim/capture.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Counting shim. Only the allocation count is observed; behavior is
// malloc/free exactly like the defaults it replaces. The nothrow forms are
// replaced too (std::stable_sort's buffer uses them): otherwise a sanitizer
// runtime's own nothrow new pairs with this shim's free-based delete.
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace uncharted::analysis {
namespace {

/// Ingests the in-order Y1 window and checks the steady-state half against
/// the heap-allocation budget; `sink` optionally rides the builder's decode.
void expect_in_order_ingest_under_budget(BandwidthAccumulator* sink) {
  // A clean (in-order, fault-free) capture: the zero-copy fast paths
  // should handle every packet. Long enough that steady state dominates
  // the first-touch allocations (flow entries, parser map nodes, arena
  // chunks, vector growth).
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(240.0));
  ASSERT_GE(capture.packets.size(), 20'000u);
  auto views = net::as_frame_views(capture.packets);

  CaptureDataset::Options options;
  options.mode = ParseMode::kReassembled;
  DatasetBuilder builder(options);
  builder.set_bandwidth_sink(sink);

  // Warm-up: first half establishes flows, parsers, and container
  // capacities. Measured: second half, the steady-state hot path.
  std::size_t half = views.size() / 2;
  builder.add_packets(std::span<const net::FrameView>(views).subspan(0, half));

  std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  builder.add_packets(std::span<const net::FrameView>(views).subspan(half));
  std::uint64_t spent = g_heap_allocs.load(std::memory_order_relaxed) - before;

  std::size_t measured_packets = views.size() - half;
  double per_10k = static_cast<double>(spent) * 10'000.0 /
                   static_cast<double>(measured_packets);

  std::cout << "[ MEASURED ] " << per_10k
            << " heap allocations per 10k in-order packets\n";

  // Budget: 2000 heap allocations per 10k in-order packets (0.2/packet).
  // The steady-state rate is far lower — the bound leaves headroom for
  // container regrowth landing inside the measured window — but a
  // per-packet copy (1.0+/packet) blows through it immediately.
  EXPECT_LT(per_10k, 2000.0)
      << "ingest hot path heap-allocation rate regressed: " << spent
      << " allocations over " << measured_packets << " in-order packets ("
      << per_10k << " per 10k)";

  // The records' parsed-ASDU storage must be arena-backed (not counted
  // per-record on the general heap).
  EXPECT_GT(builder.record_arena_bytes(), 0u);

  auto dataset = builder.finish();
  EXPECT_GT(dataset.stats().apdus, 0u);
}

TEST(AllocationBudget, InOrderIngestStaysUnderBudget) {
  expect_in_order_ingest_under_budget(nullptr);
}

TEST(AllocationBudget, BandwidthSinkAddsNoPerPacketAllocations) {
  // Bandwidth accounting on the builder's decode pass: flat per-protocol
  // state, so only new buckets and new connections allocate.
  BandwidthAccumulator sink;
  expect_in_order_ingest_under_budget(&sink);
  EXPECT_GT(sink.finish().total_packets.at(TapProtocol::kIec104), 0u);
}

TEST(AllocationBudget, ArenaBytesAccountedAndBounded) {
  // The arena's upstream heap footprint is what eviction governance
  // accounts; it must be visible, nonzero once records exist, and within
  // a small multiple of the live record payload (monotonic arenas waste
  // at most the unreached block tails).
  auto capture = sim::generate_capture(sim::CaptureConfig::y2(60.0));
  auto views = net::as_frame_views(capture.packets);

  CaptureDataset::Options options;
  options.mode = ParseMode::kReassembled;
  DatasetBuilder builder(options);
  builder.add_packets(views);

  std::size_t arena_bytes = builder.record_arena_bytes();
  EXPECT_GT(arena_bytes, 0u);
  // Sanity ceiling: parsed objects are a fraction of the raw capture.
  std::size_t wire_bytes = 0;
  for (const auto& v : views) wire_bytes += v.data.size();
  EXPECT_LT(arena_bytes, wire_bytes * 4);
}

}  // namespace
}  // namespace uncharted::analysis

// The checkpoint container: atomic replace, generation rotation, and
// rejection of every torn-write artifact a crash can leave behind.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/streaming.hpp"
#include "faultinject/sysfault.hpp"
#include "sim/capture.hpp"

namespace uncharted::core {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "checkpoint_test_" + name;
}

std::vector<std::uint8_t> payload_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> out;
  for (int b : bytes) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

void write_raw(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> read_raw(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(Checkpoint, RoundTripsPayload) {
  auto path = temp_path("roundtrip.ckpt");
  std::filesystem::remove(path);
  auto payload = payload_of({1, 2, 3, 4, 5, 0xff, 0});
  ASSERT_TRUE(write_checkpoint_file(path, payload).ok());
  auto back = read_checkpoint_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

TEST(Checkpoint, EmptyPayloadIsValid) {
  auto path = temp_path("empty.ckpt");
  std::filesystem::remove(path);
  ASSERT_TRUE(write_checkpoint_file(path, {}).ok());
  auto back = read_checkpoint_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(Checkpoint, SecondWriteRotatesPreviousGeneration) {
  auto path = temp_path("rotate.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  auto first = payload_of({10, 11, 12});
  auto second = payload_of({20, 21});
  ASSERT_TRUE(write_checkpoint_file(path, first).ok());
  ASSERT_TRUE(write_checkpoint_file(path, second).ok());

  auto primary = read_checkpoint_file(path);
  auto rotated = read_checkpoint_file(path + ".1");
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(rotated.ok());
  EXPECT_EQ(*primary, second);
  EXPECT_EQ(*rotated, first);
}

TEST(Checkpoint, MissingFileIsCleanError) {
  auto missing = temp_path("nonexistent.ckpt");
  std::filesystem::remove(missing);
  auto r = read_checkpoint_file(missing);
  EXPECT_FALSE(r.ok());
}

TEST(Checkpoint, TruncatedFileRejected) {
  auto path = temp_path("truncated.ckpt");
  std::filesystem::remove(path);
  ASSERT_TRUE(write_checkpoint_file(path, payload_of({1, 2, 3, 4, 5, 6})).ok());
  auto bytes = read_raw(path);
  ASSERT_GT(bytes.size(), 4u);
  // Cut mid-payload: the crash-during-write shape rename protects against,
  // simulated directly.
  bytes.resize(bytes.size() - 3);
  write_raw(path, bytes);
  auto r = read_checkpoint_file(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "checkpoint-truncated");
}

TEST(Checkpoint, CorruptedPayloadFailsCrc) {
  auto path = temp_path("crc.ckpt");
  std::filesystem::remove(path);
  ASSERT_TRUE(write_checkpoint_file(path, payload_of({1, 2, 3, 4, 5, 6})).ok());
  auto bytes = read_raw(path);
  bytes.back() ^= 0x40;  // flip a payload bit; header stays plausible
  write_raw(path, bytes);
  auto r = read_checkpoint_file(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "checkpoint-crc");
}

TEST(Checkpoint, WrongMagicRejected) {
  auto path = temp_path("magic.ckpt");
  write_raw(path, payload_of({'P', 'K', 0x03, 0x04, 0, 0, 0, 0, 0, 0, 0, 0,
                              0, 0, 0, 0, 0, 0, 0, 0}));
  auto r = read_checkpoint_file(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "checkpoint-magic");
}

TEST(Checkpoint, LatestFallsBackToRotationWhenPrimaryCorrupt) {
  auto path = temp_path("fallback.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  auto older = payload_of({7, 7, 7});
  ASSERT_TRUE(write_checkpoint_file(path, older).ok());
  ASSERT_TRUE(write_checkpoint_file(path, payload_of({8, 8, 8})).ok());

  auto bytes = read_raw(path);
  bytes.resize(6);  // destroy the primary generation
  write_raw(path, bytes);

  auto r = read_latest_checkpoint(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, older);
}

TEST(Checkpoint, LatestFailsWhenBothGenerationsUnusable) {
  auto path = temp_path("allbad.ckpt");
  write_raw(path, payload_of({0xde, 0xad}));
  write_raw(path + ".1", payload_of({0xbe, 0xef}));
  auto r = read_latest_checkpoint(path);
  EXPECT_FALSE(r.ok());
}

// --- Torn-write hardening: every on-disk state a killed writer can leave ---

TEST(Checkpoint, TornPrimaryNeverRotatedOverValidFallback) {
  // A writer torn mid-overwrite leaves a corrupt primary next to a valid
  // `.1`. The next successful write must NOT rotate the corrupt primary
  // over the last good generation.
  auto path = temp_path("torn_rotate.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  auto gen1 = payload_of({1, 1, 1});
  auto gen3 = payload_of({3, 3, 3});
  ASSERT_TRUE(write_checkpoint_file(path, gen1).ok());
  ASSERT_TRUE(write_checkpoint_file(path, payload_of({2, 2, 2})).ok());
  // .1 now holds gen1. Tear the primary (gen2).
  auto bytes = read_raw(path);
  bytes.resize(7);
  write_raw(path, bytes);

  ASSERT_TRUE(write_checkpoint_file(path, gen3).ok());
  auto primary = read_checkpoint_file(path);
  auto fallback = read_checkpoint_file(path + ".1");
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*primary, gen3);
  EXPECT_EQ(*fallback, gen1) << "torn primary was rotated over the good .1";
}

TEST(Checkpoint, ValidTornPrimaryStillRotatesNormally) {
  // When the primary is intact, rotation must keep working even though the
  // writer now validates before rotating.
  auto path = temp_path("still_rotates.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  auto gen1 = payload_of({1});
  auto gen2 = payload_of({2});
  ASSERT_TRUE(write_checkpoint_file(path, gen1).ok());
  ASSERT_TRUE(write_checkpoint_file(path, gen2).ok());
  auto rotated = read_checkpoint_file(path + ".1");
  ASSERT_TRUE(rotated.ok());
  EXPECT_EQ(*rotated, gen1);
}

TEST(Checkpoint, KilledBeforeRenameLeavesStaleTmpRestoreNeedsNoCleanup) {
  // Writer killed after writing `.tmp` but before the rename: a truncated
  // `.tmp` sits next to a valid `.1` and no primary. Restore must fall
  // back to `.1` with the stale `.tmp` still on disk, and the next write
  // must simply replace the stale `.tmp`.
  auto path = temp_path("stale_tmp.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  std::filesystem::remove(path + ".tmp");
  auto gen1 = payload_of({9, 9, 9});
  ASSERT_TRUE(write_checkpoint_file(path, gen1).ok());
  std::filesystem::rename(path, path + ".1");  // primary became the fallback
  write_raw(path + ".tmp", payload_of({0x55, 0x4e}));  // torn mid-header

  auto r = read_latest_checkpoint(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, gen1);

  auto gen2 = payload_of({10, 10});
  ASSERT_TRUE(write_checkpoint_file(path, gen2).ok());
  auto primary = read_checkpoint_file(path);
  ASSERT_TRUE(primary.ok());
  EXPECT_EQ(*primary, gen2);
}

TEST(Checkpoint, WriterKilledMidRotationSequenceIsRecoverable) {
  // Walk the writer's own sequence (write .tmp, rotate primary to .1,
  // rename .tmp to primary) and verify read_latest_checkpoint() recovers
  // a full generation at every intermediate state a SIGKILL can expose.
  auto path = temp_path("kill_states.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  std::filesystem::remove(path + ".tmp");
  auto gen1 = payload_of({1, 2, 3});
  ASSERT_TRUE(write_checkpoint_file(path, gen1).ok());

  // State 1: killed mid-.tmp write (torn tmp, intact primary).
  write_raw(path + ".tmp", payload_of({0x55}));
  auto r1 = read_latest_checkpoint(path);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, gen1);

  // State 2: killed after rotating primary to .1, before the final rename
  // (valid complete .tmp, valid .1, no primary). The previous generation
  // is the newest *visible* one and must win.
  std::filesystem::remove(path + ".tmp");
  auto gen2 = payload_of({4, 5, 6});
  ASSERT_TRUE(write_checkpoint_file(path, gen2).ok());  // .1 = gen1
  std::filesystem::rename(path, path + ".0-being-renamed");
  auto r2 = read_latest_checkpoint(path);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, gen1);
  std::filesystem::rename(path + ".0-being-renamed", path);

  // State 3: back to normal, the full sequence completes.
  auto r3 = read_latest_checkpoint(path);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, gen2);
}

// A CRC-valid payload can still be foreign or hostile: an out-of-range
// bandwidth protocol tag must fail the load, and restore must then start
// clean even though the builder section before it had already loaded.
TEST(Checkpoint, OutOfRangeBandwidthTagFallsBackToFreshStart) {
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(30.0));
  std::vector<net::CapturedPacket> packets(capture.packets.begin(),
                                           capture.packets.begin() + 500);
  StreamingOptions options;
  options.analyze.threads = 1;

  // Hand-built payload: single-engine tag and a real builder section (500
  // packets in), then a bandwidth section whose protocol is `tag`.
  auto payload_with_tag = [&](std::uint8_t tag) {
    analysis::DatasetBuilder builder;
    for (const auto& pkt : packets) builder.add_packet(pkt);
    ByteWriter w;
    w.u8(1);  // the single-builder engine tag
    EXPECT_TRUE(builder.save(w).ok());
    w.f64le(10.0);  // bucket width
    w.u8(1);        // start seen
    w.u64le(packets.front().ts);
    w.u32le(1);  // one series of one bucket
    w.u8(tag);
    w.u32le(1);
    w.f64le(0.0);
    w.u64le(600);
    w.u64le(10);
    w.u32le(1);  // total bytes
    w.u8(tag);
    w.u64le(600);
    w.u32le(1);  // total packets
    w.u8(tag);
    w.u64le(10);
    w.u32le(0);  // no connections
    w.u8(0);     // no previous IEC 104 timestamp
    RunningStats{}.save(w);
    auto bytes = w.view();
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
  };

  auto bad = payload_with_tag(7);
  {
    StreamingAnalyzer analyzer(options);
    ByteReader r(bad);
    auto st = analyzer.load_state(r);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().str().find("out of range"), std::string::npos);
  }

  auto path = temp_path("bad_bandwidth_tag.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  StreamingOptions restoring = options;
  restoring.checkpoint_path = path;

  // Control: the same payload with a valid tag restores.
  ASSERT_TRUE(write_checkpoint_file(path, payload_with_tag(0)).ok());
  {
    StreamingAnalyzer analyzer(restoring);
    ASSERT_TRUE(analyzer.try_restore());
    EXPECT_EQ(analyzer.packets_consumed(), packets.size());
  }

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  ASSERT_TRUE(write_checkpoint_file(path, bad).ok());
  StreamingAnalyzer restored(restoring);
  EXPECT_FALSE(restored.try_restore());
  EXPECT_EQ(restored.packets_consumed(), 0u);
  restored.add_packets(packets);
  StreamingAnalyzer fresh(options);
  fresh.add_packets(packets);
  EXPECT_EQ(render_report(restored.finalize(), {}),
            render_report(fresh.finalize(), {}));

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
}

// --- Storage-fault durability: the writer's syscall contract ------------

/// Wraps the real kernel, records the write path's op sequence, and fails
/// scripted calls — the deterministic half of the chaos tests (FaultySysOps
/// is the probabilistic half).
class RecordingSysOps final : public faultinject::SysOps {
 public:
  std::vector<std::string> events;
  bool fail_writes_enospc = false;
  bool fail_fsync_eio = false;
  std::string fail_rename_to;  // fail renames whose target is this path

  ssize_t read(int fd, void* buf, std::size_t n) override {
    return real().read(fd, buf, n);
  }
  ssize_t write(int fd, const void* buf, std::size_t n) override {
    if (fail_writes_enospc) {
      events.push_back("write-enospc:" + name_of(fd));
      errno = ENOSPC;
      return -1;
    }
    events.push_back("write:" + name_of(fd));
    return real().write(fd, buf, n);
  }
  ssize_t recv(int fd, void* buf, std::size_t n, int flags) override {
    return real().recv(fd, buf, n, flags);
  }
  ssize_t send(int fd, const void* buf, std::size_t n, int flags) override {
    return real().send(fd, buf, n, flags);
  }
  int accept(int fd, sockaddr* addr, socklen_t* len) override {
    return real().accept(fd, addr, len);
  }
  int poll_wait(pollfd* fds, nfds_t nfds, int timeout_ms) override {
    return real().poll_wait(fds, nfds, timeout_ms);
  }
#if UNCHARTED_SYSFAULT_HAVE_EPOLL
  int epoll_wait(int epfd, epoll_event* evs, int max, int timeout_ms) override {
    return real().epoll_wait(epfd, evs, max, timeout_ms);
  }
#endif
  int open(const char* path, int flags, unsigned mode) override {
    const int fd = real().open(path, flags, mode);
    if (fd >= 0) names_[fd] = std::filesystem::path(path).filename().string();
    events.push_back("open:" + std::string(path));
    return fd;
  }
  int close(int fd) override {
    events.push_back("close:" + name_of(fd));
    names_.erase(fd);
    return real().close(fd);
  }
  int fsync(int fd) override {
    if (fail_fsync_eio) {
      events.push_back("fsync-eio:" + name_of(fd));
      errno = EIO;
      return -1;
    }
    events.push_back("fsync:" + name_of(fd));
    return real().fsync(fd);
  }
  int rename(const char* from, const char* to) override {
    if (!fail_rename_to.empty() && fail_rename_to == to) {
      events.push_back("rename-eio");
      errno = EIO;
      return -1;
    }
    events.push_back("rename:" + std::filesystem::path(from).filename().string() +
                     "->" + std::filesystem::path(to).filename().string());
    return real().rename(from, to);
  }

 private:
  static faultinject::SysOps& real() { return faultinject::real_sys_ops(); }
  std::string name_of(int fd) const {
    auto it = names_.find(fd);
    return it != names_.end() ? it->second : "fd" + std::to_string(fd);
  }
  std::map<int, std::string> names_;
};

std::size_t index_of_prefix(const std::vector<std::string>& events,
                            const std::string& prefix) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].rfind(prefix, 0) == 0) return i;
  }
  return events.size();
}

TEST(CheckpointDurability, TmpIsFsyncedBeforeRenameAndDirAfter) {
  auto path = temp_path("order.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  RecordingSysOps sys;
  ASSERT_TRUE(write_checkpoint_file(path, payload_of({1, 2, 3}), &sys).ok());

  const std::string tmp_name =
      std::filesystem::path(path + ".tmp").filename().string();
  const std::size_t tmp_fsync = index_of_prefix(sys.events, "fsync:" + tmp_name);
  const std::size_t rename_in = index_of_prefix(sys.events, "rename:");
  ASSERT_LT(tmp_fsync, sys.events.size()) << "tmp file was never fsynced";
  ASSERT_LT(rename_in, sys.events.size());
  EXPECT_LT(tmp_fsync, rename_in)
      << "rename happened before the tmp fsync — a crash could expose a "
         "torn file under the durable name";

  // The parent directory is fsynced after the rename (making it durable).
  bool dir_fsync_after_rename = false;
  for (std::size_t i = rename_in + 1; i < sys.events.size(); ++i) {
    if (sys.events[i].rfind("fsync:", 0) == 0) dir_fsync_after_rename = true;
  }
  EXPECT_TRUE(dir_fsync_after_rename);
}

TEST(CheckpointDurability, FailedFsyncKeepsPreviousGenerationAndRemovesTmp) {
  auto path = temp_path("fsyncfail.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  auto gen1 = payload_of({1, 1});
  ASSERT_TRUE(write_checkpoint_file(path, gen1).ok());

  RecordingSysOps sys;
  sys.fail_fsync_eio = true;
  auto st = write_checkpoint_file(path, payload_of({2, 2}), &sys);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "checkpoint-fsync");

  auto back = read_latest_checkpoint(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, gen1) << "failed fsync corrupted the visible generation";
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "un-durable tmp left behind where a restart could trust it";
}

TEST(CheckpointDurability, EnospcMidWriteLeavesPreviousRestorable) {
  auto path = temp_path("enospc.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  auto gen1 = payload_of({7, 8, 9});
  ASSERT_TRUE(write_checkpoint_file(path, gen1).ok());

  RecordingSysOps sys;
  sys.fail_writes_enospc = true;
  auto st = write_checkpoint_file(path, payload_of({10}), &sys);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "checkpoint-write");

  auto back = read_latest_checkpoint(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, gen1);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // The disk comes back: the next write recovers without cleanup.
  auto gen2 = payload_of({11, 12});
  ASSERT_TRUE(write_checkpoint_file(path, gen2).ok());
  auto now = read_latest_checkpoint(path);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(*now, gen2);
}

TEST(CheckpointDurability, TornRenameKeepsLastGoodGenerationVisible) {
  auto path = temp_path("tornrename.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  std::filesystem::remove(path + ".tmp");
  auto gen1 = payload_of({1, 2});
  ASSERT_TRUE(write_checkpoint_file(path, gen1).ok());

  RecordingSysOps sys;
  sys.fail_rename_to = path;  // the final rename into the durable name
  auto st = write_checkpoint_file(path, payload_of({3, 4}), &sys);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "checkpoint-rename");

  // Rotation already moved gen1 to `.1`; the torn rename must leave it
  // restorable (tmp may remain — it is not a durable name).
  auto back = read_latest_checkpoint(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, gen1);

  // Healthy disk again: the writer replaces the stale tmp and completes.
  auto gen2 = payload_of({5, 6});
  ASSERT_TRUE(write_checkpoint_file(path, gen2).ok());
  auto now = read_latest_checkpoint(path);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(*now, gen2);
}

TEST(CheckpointDurability, FaultySysOpsStormEventuallySucceedsAndNeverTears) {
  // Probabilistic sweep: under a heavy seeded storage-fault plan, every
  // write either fails cleanly (previous generation restorable) or
  // succeeds; after enough retries one write lands. No intermediate state
  // may ever make read_latest_checkpoint fail once a first write existed.
  auto path = temp_path("storm.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  std::filesystem::remove(path + ".tmp");
  ASSERT_TRUE(write_checkpoint_file(path, payload_of({0})).ok());

  faultinject::FaultySysOps sys(faultinject::SysFaultPlan::storage(0.4, 99));
  int successes = 0;
  for (int i = 1; i <= 60; ++i) {
    auto payload = payload_of({i});
    auto st = write_checkpoint_file(path, payload, &sys);
    auto visible = read_latest_checkpoint(path);
    ASSERT_TRUE(visible.ok())
        << "iteration " << i << ": no restorable generation after "
        << (st.ok() ? "success" : st.error().str());
    if (st.ok()) {
      ++successes;
      EXPECT_EQ(*visible, payload);
    }
  }
  EXPECT_GT(successes, 0) << "storage plan at 0.4 starved every write";
  EXPECT_GT(sys.log().total(), 0u);
}

}  // namespace
}  // namespace uncharted::core

// The durable-I/O module: atomic publication under injected faults, the
// exact crash points one publication passes, and the CRC frame codec.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "faultline/durable.hpp"

namespace {

namespace fl = hpas::faultline;
namespace fs = std::filesystem;

class DurableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fl::disarm();
    dir_ = fs::temp_directory_path() /
           ("hpas-durable-" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fl::disarm();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

TEST_F(DurableTest, WriteFileAtomicPublishesExactBytes) {
  const std::string target = path("out.csv");
  const std::string bytes("a,b\n1,2\n\0tail", 13);
  fl::write_file_atomic(fl::Domain::kJournal, target, bytes);
  EXPECT_EQ(fl::read_file(target), bytes);
  EXPECT_FALSE(fs::exists(target + ".tmp"));

  // Replacing is atomic too, and large appends stream through the buffer.
  std::string big(3u << 20, 'x');
  big.back() = 'y';
  {
    fl::AtomicFile file(fl::Domain::kJournal, target);
    file.append(big.substr(0, 100));
    file.append(big.substr(100));
    file.commit();
  }
  EXPECT_EQ(fl::read_file(target), big);
}

TEST_F(DurableTest, ReadFileAndLoadJsonFile) {
  EXPECT_FALSE(fl::read_file(path("missing")).has_value());
  try {
    (void)fl::load_json_file(path("missing.json"));
    FAIL() << "expected SystemError";
  } catch (const hpas::SystemError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot read"), std::string::npos);
  }
  fl::write_file_atomic(fl::Domain::kJournal, path("doc.json"),
                        R"({"name": "grid", "n": 3})");
  const hpas::Json doc = fl::load_json_file(path("doc.json"));
  EXPECT_EQ(doc.string_or("name", ""), "grid");
  EXPECT_EQ(doc.number_or("n", 0), 3);
}

TEST_F(DurableTest, InjectedFailureLeavesTargetUntouchedAndNoTmp) {
  const std::string target = path("target.json");
  for (const fl::Op op : {fl::Op::kWrite, fl::Op::kFsync, fl::Op::kRename}) {
    SCOPED_TRACE(fl::op_name(op));
    fl::write_file_atomic(fl::Domain::kJournal, target, "old bytes");
    fl::FaultSchedule schedule;
    schedule.rules.push_back({.domain = fl::Domain::kJournal,
                              .op = op,
                              .kind = fl::FaultKind::kErrno,
                              .err = op == fl::Op::kWrite ? ENOSPC : EIO,
                              .at = 0});
    fl::arm(schedule);
    EXPECT_THROW(
        fl::write_file_atomic(fl::Domain::kJournal, target, "new bytes"),
        hpas::SystemError);
    EXPECT_EQ(fl::stats().injected, 1u);
    fl::disarm();
    EXPECT_EQ(fl::read_file(target), "old bytes");
    EXPECT_FALSE(fs::exists(target + ".tmp"));
  }
}

TEST_F(DurableTest, UncommittedAtomicFileRemovesItsTmp) {
  const std::string target = path("never.csv");
  {
    fl::AtomicFile file(fl::Domain::kJournal, target);
    file.append("partial");
    EXPECT_TRUE(fs::exists(target + ".tmp"));
  }
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST_F(DurableTest, ShortWritesAndEintrLeaveBytesUnchanged) {
  fl::FaultSchedule schedule;
  // Every third write call fails with EINTR, every other one transfers
  // at most 3 bytes.
  schedule.rules.push_back({.domain = fl::Domain::kCache,
                            .op = fl::Op::kWrite,
                            .kind = fl::FaultKind::kErrno,
                            .err = EINTR,
                            .every = 3});
  schedule.rules.push_back({.domain = fl::Domain::kCache,
                            .op = fl::Op::kWrite,
                            .kind = fl::FaultKind::kShortWrite,
                            .bytes = 3,
                            .every = 1});
  fl::arm(schedule);
  const std::string bytes = "the quick brown fox jumps over the lazy dog";
  fl::write_file_atomic(fl::Domain::kCache, path("spool.csv"), bytes);
  EXPECT_GT(fl::stats().injected, 5u);
  fl::disarm();
  EXPECT_EQ(fl::read_file(path("spool.csv")), bytes);
}

TEST_F(DurableTest, WriteFileAtomicPassesFiveCrashPoints) {
  const std::string target = path("crash.csv");
  fl::arm(fl::FaultSchedule{});
  fl::write_file_atomic(fl::Domain::kJournal, target, "new");
  // write x2 (before the call, mid-transfer), fsync, rename, directory
  // fsync.
  ASSERT_EQ(fl::crash_points_passed(), 5u);
  fl::disarm();

  // Dying at any of them leaves the target whole: old bytes up to and
  // including the point before the rename, new bytes after it.
  for (std::int64_t k = 0; k <= 5; ++k) {
    fl::write_file_atomic(fl::Domain::kJournal, target, "old");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      fl::FaultSchedule schedule;
      schedule.crash_at = k;
      fl::arm(schedule);
      try {
        fl::write_file_atomic(fl::Domain::kJournal, target, "new");
      } catch (...) {
        ::_exit(1);
      }
      ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "crash point " << k;
    EXPECT_EQ(WEXITSTATUS(status), k < 5 ? 137 : 0) << "crash point " << k;
    EXPECT_EQ(fl::read_file(target), k < 4 ? "old" : "new")
        << "crash point " << k;
  }
}

TEST_F(DurableTest, FrameBytesAreLengthPayloadCrc) {
  std::string bytes;
  fl::append_frame(bytes, "abc");
  // len = 3, little-endian; CRC32("abc") = 0x352441c2, little-endian.
  EXPECT_EQ(bytes, std::string("\x03\x00\x00\x00"
                               "abc"
                               "\xc2\x41\x24\x35",
                               11));
}

TEST_F(DurableTest, CheckFrameReportsEachDamageKind) {
  std::string bytes;
  fl::append_frame(bytes, "first");
  const std::size_t second = bytes.size();
  fl::append_frame(bytes, "second payload");

  const fl::FrameView a = fl::check_frame(bytes, 0, 64);
  EXPECT_EQ(a.status, fl::FrameStatus::kOk);
  EXPECT_EQ(a.payload, "first");
  EXPECT_EQ(a.next, second);
  const fl::FrameView b = fl::check_frame(bytes, second, 64);
  EXPECT_EQ(b.status, fl::FrameStatus::kOk);
  EXPECT_EQ(b.payload, "second payload");
  EXPECT_EQ(b.next, bytes.size());

  EXPECT_EQ(fl::check_frame(bytes, bytes.size(), 64).status,
            fl::FrameStatus::kTornLength);
  EXPECT_EQ(fl::check_frame(bytes.substr(0, second + 3), second, 64).status,
            fl::FrameStatus::kTornLength);
  EXPECT_EQ(fl::check_frame(bytes, second, 13).status,
            fl::FrameStatus::kImplausibleLength);
  EXPECT_EQ(fl::check_frame(bytes.substr(0, bytes.size() - 1), second, 64)
                .status,
            fl::FrameStatus::kTornPayload);
  std::string flipped = bytes;
  flipped[second + 6] ^= 0x20;
  const fl::FrameView bad = fl::check_frame(flipped, second, 64);
  EXPECT_EQ(bad.status, fl::FrameStatus::kBadCrc);
  EXPECT_EQ(bad.next, bytes.size());

  for (const fl::FrameStatus status :
       {fl::FrameStatus::kTornLength, fl::FrameStatus::kImplausibleLength,
        fl::FrameStatus::kTornPayload, fl::FrameStatus::kBadCrc})
    EXPECT_STRNE(fl::frame_damage(status), "");
}

}  // namespace

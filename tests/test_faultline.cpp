// The faultline battery: schedules are deterministic and byte-stable,
// injected faults behave exactly as specified on the journal edge, crash
// points enumerate the write sequence, and the retry helpers (Backoff,
// accept_backoff_ms) are seedable and bounded.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "faultline/faultline.hpp"
#include "runner/journal.hpp"
#include "server/server.hpp"

namespace {

namespace fl = hpas::faultline;
using hpas::runner::JournalRecord;
using hpas::runner::JournalStatus;
using hpas::runner::JournalWriter;
using hpas::runner::read_journal;

/// Every test leaves the process-wide engine disarmed: a leaked schedule
/// would inject into unrelated tests in this binary.
class FaultlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fl::disarm();
    base_ = std::filesystem::temp_directory_path() /
            ("hpas-faultline-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override {
    fl::disarm();
    std::filesystem::remove_all(base_);
  }

  std::string path(const std::string& name) const {
    return (base_ / name).string();
  }

  std::filesystem::path base_;
};

JournalRecord record(std::uint64_t key, const std::string& name) {
  JournalRecord rec;
  rec.key_hash = key;
  rec.status = JournalStatus::kDone;
  rec.name = name;
  rec.output = name + ".csv";
  rec.csv_crc = 0x12345678;
  return rec;
}

const char* kSchedule = R"({
  "seed": 7,
  "crash_at": -1,
  "crash_domains": ["journal", "cache"],
  "rules": [
    {"domain": "journal", "op": "write", "fault": "short_write",
     "bytes": 5, "every": 2},
    {"domain": "cache", "op": "fsync", "fault": "errno", "errno": "EIO",
     "at": 3},
    {"domain": "socket", "op": "read", "fault": "stall", "stall_ms": 1.5,
     "prob": 0.25, "count": 4}
  ]
})";

TEST_F(FaultlineTest, ScheduleDumpIsAByteStableFixpoint) {
  const fl::FaultSchedule first = fl::FaultSchedule::parse(kSchedule);
  const std::string dump1 = first.dump();
  const fl::FaultSchedule second = fl::FaultSchedule::parse(dump1);
  const std::string dump2 = second.dump();
  EXPECT_EQ(dump1, dump2);
  // And the canonical form is stable through a third generation.
  EXPECT_EQ(dump2, fl::FaultSchedule::parse(dump2).dump());
}

TEST_F(FaultlineTest, ScheduleRoundTripPreservesEveryField) {
  const fl::FaultSchedule s =
      fl::FaultSchedule::parse(fl::FaultSchedule::parse(kSchedule).dump());
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.crash_at, -1);
  ASSERT_EQ(s.rules.size(), 3u);
  EXPECT_EQ(s.rules[0].kind, fl::FaultKind::kShortWrite);
  EXPECT_EQ(s.rules[0].bytes, 5u);
  EXPECT_EQ(s.rules[0].every, 2);
  EXPECT_EQ(s.rules[1].kind, fl::FaultKind::kErrno);
  EXPECT_EQ(s.rules[1].err, EIO);
  EXPECT_EQ(s.rules[1].at, 3);
  EXPECT_EQ(s.rules[1].count, 1);  // `at` rules default to firing once
  EXPECT_EQ(s.rules[2].kind, fl::FaultKind::kStall);
  EXPECT_DOUBLE_EQ(s.rules[2].prob, 0.25);
  EXPECT_EQ(s.rules[2].count, 4);
}

TEST_F(FaultlineTest, RuleNeedsExactlyOneTrigger) {
  EXPECT_THROW(fl::FaultSchedule::parse(
                   R"({"rules":[{"domain":"journal","op":"write",
                       "fault":"crash"}]})"),
               hpas::ConfigError);
  EXPECT_THROW(fl::FaultSchedule::parse(
                   R"({"rules":[{"domain":"journal","op":"write",
                       "fault":"crash","at":1,"every":2}]})"),
               hpas::ConfigError);
}

TEST_F(FaultlineTest, UnarmedWrappersPassThrough) {
  EXPECT_FALSE(fl::armed());
  const std::string journal = path("plain.journal");
  {
    JournalWriter writer(journal, true);
    writer.append(record(1, "plain"));
  }
  const auto got = read_journal(journal);
  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_EQ(got.records[0].name, "plain");
  EXPECT_EQ(fl::stats().calls, 0u);
}

TEST_F(FaultlineTest, ShortWritesExerciseRetryLoopsWithoutChangingBytes) {
  const std::string plain = path("plain.journal");
  {
    JournalWriter writer(plain, true);
    writer.append(record(1, "alpha"));
    writer.append(record(2, "beta"));
  }

  // Cap every journal write to 3 bytes: the writer's retry loop must
  // still land byte-identical content, just in many more calls.
  fl::FaultSchedule schedule;
  schedule.rules.push_back({.domain = fl::Domain::kJournal,
                            .op = fl::Op::kWrite,
                            .kind = fl::FaultKind::kShortWrite,
                            .bytes = 3,
                            .every = 1});
  fl::arm(schedule);
  const std::string faulted = path("faulted.journal");
  {
    JournalWriter writer(faulted, true);
    writer.append(record(1, "alpha"));
    writer.append(record(2, "beta"));
  }
  EXPECT_GT(fl::stats().injected, 0u);
  fl::disarm();

  std::ifstream a(plain, std::ios::binary), b(faulted, std::ios::binary);
  std::stringstream abuf, bbuf;
  abuf << a.rdbuf();
  bbuf << b.rdbuf();
  EXPECT_EQ(abuf.str(), bbuf.str());
}

TEST_F(FaultlineTest, InjectedErrnoFailsTheJournalAppend) {
  fl::FaultSchedule schedule;
  schedule.rules.push_back({.domain = fl::Domain::kJournal,
                            .op = fl::Op::kWrite,
                            .kind = fl::FaultKind::kErrno,
                            .err = ENOSPC,
                            .at = 1});  // header is write #0
  fl::arm(schedule);
  JournalWriter writer(path("enospc.journal"), true);
  EXPECT_THROW(writer.append(record(1, "doomed")), hpas::SystemError);
}

TEST_F(FaultlineTest, InjectedFsyncFailureSurfaces) {
  fl::FaultSchedule schedule;
  schedule.rules.push_back({.domain = fl::Domain::kJournal,
                            .op = fl::Op::kFsync,
                            .kind = fl::FaultKind::kErrno,
                            .err = EIO,
                            .at = 2});  // header #0, its directory #1
  fl::arm(schedule);
  JournalWriter writer(path("eio.journal"), true);
  EXPECT_THROW(writer.append(record(1, "doomed")), hpas::SystemError);
}

TEST_F(FaultlineTest, HeaderFsyncFailureSurfaces) {
  fl::FaultSchedule schedule;
  schedule.rules.push_back({.domain = fl::Domain::kJournal,
                            .op = fl::Op::kFsync,
                            .kind = fl::FaultKind::kErrno,
                            .err = EIO,
                            .at = 0});  // the new header's fsync
  fl::arm(schedule);
  EXPECT_THROW({ JournalWriter writer(path("header-eio.journal"), true); },
               hpas::SystemError);
  EXPECT_EQ(fl::stats().injected, 1u);
}

TEST_F(FaultlineTest, EintrStormIsBoundedByCountAndTheWriteSucceeds) {
  fl::FaultSchedule schedule;
  schedule.rules.push_back({.domain = fl::Domain::kJournal,
                            .op = fl::Op::kWrite,
                            .kind = fl::FaultKind::kErrno,
                            .err = EINTR,
                            .every = 1,
                            .count = 25});
  fl::arm(schedule);
  const std::string journal = path("eintr.journal");
  {
    JournalWriter writer(journal, true);
    writer.append(record(1, "stormy"));
  }
  EXPECT_EQ(fl::stats().injected, 25u);
  fl::disarm();
  const auto got = read_journal(journal);
  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_EQ(got.records[0].name, "stormy");
}

TEST_F(FaultlineTest, InjectionLogIsByteEqualAcrossIdenticalRuns) {
  const fl::FaultSchedule schedule = fl::FaultSchedule::parse(R"({
    "seed": 99,
    "rules": [
      {"domain": "journal", "op": "write", "fault": "short_write",
       "bytes": 4, "prob": 0.5}
    ]
  })");

  auto run_once = [&] {
    fl::arm(schedule);
    JournalWriter writer(path("log.journal"), true);
    writer.append(record(1, "one"));
    writer.append(record(2, "two"));
    writer.append(record(3, "three"));
    auto log = fl::injection_log();
    fl::disarm();
    return log;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(FaultlineTest, InjectionLogLinesNameTheEdgeAndFault) {
  fl::FaultSchedule schedule;
  schedule.rules.push_back({.domain = fl::Domain::kJournal,
                            .op = fl::Op::kWrite,
                            .kind = fl::FaultKind::kShortWrite,
                            .bytes = 5,
                            .at = 3});
  fl::arm(schedule);
  JournalWriter writer(path("named.journal"), true);
  writer.append(record(1, "a"));
  writer.append(record(2, "b"));
  writer.append(record(3, "c"));
  const auto log = fl::injection_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "journal/write#3 short_write bytes=5");
}

TEST_F(FaultlineTest, CrashPointsCountTwoPerWriteOnePerFsync) {
  fl::FaultSchedule schedule;  // no rules, default crash domains
  fl::arm(schedule);
  {
    JournalWriter writer(path("count.journal"), true);
    writer.append(record(1, "counted"));
  }
  // Header: write + fsync + directory fsync = 4 points; one record:
  // write + fsync = 3.
  EXPECT_EQ(fl::crash_points_passed(), 7u);
}

TEST_F(FaultlineTest, CrashDomainsMaskExcludesOtherEdges) {
  fl::FaultSchedule schedule;
  schedule.crash_domains = 1u << static_cast<unsigned>(fl::Domain::kCache);
  fl::arm(schedule);
  {
    JournalWriter writer(path("masked.journal"), true);
    writer.append(record(1, "masked"));
  }
  EXPECT_EQ(fl::crash_points_passed(), 0u);
}

TEST_F(FaultlineTest, TornCrashKillsTheProcessMidWrite) {
  const std::string journal = path("torn.journal");
  // A full single-record journal for reference.
  {
    JournalWriter writer(journal, true);
    writer.append(record(1, "torn"));
  }
  const auto whole = std::filesystem::file_size(journal);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die mid-way through the record frame (journal write #1),
    // having transferred only 4 bytes of it.
    fl::FaultSchedule schedule;
    schedule.rules.push_back({.domain = fl::Domain::kJournal,
                              .op = fl::Op::kWrite,
                              .kind = fl::FaultKind::kTornCrash,
                              .bytes = 4,
                              .at = 1});
    fl::arm(schedule);
    JournalWriter writer(journal, true);
    writer.append(record(1, "torn"));
    ::_exit(0);  // unreachable: the fault kills us first
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137);

  // The file holds the header plus a 4-byte torn tail -- and the reader
  // treats that as the expected post-crash state, not an error.
  EXPECT_LT(std::filesystem::file_size(journal), whole);
  const auto got = read_journal(journal);
  EXPECT_EQ(got.records.size(), 0u);
  EXPECT_EQ(got.dropped_frames, 1u);
}

TEST_F(FaultlineTest, CrashAtKillsAtTheChosenPoint) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    fl::FaultSchedule schedule;
    schedule.crash_at = 0;  // the very first journal write
    fl::arm(schedule);
    JournalWriter writer(path("crash0.journal"), true);
    ::_exit(0);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137);
  // Crash before the first write: nothing landed at all.
  EXPECT_FALSE(std::filesystem::exists(path("crash0.journal")) &&
               std::filesystem::file_size(path("crash0.journal")) > 0);
}

TEST(BackoffTest, SameSeedSameDelaySequence) {
  hpas::Backoff a(50.0, 2000.0, 11);
  hpas::Backoff b(50.0, 2000.0, 11);
  for (int i = 0; i < 12; ++i) EXPECT_DOUBLE_EQ(a.next_ms(), b.next_ms());
  EXPECT_EQ(a.attempts(), 12u);
}

TEST(BackoffTest, DelaysAreJitteredDoublingUnderTheCap) {
  hpas::Backoff backoff(50.0, 2000.0, 3);
  double ceiling = 50.0;
  for (int i = 0; i < 20; ++i) {
    const double d = backoff.next_ms();
    // Equal jitter: each delay lands in [ceiling/2, ceiling].
    EXPECT_GE(d, ceiling / 2.0);
    EXPECT_LE(d, ceiling);
    EXPECT_LE(d, 2000.0);
    ceiling = std::min(ceiling * 2.0, 2000.0);
  }
}

TEST(BackoffTest, ResetRestartsTheLadder) {
  hpas::Backoff a(50.0, 2000.0, 5);
  hpas::Backoff b(50.0, 2000.0, 5);
  (void)a.next_ms();
  (void)a.next_ms();
  a.reset();
  EXPECT_EQ(a.attempts(), 0u);
  (void)b.next_ms();
  (void)b.next_ms();
  // After reset the exponent restarts at the base even though the jitter
  // stream continues: the delay must be back under the base.
  EXPECT_LE(a.next_ms(), 50.0);
  EXPECT_GT(b.next_ms(), 50.0);
}

TEST(AcceptBackoffTest, FdExhaustionBacksOffOtherErrnosDoNot) {
  EXPECT_GT(hpas::server::accept_backoff_ms(EMFILE), 0);
  EXPECT_GT(hpas::server::accept_backoff_ms(ENFILE), 0);
  EXPECT_GT(hpas::server::accept_backoff_ms(ENOBUFS), 0);
  EXPECT_GT(hpas::server::accept_backoff_ms(ENOMEM), 0);
  EXPECT_EQ(hpas::server::accept_backoff_ms(EINTR), 0);
  EXPECT_EQ(hpas::server::accept_backoff_ms(ECONNABORTED), 0);
  EXPECT_EQ(hpas::server::accept_backoff_ms(0), 0);
}

}  // namespace

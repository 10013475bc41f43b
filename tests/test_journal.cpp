// Sweep-journal robustness: the resume contract depends on the journal
// reader returning exactly the durable prefix of a possibly-torn file --
// a crash mid-append must cost one record, never the journal.
#include "runner/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "runner/grid.hpp"

namespace {

using hpas::runner::JournalReadResult;
using hpas::runner::JournalRecord;
using hpas::runner::JournalStatus;
using hpas::runner::JournalWriter;
using hpas::runner::read_journal;
using hpas::runner::scenario_key_hash;
using hpas::runner::ScenarioSpec;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hpas-journal-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "sweep.journal").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string read_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_bytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  std::filesystem::path dir_;
  std::string path_;
};

JournalRecord sample_record(int i) {
  JournalRecord rec;
  rec.key_hash = std::uint64_t{0x1234'5678'9abc'def0} +
                 static_cast<std::uint64_t>(i);
  rec.status = static_cast<JournalStatus>(1 + i % 4);
  rec.name = "scenario-" + std::to_string(i);
  rec.output = rec.name + ".csv";
  rec.csv_crc = 0xdeadbeef ^ static_cast<std::uint32_t>(i);
  rec.trace_crc = static_cast<std::uint32_t>(i * 17);
  rec.trace_records = static_cast<std::uint64_t>(i) * 1000;
  rec.app_iterations = static_cast<std::uint64_t>(i) * 7;
  rec.app_elapsed_s = 1.5 * i;
  rec.wall_seconds = 0.25 * i;
  rec.error = i % 4 == 2 ? "boom: " + std::to_string(i) : "";
  return rec;
}

void expect_equal(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.key_hash, b.key_hash);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.csv_crc, b.csv_crc);
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.app_iterations, b.app_iterations);
  EXPECT_DOUBLE_EQ(a.app_elapsed_s, b.app_elapsed_s);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.has_objective, b.has_objective);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST_F(JournalTest, RoundTripsAllFields) {
  {
    JournalWriter writer(path_, /*truncate=*/true);
    for (int i = 0; i < 5; ++i) writer.append(sample_record(i));
  }
  const JournalReadResult read = read_journal(path_);
  EXPECT_TRUE(read.damage.empty()) << read.damage;
  EXPECT_EQ(read.dropped_frames, 0u);
  ASSERT_EQ(read.records.size(), 5u);
  for (int i = 0; i < 5; ++i)
    expect_equal(read.records[static_cast<std::size_t>(i)], sample_record(i));
}

TEST_F(JournalTest, MissingFileReadsEmpty) {
  const JournalReadResult read = read_journal(path_);
  EXPECT_TRUE(read.records.empty());
  EXPECT_TRUE(read.damage.empty());
}

TEST_F(JournalTest, EmptyJournalIsJustAHeader) {
  { JournalWriter writer(path_, /*truncate=*/true); }
  const JournalReadResult read = read_journal(path_);
  EXPECT_TRUE(read.records.empty());
  EXPECT_TRUE(read.damage.empty());
  EXPECT_EQ(read.dropped_frames, 0u);
}

TEST_F(JournalTest, AppendModeContinuesExistingJournal) {
  {
    JournalWriter writer(path_, /*truncate=*/true);
    writer.append(sample_record(0));
  }
  {
    JournalWriter writer(path_, /*truncate=*/false);
    writer.append(sample_record(1));
  }
  const JournalReadResult read = read_journal(path_);
  ASSERT_EQ(read.records.size(), 2u);
  expect_equal(read.records[1], sample_record(1));
}

TEST_F(JournalTest, TruncatedTailDropsOnlyTheLastRecord) {
  {
    JournalWriter writer(path_, /*truncate=*/true);
    for (int i = 0; i < 3; ++i) writer.append(sample_record(i));
  }
  const std::string bytes = read_bytes();
  // Chop mid-way into the last frame, as a crash during write() would.
  write_bytes(bytes.substr(0, bytes.size() - 7));

  const JournalReadResult read = read_journal(path_);
  EXPECT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.dropped_frames, 1u);
  EXPECT_FALSE(read.damage.empty());
  for (int i = 0; i < 2; ++i)
    expect_equal(read.records[static_cast<std::size_t>(i)], sample_record(i));
}

TEST_F(JournalTest, FlippedByteFailsTheCrc) {
  {
    JournalWriter writer(path_, /*truncate=*/true);
    for (int i = 0; i < 3; ++i) writer.append(sample_record(i));
  }
  std::string bytes = read_bytes();
  // Flip one payload byte in the *last* frame (well after the first two).
  bytes[bytes.size() - 12] = static_cast<char>(bytes[bytes.size() - 12] ^ 0x40);
  write_bytes(bytes);

  const JournalReadResult read = read_journal(path_);
  EXPECT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.dropped_frames, 1u);
  EXPECT_NE(read.damage.find("CRC"), std::string::npos) << read.damage;
}

TEST_F(JournalTest, GarbageHeaderIsReportedNotThrown) {
  write_bytes("not a journal at all");
  const JournalReadResult read = read_journal(path_);
  EXPECT_TRUE(read.records.empty());
  EXPECT_FALSE(read.damage.empty());
}

TEST_F(JournalTest, ImplausibleFrameLengthStopsReading) {
  {
    JournalWriter writer(path_, /*truncate=*/true);
    writer.append(sample_record(0));
  }
  std::string bytes = read_bytes();
  // Append a frame claiming a gigantic length.
  bytes += std::string("\xff\xff\xff\x7f", 4);
  write_bytes(bytes);
  const JournalReadResult read = read_journal(path_);
  EXPECT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.dropped_frames, 1u);
}

TEST_F(JournalTest, ObjectiveExtensionRoundTrips) {
  // `hpas search` stores the final objective in an optional trailing
  // extension of the record; sweep records never set it, so their frames
  // keep the exact legacy byte layout.
  JournalRecord with = sample_record(0);
  with.has_objective = true;
  with.objective = -3.75;
  JournalRecord without = sample_record(1);
  {
    JournalWriter writer(path_, /*truncate=*/true);
    writer.append(with);
    writer.append(without);
  }
  const JournalReadResult read = read_journal(path_);
  EXPECT_TRUE(read.damage.empty()) << read.damage;
  ASSERT_EQ(read.records.size(), 2u);
  expect_equal(read.records[0], with);
  EXPECT_TRUE(read.records[0].has_objective);
  EXPECT_DOUBLE_EQ(read.records[0].objective, -3.75);
  expect_equal(read.records[1], without);
  EXPECT_FALSE(read.records[1].has_objective);
  EXPECT_DOUBLE_EQ(read.records[1].objective, 0.0);
}

TEST_F(JournalTest, ObjectiveExtensionDoesNotChangeLegacyBytes) {
  // A record without the extension must encode to the same bytes as
  // before the field existed: byte-stability of sweep journals is part of
  // the crash-resume contract.
  {
    JournalWriter writer(path_, /*truncate=*/true);
    writer.append(sample_record(0));
  }
  const std::string legacy = read_bytes();
  {
    JournalRecord rec = sample_record(0);
    rec.has_objective = false;
    rec.objective = 123.0;  // must be ignored when the flag is off
    JournalWriter writer(path_, /*truncate=*/true);
    writer.append(rec);
  }
  EXPECT_EQ(read_bytes(), legacy);
}

TEST_F(JournalTest, CorruptObjectiveExtensionRejectsTheFrame) {
  // The extension rides inside the CRC-guarded frame: a flipped bit in
  // the objective bytes (the frame's tail, just before the CRC trailer)
  // must drop the frame, never yield a silently wrong objective.
  JournalRecord rec = sample_record(0);
  rec.has_objective = true;
  rec.objective = 2.5;
  {
    JournalWriter writer(path_, /*truncate=*/true);
    writer.append(rec);
  }
  std::string bytes = read_bytes();
  bytes[bytes.size() - 6] = static_cast<char>(bytes[bytes.size() - 6] ^ 0x01);
  write_bytes(bytes);
  const JournalReadResult read = read_journal(path_);
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(read.dropped_frames, 1u);
}

TEST(ScenarioKeyHash, StableAndSensitiveToEveryField) {
  ScenarioSpec base;
  base.name = "a";
  base.seed = 42;
  EXPECT_EQ(scenario_key_hash(base), scenario_key_hash(base));

  auto differs = [&](auto mutate) {
    ScenarioSpec other = base;
    mutate(other);
    return scenario_key_hash(other) != scenario_key_hash(base);
  };
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.name = "b"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.system = "chameleon"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.app = "CoMD"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.anomaly = "membw"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.intensity = 2.0; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.duration_s = 61.0; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.sample_period_s = 0.5; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.app_nodes = 3; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.ranks_per_node = 5; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.run_to_completion = true; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.injector_fail_at_s = 1.0; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.injector_fail_tasks = 2; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.seed = 43; }));
}

}  // namespace

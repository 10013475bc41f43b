// Trace ring buffer, tracer, and serialization unit tests: wrap-around
// order, explicit overflow accounting (drops are counted, never silent),
// zero-allocation disabled mode, sink losslessness, and byte-stable
// binary round-trips including rejection of malformed input.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "trace/buffer.hpp"
#include "trace/export.hpp"
#include "trace/record.hpp"
#include "trace/tracer.hpp"

namespace {

using hpas::trace::RecordKind;
using hpas::trace::TraceBuffer;
using hpas::trace::TraceFile;
using hpas::trace::TraceRecord;
using hpas::trace::Tracer;

TraceRecord make_record(std::uint64_t seq, double time = 0.0) {
  TraceRecord r;
  r.seq = seq;
  r.time = time;
  r.kind = RecordKind::kEventFired;
  r.a = seq * 7;
  return r;
}

TEST(TraceBuffer, StartsEmptyWithNoCapacity) {
  TraceBuffer buf;
  EXPECT_EQ(buf.capacity(), 0u);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.full());
}

TEST(TraceBuffer, CapacityZeroCountsEveryPushAsDropped) {
  TraceBuffer buf;
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_FALSE(buf.push(make_record(i)));
  EXPECT_EQ(buf.total_pushed(), 5u);
  EXPECT_EQ(buf.dropped(), 5u);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(TraceBuffer, FillsInOrderWithoutDrops) {
  TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(buf.push(make_record(i)));
  EXPECT_TRUE(buf.full());
  EXPECT_EQ(buf.dropped(), 0u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(buf[i].seq, i);
}

TEST(TraceBuffer, WrapAroundKeepsNewestAndCountsDrops) {
  TraceBuffer buf(3);
  for (std::uint64_t i = 0; i < 10; ++i) buf.push(make_record(i));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.total_pushed(), 10u);
  EXPECT_EQ(buf.dropped(), 7u);
  // Oldest-first window over the newest records: 7, 8, 9.
  EXPECT_EQ(buf[0].seq, 7u);
  EXPECT_EQ(buf[1].seq, 8u);
  EXPECT_EQ(buf[2].seq, 9u);
}

TEST(TraceBuffer, PushReportsOverwriteExactlyWhenFull) {
  TraceBuffer buf(2);
  EXPECT_TRUE(buf.push(make_record(0)));
  EXPECT_TRUE(buf.push(make_record(1)));
  EXPECT_FALSE(buf.push(make_record(2)));  // overwrote seq 0
  EXPECT_EQ(buf.dropped(), 1u);
}

TEST(TraceBuffer, ClearKeepsCapacityAndCumulativeCounters) {
  TraceBuffer buf(2);
  buf.push(make_record(0));
  buf.push(make_record(1));
  buf.push(make_record(2));
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 2u);
  EXPECT_EQ(buf.total_pushed(), 3u);
  EXPECT_EQ(buf.dropped(), 1u);  // the overwrite stays on the books
  EXPECT_TRUE(buf.push(make_record(3)));
  EXPECT_EQ(buf[0].seq, 3u);
}

TEST(TraceBuffer, ResetReallocatesButKeepsCounters) {
  TraceBuffer buf(2);
  buf.push(make_record(0));
  buf.push(make_record(1));
  buf.push(make_record(2));
  buf.reset(8);
  EXPECT_EQ(buf.capacity(), 8u);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.total_pushed(), 3u);
}

TEST(TraceBuffer, SnapshotIsOldestFirst) {
  TraceBuffer buf(3);
  for (std::uint64_t i = 0; i < 5; ++i) buf.push(make_record(i));
  const std::vector<TraceRecord> snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].seq, 2u);
  EXPECT_EQ(snap[2].seq, 4u);
}

TEST(TraceBuffer, IndexOutOfRangeThrows) {
  TraceBuffer buf(2);
  buf.push(make_record(0));
  EXPECT_THROW((void)buf[1], hpas::InvariantError);
}

TEST(Tracer, DisabledByDefaultOwnsNoStorageAndEmitIsNoOp) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.buffer().capacity(), 0u);  // no ring allocation
  tracer.emit(RecordKind::kEventFired, 0, 0, 1);
  // Disabled emit must not even touch the ring counters, let alone
  // allocate: the buffer stays pristine.
  EXPECT_EQ(tracer.emitted(), 0u);
  EXPECT_EQ(tracer.buffer().total_pushed(), 0u);
  EXPECT_EQ(tracer.buffer().capacity(), 0u);
}

TEST(Tracer, DisableStopsRecordingButKeepsRecords) {
  Tracer tracer(/*capacity=*/8);
  tracer.emit(RecordKind::kEventFired, 0, 0, 1);
  tracer.disable();
  tracer.emit(RecordKind::kEventFired, 0, 0, 2);
  EXPECT_EQ(tracer.emitted(), 1u);
  EXPECT_EQ(tracer.buffer().size(), 1u);
}

TEST(Tracer, OverflowWithoutSinkDropsOldestAndCounts) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i)
    tracer.emit(RecordKind::kEventFired, 0, 0, static_cast<std::uint64_t>(i));
  EXPECT_EQ(tracer.emitted(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.buffer().size(), 4u);
  EXPECT_EQ(tracer.buffer()[0].seq, 6u);  // ring holds the newest window
}

TEST(Tracer, SinkMakesCaptureLossless) {
  Tracer tracer(/*capacity=*/4);
  std::vector<TraceRecord> out;
  tracer.set_sink([&out](const TraceRecord* records, std::size_t n) {
    out.insert(out.end(), records, records + n);
  });
  for (int i = 0; i < 1000; ++i)
    tracer.emit(RecordKind::kEventFired, 0, 0, static_cast<std::uint64_t>(i));
  tracer.flush();
  EXPECT_EQ(tracer.dropped(), 0u);
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].seq, i);
}

TEST(Tracer, FirstLabelWinsAndLabelsSortById) {
  Tracer tracer(/*capacity=*/4);
  tracer.set_label(7, "late");
  tracer.set_label(2, "early");
  tracer.set_label(7, "ignored");
  const auto labels = tracer.sorted_labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].first, 2u);
  EXPECT_EQ(labels[0].second, "early");
  EXPECT_EQ(labels[1].first, 7u);
  EXPECT_EQ(labels[1].second, "late");
}

TraceFile sample_file() {
  TraceFile file;
  file.emitted = 3;
  file.dropped = 0;
  file.labels = {{1, "memleak"}, {2, "rank0"}};
  for (std::uint64_t i = 0; i < 3; ++i) {
    TraceRecord r = make_record(i, 0.5 * static_cast<double>(i));
    r.x = -0.0;  // sign of zero must survive the round trip
    r.y = 1.0 / 3.0;
    file.records.push_back(r);
  }
  return file;
}

TEST(TraceExport, BinaryRoundTripIsExact) {
  const TraceFile file = sample_file();
  std::ostringstream out(std::ios::binary);
  hpas::trace::write_binary(out, file);
  std::istringstream in(out.str(), std::ios::binary);
  const TraceFile back = hpas::trace::read_binary(in);
  EXPECT_EQ(back.emitted, file.emitted);
  EXPECT_EQ(back.dropped, file.dropped);
  EXPECT_EQ(back.labels, file.labels);
  ASSERT_EQ(back.records.size(), file.records.size());
  for (std::size_t i = 0; i < back.records.size(); ++i)
    EXPECT_TRUE(hpas::trace::bitwise_equal(back.records[i], file.records[i]));

  // Re-serializing the parsed trace reproduces the input byte for byte.
  std::ostringstream again(std::ios::binary);
  hpas::trace::write_binary(again, back);
  EXPECT_EQ(again.str(), out.str());
}

TEST(TraceExport, RejectsBadMagicAndTruncation) {
  const TraceFile file = sample_file();
  std::ostringstream out(std::ios::binary);
  hpas::trace::write_binary(out, file);
  const std::string bytes = out.str();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  std::istringstream in1(bad_magic, std::ios::binary);
  EXPECT_THROW(hpas::trace::read_binary(in1), hpas::ConfigError);

  std::istringstream in2(bytes.substr(0, bytes.size() - 5), std::ios::binary);
  EXPECT_THROW(hpas::trace::read_binary(in2), hpas::ConfigError);

  std::istringstream in3(std::string("short"), std::ios::binary);
  EXPECT_THROW(hpas::trace::read_binary(in3), hpas::ConfigError);
}

TEST(TraceExport, TextFormIsStableAndLabelsSubjects) {
  TraceFile file = sample_file();
  file.records[1].subject = 1;  // labeled as "memleak"
  std::ostringstream out;
  hpas::trace::write_text(out, file);
  const std::string text = out.str();
  EXPECT_NE(text.find("trace emitted=3 dropped=0 records=3"),
            std::string::npos);
  EXPECT_NE(text.find("label 1 memleak"), std::string::npos);
  EXPECT_NE(text.find("subj=1(memleak)"), std::string::npos);

  std::ostringstream out2;
  hpas::trace::write_text(out2, file);
  EXPECT_EQ(out2.str(), text);  // byte-stable
}

}  // namespace

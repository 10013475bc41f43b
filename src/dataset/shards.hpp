// Sharded, checksummed, crash-safe dataset output.
//
// A dataset directory holds:
//
//   shard-NNN.hpasds   CRC-framed binary rows (see below), one file per
//                      shard; row i lives in shard i % S at ordinal i / S,
//                      in ordinal (= plan) order -- a pure function of the
//                      plan, so shard bytes are identical at any thread
//                      count and across resume.
//   dataset.journal    the PR-4 sweep journal format, reused verbatim:
//                      one plan-header record (digest of the run plan)
//                      plus periodic per-shard checkpoint records, each
//                      appended only after the shard prefix it describes
//                      has been fsync'd. Resume truncates every shard to
//                      its newest CRC-validating checkpointed prefix and
//                      re-runs the missing rows, which reproduces the
//                      uninterrupted bytes exactly.
//   manifest.json      written last by a full read-back pass: per-shard
//                      row counts / byte sizes / whole-file CRCs,
//                      per-feature column CRCs and online stats (fed in
//                      plan order), the label map and label histogram.
//   dataset.csv        optional plan-order CSV export.
//
// The manifest and CSV are published atomically (tmp + fsync + rename +
// directory fsync, see faultline/durable.hpp).
//
// Shard file format (all integers little-endian):
//
//   file   := magic "HPASDST1" u32 version(=1) u32 shard_index
//             u32 shard_count u32 num_features frame*
//   frame  := len:u32 payload[len] crc:u32        crc = CRC32(payload)
//   payload:= row_index:u64 label:u32 feature:f64[num_features]
//
// append() encodes a row's frame before it takes its shard's lock. Under
// that lock the shard's plan-order sequencer either parks the frame (an
// out-of-order completion) or adds it, and every parked successor it
// unblocks, to the shard's write buffer and running CRC. The buffer is
// written with one write() once it passes 64 KiB, and at every
// checkpoint (before the fsync): one write per 75 rows of 108 features
// instead of one per row. Shards lock separately because consecutive
// rows go to different shards: one shard's 64 KiB write does not stall
// the others. The factory claims rows in plan order
// (runner::parallel_for) in blocks of 2048, so parked frames stay near
// the worker count and never exceed one block.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hpas::runner {
class JournalWriter;
}

namespace hpas::dataset {

/// Identity + shape of one dataset run; baked into the journal's plan
/// header so --resume refuses a changed plan.
struct DatasetMeta {
  std::uint64_t plan_digest = 0;  ///< digest of every row's key hash
  std::uint64_t rows = 0;
  std::uint32_t num_features = 0;
  std::uint32_t shards = 1;
  std::vector<std::string> class_names;
  std::vector<std::string> feature_names;
};

struct DatasetWriterOptions {
  std::string out_dir;
  /// Rows per shard between durability checkpoints (fsync + journal
  /// record). Batched so the factory never pays fsync-per-row.
  std::uint64_t checkpoint_rows = 1024;
  bool resume = false;
};

std::string shard_file_name(std::uint32_t index);

inline std::uint32_t shard_of_row(std::uint64_t row, std::uint32_t shards) {
  return static_cast<std::uint32_t>(row % shards);
}

/// Rows assigned to shard `s` out of `rows` total over `shards` shards.
std::uint64_t shard_row_count(std::uint64_t rows, std::uint32_t shards,
                              std::uint32_t s);

class DatasetWriter {
 public:
  /// Creates (or, with options.resume, reopens and truncates to the last
  /// durable checkpoints) the dataset directory. Throws ConfigError when
  /// resuming against a different plan digest/shape.
  DatasetWriter(DatasetMeta meta, DatasetWriterOptions options);
  ~DatasetWriter();

  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  /// True when `row` survived in a durable checkpointed prefix adopted at
  /// resume -- the factory skips executing it. Immutable after
  /// construction, so callable without synchronization.
  bool row_durable(std::uint64_t row) const;
  std::uint64_t rows_durable() const;

  /// Appends one completed row. Thread-safe; rows may arrive in any
  /// order, bytes land in plan order. A row reaches the file at the
  /// latest at its shard's next checkpoint.
  void append(std::uint64_t row, int label, std::span<const double> features);

  /// Stops early (cancellation): fsyncs and checkpoints every shard's
  /// contiguous prefix, discards parked out-of-order rows, leaves no
  /// manifest. A later --resume completes the dataset byte-identically.
  void abandon();

  /// All rows appended: final checkpoints, then a full read-back
  /// verification pass that aggregates the manifest (and optional CSV).
  /// Returns the manifest path.
  std::string finish(bool write_csv);

 private:
  struct Shard {
    std::mutex mutex;  ///< guards every field below once rows arrive
    std::string path;
    int fd = -1;
    std::uint64_t rows = 0;        ///< rows added (contiguous prefix)
    std::uint64_t bytes = 0;       ///< file bytes once the buffer is written
    std::uint32_t crc_state = 0;   ///< incremental CRC over all bytes
    std::uint64_t checkpoint_rows = 0;  ///< rows at last checkpoint
    std::uint64_t durable_rows = 0;     ///< adopted at resume
    std::string buffer;  ///< frames added since the last write()
    std::map<std::uint64_t, std::string> pending;  ///< ordinal -> frame
  };

  void create_fresh(Shard& shard, std::uint32_t index);
  void adopt_or_reset(Shard& shard, std::uint32_t index,
                      std::uint64_t ckpt_bytes, std::uint64_t ckpt_rows,
                      std::uint32_t ckpt_crc);
  void add_frame(Shard& shard, std::string_view frame);
  void flush(Shard& shard);
  void checkpoint(Shard& shard, std::uint32_t index);
  std::uint64_t checkpoint_key(std::uint32_t index) const;

  DatasetMeta meta_;
  DatasetWriterOptions options_;
  std::vector<Shard> shards_;
  std::unique_ptr<runner::JournalWriter> journal_;
  std::mutex journal_mutex_;  ///< checkpoint records come from any shard
  std::atomic<bool> abandoned_{false};
  std::atomic<bool> finished_{false};
};

/// Re-verifies a dataset directory from disk alone: frame CRCs, shard
/// file CRCs, row counts and ordering, per-feature column CRCs -- all
/// against manifest.json. Returns every mismatch found (empty = intact).
struct VerifyReport {
  bool ok = false;
  std::vector<std::string> errors;
};
VerifyReport verify_dataset(const std::string& dir);

}  // namespace hpas::dataset

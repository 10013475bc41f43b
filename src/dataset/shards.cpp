#include "dataset/shards.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/le_bytes.hpp"
#include "faultline/durable.hpp"
#include "runner/journal.hpp"

namespace hpas::dataset {
namespace {

constexpr char kShardMagic[8] = {'H', 'P', 'A', 'S', 'D', 'S', 'T', '1'};
constexpr std::uint32_t kShardVersion = 1;
constexpr std::size_t kShardHeaderSize = 24;  // magic + 4 x u32
constexpr char kJournalName[] = "dataset.journal";
constexpr char kManifestName[] = "manifest.json";
constexpr char kCsvName[] = "dataset.csv";
/// Parked out-of-order rows are bounded by the factory's row block (2048
/// rows); anything near this cap means the sequencer invariant broke, not
/// a big machine.
constexpr std::size_t kMaxPendingRows = 8192;
/// A shard's buffered frames are written with one write() once they pass
/// this size, and at every checkpoint.
constexpr std::size_t kFlushBytes = std::size_t{64} << 10;

/// One row's frame: len | row_index:u64 label:u32 feature:f64[] | crc.
std::string encode_row_frame(std::uint64_t row, int label,
                             std::span<const double> features) {
  std::string payload(12 + 8 * features.size(), '\0');
  auto* p = reinterpret_cast<unsigned char*>(payload.data());
  store_le(p, row);
  store_le(p + 8, static_cast<std::uint32_t>(label));
  for (std::size_t f = 0; f < features.size(); ++f)
    store_le(p + 12 + 8 * f, std::bit_cast<std::uint64_t>(features[f]));
  std::string frame;
  frame.reserve(8 + payload.size());
  faultline::append_frame(frame, payload);
  return frame;
}

std::string shard_header_bytes(std::uint32_t index, std::uint32_t shard_count,
                               std::uint32_t num_features) {
  std::string h(kShardMagic, sizeof(kShardMagic));
  put_u32(h, kShardVersion);
  put_u32(h, index);
  put_u32(h, shard_count);
  put_u32(h, num_features);
  return h;
}

// --- read-back scan ----------------------------------------------------

struct FeatureAgg {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;  // Welford, fed in plan order -> deterministic
  double m2 = 0.0;
};

struct ScanResult {
  std::uint64_t rows = 0;
  std::vector<std::uint64_t> shard_rows;
  std::vector<std::uint64_t> shard_bytes;
  std::vector<std::uint32_t> shard_crc;    // whole-file CRC32
  std::vector<std::uint32_t> feature_crc;  // per-column CRC32, plan order
  std::vector<FeatureAgg> stats;
  std::vector<std::uint64_t> label_counts;
  std::vector<std::string> errors;
};

struct ShardReader {
  std::ifstream in;
  std::string path;
  std::uint32_t crc = 0;  // incremental, over every byte consumed
  std::uint64_t bytes = 0;
  bool exhausted = false;
};

/// Streams every shard, merging rows back into plan order (round-robin,
/// since shard = row % S) and aggregating manifest facts. The merge
/// doubles as verification: every frame CRC, row index, label range and
/// the per-shard byte/row accounting are checked. Stops at the first
/// structural error (frames cannot be realigned past corruption).
ScanResult scan_shards(const std::string& dir, std::uint32_t shards,
                       std::uint32_t num_features, std::size_t num_classes,
                       faultline::AtomicFile* csv) {
  ScanResult r;
  r.shard_rows.assign(shards, 0);
  r.shard_bytes.assign(shards, 0);
  r.shard_crc.assign(shards, 0);
  r.feature_crc.assign(num_features, crc32_init());
  r.stats.assign(num_features, FeatureAgg{});
  r.label_counts.assign(num_classes, 0);

  std::vector<ShardReader> readers(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    ShardReader& rd = readers[s];
    rd.path = dir + "/" + shard_file_name(s);
    rd.in.open(rd.path, std::ios::binary);
    if (!rd.in.is_open()) {
      r.errors.push_back("missing shard file " + shard_file_name(s));
      return r;
    }
    char header[kShardHeaderSize];
    rd.in.read(header, sizeof(header));
    if (rd.in.gcount() != static_cast<std::streamsize>(sizeof(header)) ||
        std::memcmp(header, kShardMagic, sizeof(kShardMagic)) != 0) {
      r.errors.push_back("bad header in " + shard_file_name(s));
      return r;
    }
    const auto* h = reinterpret_cast<const unsigned char*>(header);
    if (get_u32(h + 8) != kShardVersion || get_u32(h + 12) != s ||
        get_u32(h + 16) != shards || get_u32(h + 20) != num_features) {
      r.errors.push_back("header shape mismatch in " + shard_file_name(s));
      return r;
    }
    rd.crc = crc32_init();
    rd.crc = crc32_update(rd.crc, header, sizeof(header));
    rd.bytes = sizeof(header);
  }

  const std::size_t payload_size = 12 + 8 * std::size_t{num_features};
  std::string frame(8 + payload_size, '\0');
  for (std::uint64_t row = 0;; ++row) {
    ShardReader& rd = readers[shard_of_row(row, shards)];
    if (rd.exhausted) break;
    rd.in.read(frame.data(), static_cast<std::streamsize>(frame.size()));
    const auto got = static_cast<std::size_t>(rd.in.gcount());
    if (got == 0) {
      rd.exhausted = true;
      // All shards must run dry within one round-robin cycle; a shard
      // with leftover rows after another hit EOF is a count mismatch.
      break;
    }
    const faultline::FrameView view = faultline::check_frame(
        std::string_view(frame.data(), got), 0,
        static_cast<std::uint32_t>(payload_size));
    if (view.status != faultline::FrameStatus::kOk ||
        view.payload.size() != payload_size) {
      const char* damage = view.status == faultline::FrameStatus::kOk
                               ? "bad frame length"
                               : faultline::frame_damage(view.status);
      r.errors.push_back(std::string(damage) + " at row " +
                         std::to_string(row) + " in " + rd.path);
      return r;
    }
    const auto* payload =
        reinterpret_cast<const unsigned char*>(view.payload.data());
    const std::uint64_t row_index = get_u64(payload);
    if (row_index != row) {
      r.errors.push_back("row index " + std::to_string(row_index) +
                         " out of order (expected " + std::to_string(row) +
                         ") in " + rd.path);
      return r;
    }
    const std::uint32_t label = get_u32(payload + 8);
    if (label >= r.label_counts.size()) {
      r.errors.push_back("label out of range at row " + std::to_string(row));
      return r;
    }
    ++r.label_counts[label];
    rd.crc = crc32_update(rd.crc, frame.data(), frame.size());
    rd.bytes += frame.size();
    ++r.shard_rows[shard_of_row(row, shards)];
    ++r.rows;

    if (csv != nullptr)
      csv->append(std::to_string(row) + ',' + std::to_string(label));
    for (std::uint32_t f = 0; f < num_features; ++f) {
      const unsigned char* cell = payload + 12 + 8 * std::size_t{f};
      r.feature_crc[f] = crc32_update(r.feature_crc[f], cell, 8);
      const double v = get_f64(cell);
      FeatureAgg& agg = r.stats[f];
      if (agg.count == 0) {
        agg.min = v;
        agg.max = v;
      } else {
        agg.min = std::min(agg.min, v);
        agg.max = std::max(agg.max, v);
      }
      ++agg.count;
      const double delta = v - agg.mean;
      agg.mean += delta / static_cast<double>(agg.count);
      agg.m2 += delta * (v - agg.mean);
      if (csv != nullptr) csv->append(',' + json_number_to_string(v));
    }
    if (csv != nullptr) csv->append("\n");
  }

  for (std::uint32_t s = 0; s < shards; ++s) {
    ShardReader& rd = readers[s];
    // Trailing bytes past the last complete round-robin row (including a
    // shard that still has rows when an earlier shard ran dry) are a
    // count/order violation.
    rd.in.clear();
    rd.in.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(rd.in.tellg());
    if (file_size != rd.bytes) {
      r.errors.push_back("unexpected trailing bytes in " + shard_file_name(s));
      return r;
    }
    r.shard_bytes[s] = rd.bytes;
    r.shard_crc[s] = crc32_final(rd.crc);
  }
  return r;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string shard_file_name(std::uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%03u.hpasds", index);
  return buf;
}

std::uint64_t shard_row_count(std::uint64_t rows, std::uint32_t shards,
                              std::uint32_t s) {
  return rows / shards + (s < rows % shards ? 1 : 0);
}

std::uint64_t DatasetWriter::checkpoint_key(std::uint32_t index) const {
  std::uint64_t h = meta_.plan_digest;
  mix(h, 0x5348415244ULL);  // "SHARD"
  mix(h, index);
  return h;
}

DatasetWriter::DatasetWriter(DatasetMeta meta, DatasetWriterOptions options)
    : meta_(std::move(meta)), options_(std::move(options)),
      shards_(meta_.shards) {
  require(meta_.shards >= 1, "DatasetWriter: need at least one shard");
  require(meta_.num_features > 0, "DatasetWriter: zero-width rows");
  require(meta_.num_features == meta_.feature_names.size(),
          "DatasetWriter: feature name count mismatch");
  require(options_.checkpoint_rows >= 1,
          "DatasetWriter: checkpoint interval must be positive");
  std::filesystem::create_directories(options_.out_dir);
  const std::string journal_path = options_.out_dir + "/" + kJournalName;

  runner::JournalRecord header;
  header.key_hash = meta_.plan_digest;
  header.status = runner::JournalStatus::kDone;
  header.name = "dataset-plan";
  header.csv_crc = meta_.shards;
  header.trace_crc = meta_.num_features;
  header.trace_records = meta_.rows;

  // Resume: the journal's valid prefix names, per shard, the newest
  // durable (fsync-before-journal) prefix. A torn tail is the expected
  // post-crash state; the journal is rewritten below, so it self-heals.
  // A fresh run has no checkpoints and creates every shard.
  runner::JournalReadResult read;
  if (options_.resume) read = runner::read_journal(journal_path);
  std::vector<std::pair<std::uint32_t, const runner::JournalRecord*>> history;
  if (!read.records.empty()) {
    const runner::JournalRecord& h = read.records.front();
    if (h.key_hash != meta_.plan_digest || h.name != "dataset-plan" ||
        h.csv_crc != meta_.shards || h.trace_crc != meta_.num_features ||
        h.trace_records != meta_.rows) {
      throw ConfigError(
          "dataset --resume: plan changed since the journal was written "
          "(digest/shape mismatch); use a fresh output directory");
    }
    for (std::size_t i = 1; i < read.records.size(); ++i) {
      for (std::uint32_t s = 0; s < meta_.shards; ++s) {
        if (read.records[i].key_hash == checkpoint_key(s)) {
          history.emplace_back(s, &read.records[i]);
          break;
        }
      }
    }
  }
  for (std::uint32_t s = 0; s < meta_.shards; ++s) {
    // Newest checkpoint first; an older one is the fallback when the
    // shard's bytes do not validate against it.
    for (auto it = history.rbegin(); it != history.rend(); ++it) {
      if (it->first != s) continue;
      const runner::JournalRecord& ckpt = *it->second;
      adopt_or_reset(shards_[s], s, ckpt.trace_records, ckpt.app_iterations,
                     ckpt.csv_crc);
      if (shards_[s].fd >= 0) break;
    }
    if (shards_[s].fd < 0) create_fresh(shards_[s], s);
  }
  // Shard files are named by every checkpoint record: their directory
  // entries must be durable before the plan record is.
  faultline::sync_parent_dir(faultline::Domain::kJournal, journal_path);
  journal_ = std::make_unique<runner::JournalWriter>(journal_path, true);
  journal_->append(header);
  // Keep the checkpoint history of every adopted prefix, in its original
  // order: a resumed dataset's journal is then byte-identical to the one
  // an uninterrupted run writes.
  for (const auto& [s, ckpt] : history) {
    if (ckpt->app_iterations <= shards_[s].durable_rows)
      journal_->append(*ckpt);
  }
}

DatasetWriter::~DatasetWriter() {
  for (Shard& shard : shards_) {
    if (shard.fd >= 0) ::close(shard.fd);
  }
}

void DatasetWriter::create_fresh(Shard& shard, std::uint32_t index) {
  if (shard.fd >= 0) ::close(shard.fd);
  shard.path = options_.out_dir + "/" + shard_file_name(index);
  shard.fd = ::open(shard.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
  if (shard.fd < 0)
    throw SystemError("dataset: cannot create " + shard.path + ": " +
                      std::strerror(errno));
  const std::string header =
      shard_header_bytes(index, meta_.shards, meta_.num_features);
  faultline::write_all(faultline::Domain::kJournal, shard.fd, shard.path,
                       header);
  shard.crc_state = crc32_update(crc32_init(), header.data(), header.size());
  shard.bytes = header.size();
  shard.rows = 0;
  shard.checkpoint_rows = 0;
  shard.durable_rows = 0;
}

void DatasetWriter::adopt_or_reset(Shard& shard, std::uint32_t index,
                                   std::uint64_t ckpt_bytes,
                                   std::uint64_t ckpt_rows,
                                   std::uint32_t ckpt_crc) {
  // Validates one checkpoint candidate against the bytes on disk; on any
  // mismatch the shard is left closed (fd < 0) so the caller can try an
  // older checkpoint or fall back to a fresh file.
  if (shard.fd >= 0) {
    ::close(shard.fd);
    shard.fd = -1;
  }
  shard.path = options_.out_dir + "/" + shard_file_name(index);
  if (ckpt_bytes < kShardHeaderSize) return;
  std::ifstream in(shard.path, std::ios::binary);
  if (!in.is_open()) return;
  std::uint32_t state = crc32_init();
  std::uint64_t left = ckpt_bytes;
  char buf[1 << 16];
  bool header_checked = false;
  while (left > 0) {
    const auto want = static_cast<std::streamsize>(
        std::min<std::uint64_t>(left, sizeof(buf)));
    in.read(buf, want);
    if (in.gcount() != want) return;  // file shorter than the checkpoint
    if (!header_checked) {
      if (std::memcmp(buf, kShardMagic, sizeof(kShardMagic)) != 0) return;
      header_checked = true;
    }
    state = crc32_update(state, buf, static_cast<std::size_t>(want));
    left -= static_cast<std::uint64_t>(want);
  }
  if (crc32_final(state) != ckpt_crc) return;
  in.close();

  // The prefix is intact: drop any non-durable tail and continue from it.
  if (::truncate(shard.path.c_str(), static_cast<off_t>(ckpt_bytes)) != 0)
    throw SystemError("dataset: truncate failed on " + shard.path + ": " +
                      std::strerror(errno));
  shard.fd = ::open(shard.path.c_str(), O_WRONLY | O_CLOEXEC);
  if (shard.fd < 0)
    throw SystemError("dataset: cannot reopen " + shard.path + ": " +
                      std::strerror(errno));
  if (::lseek(shard.fd, 0, SEEK_END) < 0)
    throw SystemError("dataset: seek failed on " + shard.path);
  shard.crc_state = state;
  shard.bytes = ckpt_bytes;
  shard.rows = ckpt_rows;
  shard.checkpoint_rows = ckpt_rows;
  shard.durable_rows = ckpt_rows;
}

bool DatasetWriter::row_durable(std::uint64_t row) const {
  const Shard& shard = shards_[shard_of_row(row, meta_.shards)];
  return row / meta_.shards < shard.durable_rows;
}

std::uint64_t DatasetWriter::rows_durable() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.durable_rows;
  return total;
}

void DatasetWriter::add_frame(Shard& shard, std::string_view frame) {
  shard.buffer.append(frame);
  shard.crc_state = crc32_update(shard.crc_state, frame.data(), frame.size());
  shard.bytes += frame.size();
  ++shard.rows;
  if (shard.buffer.size() >= kFlushBytes) flush(shard);
}

void DatasetWriter::flush(Shard& shard) {
  if (shard.buffer.empty()) return;
  faultline::write_all(faultline::Domain::kJournal, shard.fd, shard.path,
                       shard.buffer);
  shard.buffer.clear();
}

void DatasetWriter::checkpoint(Shard& shard, std::uint32_t index) {
  // Durability order is the resume contract: shard bytes reach disk
  // BEFORE the journal record that describes them, so a validated
  // checkpoint always names an intact prefix.
  flush(shard);
  faultline::sync_file(faultline::Domain::kJournal, shard.fd, shard.path);
  runner::JournalRecord rec;
  rec.key_hash = checkpoint_key(index);
  rec.status = runner::JournalStatus::kDone;
  rec.name = "shard-" + std::to_string(index);
  rec.output = shard_file_name(index);
  rec.csv_crc = crc32_final(shard.crc_state);
  rec.trace_records = shard.bytes;
  rec.app_iterations = shard.rows;
  {
    std::lock_guard<std::mutex> journal_lock(journal_mutex_);
    journal_->append(rec);
  }
  shard.checkpoint_rows = shard.rows;
}

void DatasetWriter::append(std::uint64_t row, int label,
                           std::span<const double> features) {
  require(features.size() == meta_.num_features,
          "DatasetWriter: feature width mismatch");
  require(row < meta_.rows, "DatasetWriter: row index out of plan");
  require(label >= 0 &&
              static_cast<std::size_t>(label) < meta_.class_names.size(),
          "DatasetWriter: label out of range");
  const std::uint32_t s = shard_of_row(row, meta_.shards);
  const std::uint64_t ordinal = row / meta_.shards;
  // Encoded before the lock: the critical section only moves bytes.
  std::string frame = encode_row_frame(row, label, features);

  Shard& shard = shards_[s];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (abandoned_) return;  // cancellation already sealed the prefix
  require(!finished_, "DatasetWriter: append after finish");
  require(ordinal >= shard.rows, "DatasetWriter: duplicate row append");
  if (ordinal != shard.rows) {
    // Out-of-order completion: park the frame until its plan-order
    // predecessor lands. Bounded by the factory's row block; the cap
    // catches logic bugs.
    require(shard.pending.size() < kMaxPendingRows,
            "DatasetWriter: sequencer reorder bound exceeded");
    shard.pending.emplace(ordinal, std::move(frame));
    return;
  }
  add_frame(shard, frame);
  auto next = shard.pending.begin();
  while (next != shard.pending.end() && next->first == shard.rows) {
    add_frame(shard, next->second);
    next = shard.pending.erase(next);
  }
  if (shard.rows - shard.checkpoint_rows >= options_.checkpoint_rows)
    checkpoint(shard, s);
}

void DatasetWriter::abandon() {
  if (finished_ || abandoned_.exchange(true)) return;
  // An append that takes a shard's lock after this loop did sees
  // abandoned_ and drops its row; one that took it first is checkpointed.
  for (std::uint32_t s = 0; s < meta_.shards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.pending.clear();  // non-contiguous rows are re-run on resume
    if (shard.rows > shard.checkpoint_rows) checkpoint(shard, s);
  }
}

std::string DatasetWriter::finish(bool write_csv) {
  require(!abandoned_ && !finished_, "DatasetWriter: finish after stop");
  for (std::uint32_t s = 0; s < meta_.shards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    require(shard.pending.empty(),
            "DatasetWriter: finish with parked rows (missing predecessors)");
    require(shard.rows == shard_row_count(meta_.rows, meta_.shards, s),
            "DatasetWriter: finish with missing rows");
    if (shard.rows > shard.checkpoint_rows) checkpoint(shard, s);
  }
  finished_ = true;

  // Read-back pass: verifies every byte just written and aggregates the
  // manifest facts in plan order (so the manifest, like the shards, is
  // independent of thread count and resume history).
  std::optional<faultline::AtomicFile> csv;
  if (write_csv) {
    csv.emplace(faultline::Domain::kJournal,
                options_.out_dir + "/" + kCsvName);
    std::string header = "row,label";
    for (const std::string& name : meta_.feature_names) header += ',' + name;
    csv->append(header + '\n');
  }
  ScanResult scan =
      scan_shards(options_.out_dir, meta_.shards, meta_.num_features,
                  meta_.class_names.size(), csv ? &*csv : nullptr);
  if (!scan.errors.empty())
    throw SystemError("dataset: read-back verification failed: " +
                      scan.errors.front());
  require(scan.rows == meta_.rows, "dataset: read-back row count mismatch");
  for (std::uint32_t s = 0; s < meta_.shards; ++s) {
    require(scan.shard_crc[s] == crc32_final(shards_[s].crc_state),
            "dataset: read-back CRC diverged from incremental CRC");
  }
  if (csv) csv->commit();

  Json m = Json::object();
  m.set("format", Json("hpas-dataset-v1"));
  m.set("plan_digest", Json(hex64(meta_.plan_digest)));
  m.set("rows", Json(static_cast<double>(meta_.rows)));
  m.set("num_features", Json(static_cast<double>(meta_.num_features)));
  m.set("shards", Json(static_cast<double>(meta_.shards)));
  Json classes = Json::array();
  for (const std::string& c : meta_.class_names) classes.push_back(Json(c));
  m.set("class_names", std::move(classes));
  Json label_counts = Json::array();
  for (const std::uint64_t c : scan.label_counts)
    label_counts.push_back(Json(static_cast<double>(c)));
  m.set("label_counts", std::move(label_counts));
  Json shard_files = Json::array();
  for (std::uint32_t s = 0; s < meta_.shards; ++s) {
    Json entry = Json::object();
    entry.set("file", Json(shard_file_name(s)));
    entry.set("rows", Json(static_cast<double>(scan.shard_rows[s])));
    entry.set("bytes", Json(static_cast<double>(scan.shard_bytes[s])));
    entry.set("crc32", Json(static_cast<double>(scan.shard_crc[s])));
    shard_files.push_back(std::move(entry));
  }
  m.set("shard_files", std::move(shard_files));
  Json names = Json::array();
  for (const std::string& n : meta_.feature_names) names.push_back(Json(n));
  m.set("feature_names", std::move(names));
  Json feature_crcs = Json::array();
  for (std::uint32_t f = 0; f < meta_.num_features; ++f)
    feature_crcs.push_back(
        Json(static_cast<double>(crc32_final(scan.feature_crc[f]))));
  m.set("feature_crcs", std::move(feature_crcs));
  Json feature_stats = Json::array();
  for (std::uint32_t f = 0; f < meta_.num_features; ++f) {
    const FeatureAgg& agg = scan.stats[f];
    Json st = Json::object();
    st.set("min", Json(agg.min));
    st.set("max", Json(agg.max));
    st.set("mean", Json(agg.mean));
    st.set("stddev",
           Json(agg.count > 1
                    ? std::sqrt(agg.m2 / static_cast<double>(agg.count - 1))
                    : 0.0));
    feature_stats.push_back(std::move(st));
  }
  m.set("feature_stats", std::move(feature_stats));

  const std::string manifest_path = options_.out_dir + "/" + kManifestName;
  faultline::write_file_atomic(faultline::Domain::kJournal, manifest_path,
                               m.dump(2));
  return manifest_path;
}

VerifyReport verify_dataset(const std::string& dir) {
  VerifyReport report;
  Json manifest;
  try {
    manifest = faultline::load_json_file(dir + "/" + kManifestName);
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("manifest unreadable: ") + e.what());
    return report;
  }
  const auto u64_field = [&](std::string_view key) {
    return static_cast<std::uint64_t>(manifest.number_or(key, 0));
  };
  const std::uint64_t rows = u64_field("rows");
  const auto num_features = static_cast<std::uint32_t>(u64_field("num_features"));
  const auto shards = static_cast<std::uint32_t>(u64_field("shards"));
  if (shards == 0 || num_features == 0) {
    report.errors.push_back("manifest missing rows/num_features/shards");
    return report;
  }
  const Json* class_names = manifest.find("class_names");
  const std::size_t num_classes =
      (class_names != nullptr && class_names->is_array())
          ? class_names->as_array().size()
          : 0;
  if (num_classes == 0) {
    report.errors.push_back("manifest missing class_names");
    return report;
  }

  ScanResult scan = scan_shards(dir, shards, num_features, num_classes,
                                nullptr);
  report.errors.insert(report.errors.end(), scan.errors.begin(),
                       scan.errors.end());
  if (!report.errors.empty()) return report;

  if (scan.rows != rows)
    report.errors.push_back("row count mismatch: manifest " +
                            std::to_string(rows) + ", shards " +
                            std::to_string(scan.rows));
  const Json* shard_files_json = manifest.find("shard_files");
  if (shard_files_json == nullptr || !shard_files_json->is_array() ||
      shard_files_json->as_array().size() != shards) {
    report.errors.push_back("manifest shard_files count mismatch");
    return report;
  }
  const auto& shard_files = shard_files_json->as_array();
  for (std::uint32_t s = 0; s < shards; ++s) {
    const Json& entry = shard_files[s];
    if (static_cast<std::uint64_t>(entry.number_or("rows", 0)) !=
        scan.shard_rows[s])
      report.errors.push_back("shard " + std::to_string(s) +
                              " row count mismatch");
    if (static_cast<std::uint64_t>(entry.number_or("bytes", 0)) !=
        scan.shard_bytes[s])
      report.errors.push_back("shard " + std::to_string(s) +
                              " byte size mismatch");
    if (static_cast<std::uint32_t>(entry.number_or("crc32", 0)) !=
        scan.shard_crc[s])
      report.errors.push_back("shard " + std::to_string(s) + " CRC mismatch");
  }
  const Json* feature_crcs_json = manifest.find("feature_crcs");
  if (feature_crcs_json == nullptr || !feature_crcs_json->is_array() ||
      feature_crcs_json->as_array().size() != num_features) {
    report.errors.push_back("manifest feature_crcs count mismatch");
  } else {
    const auto& feature_crcs = feature_crcs_json->as_array();
    for (std::uint32_t f = 0; f < num_features; ++f) {
      if (static_cast<std::uint32_t>(feature_crcs[f].as_number()) !=
          crc32_final(scan.feature_crc[f])) {
        report.errors.push_back("feature column " + std::to_string(f) +
                                " CRC mismatch");
      }
    }
  }
  if (const Json* counts_json = manifest.find("label_counts");
      counts_json != nullptr && counts_json->is_array()) {
    const auto& counts = counts_json->as_array();
    for (std::size_t c = 0; c < counts.size() && c < scan.label_counts.size();
         ++c) {
      if (static_cast<std::uint64_t>(counts[c].as_number()) !=
          scan.label_counts[c])
        report.errors.push_back("label count mismatch for class " +
                                std::to_string(c));
    }
  }
  report.ok = report.errors.empty();
  return report;
}

}  // namespace hpas::dataset

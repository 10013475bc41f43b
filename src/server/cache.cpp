#include "server/cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "faultline/durable.hpp"

namespace hpas::server {
namespace {

std::string key_hex(std::uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "e%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace

ResultCache::ResultCache(std::string data_dir)
    : data_dir_(std::move(data_dir)),
      spool_dir_(data_dir_ + "/spool"),
      quarantine_dir_(data_dir_ + "/quarantine"),
      journal_path_(data_dir_ + "/server.journal") {}

std::string ResultCache::spool_file(std::uint64_t key) const {
  return spool_dir_ + "/" + key_hex(key) + ".csv";
}

runner::JournalRecord ResultCache::record_for(
    const CachedResult& entry) const {
  runner::JournalRecord rec;
  rec.key_hash = entry.key;
  rec.status = entry.status;
  rec.name = entry.name;
  rec.error = entry.error;
  rec.app_iterations = entry.app_iterations;
  rec.app_elapsed_s = entry.app_elapsed_s;
  rec.wall_seconds = 0.0;  // byte-stability: host time never journaled
  if (entry.status == runner::JournalStatus::kDone) {
    rec.output = "spool/" + key_hex(entry.key) + ".csv";
    rec.csv_crc = entry.csv_crc;
  }
  return rec;
}

void ResultCache::open() {
  std::filesystem::create_directories(spool_dir_);

  // Replay the valid journal prefix. Every surviving record is
  // re-validated against its on-disk spool bytes; the journal is then
  // truncate-rewritten with exactly the validated entries, so a torn
  // tail (the expected post-SIGKILL state) heals on the first restart.
  const runner::JournalReadResult prior =
      runner::read_journal(journal_path_);
  journal_dropped_ = prior.dropped_frames;
  for (const runner::JournalRecord& rec : prior.records) {
    if (rec.status != runner::JournalStatus::kDone &&
        rec.status != runner::JournalStatus::kFailed)
      continue;  // timeouts/cancellations are never served from cache
    if (entries_.count(rec.key_hash) != 0) continue;
    CachedResult entry;
    entry.key = rec.key_hash;
    entry.status = rec.status;
    entry.name = rec.name;
    entry.error = rec.error;
    entry.app_iterations = rec.app_iterations;
    entry.app_elapsed_s = rec.app_elapsed_s;
    if (rec.status == runner::JournalStatus::kDone) {
      std::optional<std::string> bytes =
          faultline::read_file(spool_file(rec.key_hash));
      if (!bytes || crc32(*bytes) != rec.csv_crc) {
        // Missing or damaged spool bytes: drop the record (the scenario
        // re-runs on its next submission) rather than serve bytes that
        // do not match what was journaled.
        ++spool_invalid_;
        continue;
      }
      entry.metrics_csv = std::move(*bytes);
      entry.csv_crc = rec.csv_crc;
      spool_bytes_ += entry.metrics_csv.size();
      lru_.push_front(rec.key_hash);
      lru_pos_[rec.key_hash] = lru_.begin();
    }
    order_.push_back(rec.key_hash);
    order_pos_[rec.key_hash] = std::prev(order_.end());
    entries_.emplace(rec.key_hash, std::move(entry));
    ++restored_;
  }
  // A cap smaller than the restored spool trims it before serving: the
  // evicted entries re-run on demand, exactly as post-restart eviction
  // would behave.
  if (spool_cap_bytes_ > 0) evicted_ += enforce_cap(/*keep=*/0);
  rewrite_journal();
}

const CachedResult* ResultCache::find(std::uint64_t key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (it->second.status == runner::JournalStatus::kDone) lru_touch(key);
  return &it->second;
}

void ResultCache::lru_touch(std::uint64_t key) {
  const auto pos = lru_pos_.find(key);
  if (pos == lru_pos_.end()) return;
  lru_.splice(lru_.begin(), lru_, pos->second);
  pos->second = lru_.begin();
}

void ResultCache::drop_entry(std::uint64_t key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (it->second.status == runner::JournalStatus::kDone)
    spool_bytes_ -= it->second.metrics_csv.size();
  entries_.erase(it);
  if (const auto pos = lru_pos_.find(key); pos != lru_pos_.end()) {
    lru_.erase(pos->second);
    lru_pos_.erase(pos);
  }
  if (const auto pos = order_pos_.find(key); pos != order_pos_.end()) {
    order_.erase(pos->second);
    order_pos_.erase(pos);
  }
}

std::size_t ResultCache::enforce_cap(std::uint64_t keep) {
  if (spool_cap_bytes_ == 0) return 0;
  std::size_t dropped = 0;
  while (spool_bytes_ > spool_cap_bytes_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    // The entry being inserted must stay servable even if it alone
    // exceeds the cap; with only it left there is nothing to evict.
    if (victim == keep) break;
    (void)::unlink(spool_file(victim).c_str());
    drop_entry(victim);
    ++dropped;
  }
  return dropped;
}

const CachedResult& ResultCache::insert(std::uint64_t key,
                                        const runner::ScenarioResult& result) {
  require(journal_ != nullptr, "ResultCache::insert before open()");
  require(result.status == runner::ScenarioStatus::kDone ||
              result.status == runner::ScenarioStatus::kFailed,
          "ResultCache: only done/failed results are cacheable");
  const auto existing = entries_.find(key);
  if (existing != entries_.end()) return existing->second;

  CachedResult entry;
  entry.key = key;
  entry.name = result.spec.name;
  entry.app_iterations = static_cast<std::uint64_t>(result.app_iterations);
  entry.app_elapsed_s = result.app_elapsed_s;

  if (result.status == runner::ScenarioStatus::kDone) {
    entry.status = runner::JournalStatus::kDone;
    entry.metrics_csv = result.metrics_csv;
    entry.csv_crc = crc32(entry.metrics_csv);
    // Spool bytes before the record that names them: a crash between the
    // two leaves an orphan file, never a record without its bytes.
    faultline::write_file_atomic(faultline::Domain::kCache, spool_file(key),
                                 entry.metrics_csv);
  } else {
    entry.status = runner::JournalStatus::kFailed;
    entry.error = result.error;
  }
  journal_->append(record_for(entry));

  if (entry.status == runner::JournalStatus::kDone) {
    spool_bytes_ += entry.metrics_csv.size();
    lru_.push_front(key);
    lru_pos_[key] = lru_.begin();
  }
  order_.push_back(key);
  order_pos_[key] = std::prev(order_.end());
  const auto& stored = entries_.emplace(key, std::move(entry)).first->second;

  if (const std::size_t dropped = enforce_cap(key); dropped > 0) {
    evicted_ += dropped;
    rewrite_journal();
  }
  return stored;
}

ScrubReport ResultCache::scrub() {
  require(journal_ != nullptr, "ResultCache::scrub before open()");
  ScrubReport report;
  std::vector<std::uint64_t> corrupt;
  for (const std::uint64_t key : order_) {
    const CachedResult& entry = entries_.at(key);
    if (entry.status != runner::JournalStatus::kDone) continue;
    ++report.scanned;
    const std::optional<std::string> bytes =
        faultline::read_file(spool_file(key));
    if (bytes && crc32(*bytes) == entry.csv_crc) continue;
    corrupt.push_back(key);
  }
  if (corrupt.empty()) return report;

  std::filesystem::create_directories(quarantine_dir_);
  for (const std::uint64_t key : corrupt) {
    // Move the bad bytes aside as evidence (best effort -- the file may
    // be gone entirely) and drop the entry: the next submission of this
    // spec re-runs and re-caches instead of ever serving a byte that
    // fails its CRC.
    (void)std::rename(spool_file(key).c_str(),
                      (quarantine_dir_ + "/" + key_hex(key) + ".csv").c_str());
    drop_entry(key);
    ++quarantined_;
    ++report.quarantined;
  }
  rewrite_journal();
  return report;
}

void ResultCache::rewrite_journal() {
  journal_ = std::make_unique<runner::JournalWriter>(journal_path_, true);
  for (const std::uint64_t key : order_)
    journal_->append(record_for(entries_.at(key)));
}

}  // namespace hpas::server

// Content-addressed result cache of the experiment server, durable
// through the PR-4 crash-safe journal.
//
// Keyed by the journal's splitmix64 scenario hash (scenario_key_hash): a
// repeated submission of a byte-identical spec is a cache hit served
// from memory, never a re-run. Durability is the sweep journal reused as
// a write-ahead store:
//
//   <data_dir>/server.journal    CRC-framed fsync'd record per finished
//                                scenario (the authoritative index)
//   <data_dir>/spool/e<16hex>.csv   the scenario's metrics CSV, written
//                                atomically (tmp + fsync + rename +
//                                directory fsync) *before* its
//                                journal record
//   <data_dir>/quarantine/       spool files whose bytes stopped
//                                matching their journaled CRC, moved
//                                aside by the scrubber as evidence
//
// Because the CSV bytes land (and are fsync'd) before the record that
// names them, a SIGKILL can leave at most (a) a torn journal tail, which
// the reader drops, or (b) an orphaned spool file, which is harmless. On
// restart, open() replays the valid journal prefix, re-validates every
// kDone record's spool bytes against the journaled CRC32, rewrites the
// journal with exactly the entries that survived (self-healing, same as
// sweep --resume), and the daemon serves those results byte-identically
// to the pre-crash responses.
//
// Two maintenance mechanisms keep a long-lived spool honest:
//
//   Scrubbing (scrub()): re-reads every kDone entry's spool bytes and
//   CRC-checks them against the journal. A corrupt entry is quarantined
//   (file moved to quarantine/, entry dropped, journal rewritten) so the
//   next submission of that spec re-runs and re-caches -- determinism
//   makes the re-run byte-identical -- instead of ever serving bad
//   bytes.
//
//   LRU eviction (set_spool_cap_bytes()): when the spool exceeds the
//   cap, least-recently-served kDone entries are evicted (file deleted,
//   journal rewritten) until it fits. An evicted entry simply re-runs on
//   its next submission; kFailed entries hold no spool bytes and are
//   never evicted.
//
// All raw spool I/O flows through the faultline cache domain, so the
// torture battery can crash, tear, or fail any byte of the write
// sequence deterministically.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "runner/journal.hpp"
#include "runner/runner.hpp"

namespace hpas::server {

/// One finished scenario, everything a result frame needs. Only terminal
/// deterministic outcomes are cached (kDone and kFailed); cancellations
/// are host-timing artifacts and are never stored.
struct CachedResult {
  std::uint64_t key = 0;
  runner::JournalStatus status = runner::JournalStatus::kDone;
  std::string name;
  std::string error;           ///< non-empty for kFailed
  std::uint64_t app_iterations = 0;
  double app_elapsed_s = 0.0;
  std::string metrics_csv;     ///< node-0 monitoring series (kDone only)
  std::uint32_t csv_crc = 0;   ///< journaled CRC32 of metrics_csv (kDone)
};

/// What one scrub pass saw.
struct ScrubReport {
  std::size_t scanned = 0;      ///< kDone entries CRC-checked
  std::size_t quarantined = 0;  ///< corrupt entries moved aside + dropped
};

/// Not internally synchronized: the server serializes access (and the
/// journal's append ordering) under its own mutex.
class ResultCache {
 public:
  explicit ResultCache(std::string data_dir);

  /// Spool size cap in bytes; 0 = unbounded. Takes effect at open() and
  /// on every insert().
  void set_spool_cap_bytes(std::uint64_t cap) { spool_cap_bytes_ = cap; }

  /// Creates the directory layout, replays and self-heals the journal,
  /// and leaves the writer open for appends. Idempotent per instance.
  void open();

  /// nullptr on miss. The pointer is invalidated by the next insert(),
  /// scrub(), or eviction. A hit refreshes the entry's LRU position.
  const CachedResult* find(std::uint64_t key);

  /// Stores a terminal result: spool CSV first (published atomically),
  /// then the fsync'd journal record, then the in-memory entry -- the
  /// ordering that makes "journaled" imply "servable after SIGKILL".
  /// Only kDone / kFailed scenario statuses are accepted (require()d).
  /// May evict older entries when a spool cap is set. Throws SystemError
  /// when the spool or journal write fails; the cache stays consistent
  /// (the entry is simply not stored).
  const CachedResult& insert(std::uint64_t key,
                             const runner::ScenarioResult& result);

  /// CRC-checks every kDone entry's on-disk spool bytes against the
  /// journaled digest; quarantines what no longer matches.
  ScrubReport scrub();

  std::size_t size() const { return entries_.size(); }
  std::size_t restored() const { return restored_; }
  /// Journal frames dropped at open(): torn tail or CRC damage.
  std::size_t journal_dropped() const { return journal_dropped_; }
  /// kDone records whose spool bytes were missing or failed their CRC.
  std::size_t spool_invalid() const { return spool_invalid_; }
  /// Entries evicted by the spool cap since open().
  std::size_t evicted() const { return evicted_; }
  /// Entries quarantined by scrub() since open().
  std::size_t quarantined() const { return quarantined_; }
  /// Current kDone spool footprint in bytes.
  std::uint64_t spool_bytes() const { return spool_bytes_; }

  const std::string& journal_path() const { return journal_path_; }
  const std::string& quarantine_dir() const { return quarantine_dir_; }

 private:
  std::string spool_file(std::uint64_t key) const;
  runner::JournalRecord record_for(const CachedResult& entry) const;
  /// Truncate-rewrites the journal with exactly the live entries, in
  /// their original insertion order -- the self-healing step shared by
  /// open(), eviction, and quarantine.
  void rewrite_journal();
  void lru_touch(std::uint64_t key);
  void drop_entry(std::uint64_t key);  ///< in-memory + LRU bookkeeping
  /// Evicts LRU kDone entries until the spool fits the cap; never evicts
  /// `keep` (the entry being inserted must stay servable). Returns how
  /// many entries were evicted.
  std::size_t enforce_cap(std::uint64_t keep);

  std::string data_dir_;
  std::string spool_dir_;
  std::string quarantine_dir_;
  std::string journal_path_;
  std::unordered_map<std::uint64_t, CachedResult> entries_;
  /// Insertion order of live entries: journal rewrites replay this, so a
  /// rewritten journal's bytes are independent of hash-map iteration.
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      order_pos_;
  /// Recency for eviction: front = most recently served kDone entry.
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      lru_pos_;
  std::unique_ptr<runner::JournalWriter> journal_;
  std::uint64_t spool_cap_bytes_ = 0;
  std::uint64_t spool_bytes_ = 0;
  std::size_t restored_ = 0;
  std::size_t journal_dropped_ = 0;
  std::size_t spool_invalid_ = 0;
  std::size_t evicted_ = 0;
  std::size_t quarantined_ = 0;
};

}  // namespace hpas::server

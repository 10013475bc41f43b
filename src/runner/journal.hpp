// Crash-safe sweep journal: the checkpoint log behind `hpas sweep --resume`.
//
// `run_sweep` appends one CRC32-framed, fsync'd record per finished
// scenario (completed, timed out, failed, or hard-cancelled). A record
// carries everything resume needs to reconstruct the scenario's
// ScenarioResult without re-running it: the scenario *key hash* (a stable
// digest of every spec field that affects the output), the output file
// name, CRC32 digests of the CSV/trace bytes on disk, and the scalar
// results (app time, iterations) that live only in summary.json.
//
// Frame format (all integers little-endian):
//
//   file   := magic "HPASJNL1" frame*
//   frame  := len:u32 payload[len] crc:u32        crc = CRC32(payload)
//
// Append + fsync per record means a SIGKILL can tear at most the last
// frame; read_journal() returns the valid prefix and reports the torn
// tail instead of throwing, because a damaged tail is the *expected*
// post-crash state, not an error. Resume rewrites the journal with the
// validated prefix, so the file is self-healing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/grid.hpp"

namespace hpas::runner {

enum class JournalStatus : std::uint8_t {
  kDone = 1,       ///< scenario completed; outputs on disk are authoritative
  kTimeout = 2,    ///< cancelled by the per-scenario watchdog deadline
  kFailed = 3,     ///< run_scenario threw; `error` holds the message
  kCancelled = 4,  ///< hard shutdown / sweep deadline interrupted it
};

const char* journal_status_name(JournalStatus status);

struct JournalRecord {
  std::uint64_t key_hash = 0;  ///< scenario_key_hash() of the spec
  JournalStatus status = JournalStatus::kDone;
  std::string name;    ///< spec.name (for human-readable reports)
  std::string output;  ///< CSV file name relative to the journal's dir
  std::uint32_t csv_crc = 0;    ///< CRC32 of the CSV bytes (kDone only)
  std::uint32_t trace_crc = 0;  ///< CRC32 of the trace bytes; 0 = no trace
  std::uint64_t trace_records = 0;
  std::uint64_t app_iterations = 0;
  double app_elapsed_s = 0.0;  ///< simulated result (feeds summary.json)
  double wall_seconds = 0.0;   ///< host execution time (diagnostics only)
  std::string error;           ///< non-empty for kFailed
  /// Optional trailing extension used by `hpas search`: the scenario's
  /// final objective value, journaled so resume can reuse evaluations as
  /// an exact cache without recomputing probe-based objectives. Encoded
  /// only when set, so sweep journals keep their exact legacy bytes; the
  /// decoder accepts both layouts.
  bool has_objective = false;
  double objective = 0.0;
};

/// Stable digest of every ScenarioSpec field that affects the scenario's
/// output: the name, the kSpecFields rows in order, the derived seed.
/// Resume matches journal records to grid entries by this hash, so editing
/// the grid invalidates exactly the scenarios whose parameters changed --
/// renames included, because the name decides the output path. The
/// explicit anomaly placement is left out: only hpas-sim sets it, and no
/// journaled or wire spec carries it.
std::uint64_t scenario_key_hash(const ScenarioSpec& spec);

/// Append-only journal writer. Every append() writes one frame with a
/// single write() and fsyncs the file, so a record is either fully
/// durable or (after a crash mid-frame) detectably torn. Not internally
/// synchronized: the sweep serializes appends under its own mutex.
class JournalWriter {
 public:
  /// Opens `path`, truncating and writing a fresh header when `truncate`
  /// is true (or when the file does not exist); otherwise appends after
  /// the existing content. Throws SystemError when the file cannot be
  /// opened or the header cannot be written.
  JournalWriter(const std::string& path, bool truncate);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void append(const JournalRecord& record);

  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

struct JournalReadResult {
  std::vector<JournalRecord> records;  ///< the valid prefix, oldest first
  /// Frames dropped at the tail: a torn last write, a flipped bit caught
  /// by the CRC, or trailing garbage. Reading stops at the first damaged
  /// frame (later frames could be misaligned).
  std::size_t dropped_frames = 0;
  std::string damage;  ///< empty when clean; else why reading stopped
};

/// Reads the valid record prefix of a journal. A missing file reads as
/// empty (fresh sweep); a damaged tail is reported, not thrown -- that is
/// the normal state after a crash. Throws SystemError only when an
/// existing file cannot be read at all.
JournalReadResult read_journal(const std::string& path);

}  // namespace hpas::runner

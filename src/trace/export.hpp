// Trace exporters and readers.
//
// Two forms, one source of truth (TraceFile):
//   * binary  -- the canonical on-disk format (`hpas-sim --trace`): a
//     fixed little-endian layout, 46 bytes per record, with the emitted/
//     dropped counters and the label table in the header. Byte-stable:
//     re-serializing a read trace reproduces the input exactly;
//   * text    -- one line per record, numbers in the same shortest-round-
//     trip form the JSON serializer uses. Byte-stable, diffable, and what
//     the golden-trace regression tests pin.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/tracer.hpp"

namespace hpas::trace {

/// Serializes the canonical binary form. The stream should be opened in
/// binary mode. Throws SystemError when the stream fails.
void write_binary(std::ostream& out, const TraceFile& file);

/// Parses a binary trace. Throws ConfigError on bad magic/version or a
/// truncated/corrupt stream.
TraceFile read_binary(std::istream& in);

/// Convenience wrappers; throw SystemError when the file cannot be
/// opened (read_binary_file additionally throws ConfigError as above).
void write_binary_file(const std::string& path, const TraceFile& file);
TraceFile read_binary_file(const std::string& path);

/// One record as a stable, human-readable line (no trailing newline).
/// Labeled subjects render as `subj=3(memleak)`.
std::string format_record(const TraceRecord& record, const TraceFile& file);

/// The byte-stable text form: a `trace` header line with the counters,
/// `label` lines, then one format_record() line per record.
void write_text(std::ostream& out, const TraceFile& file);

}  // namespace hpas::trace

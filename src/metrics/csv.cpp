#include "metrics/csv.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>

namespace hpas::metrics {
namespace {

/// Appends `v` exactly as `os << v` prints it with default stream flags:
/// to_chars with a precision is specified as printf("%.6g").
void append_number(std::string& out, double v) {
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  out.append(buf, end);
}

/// The sorted distinct union of every column's timestamps. Of equal stamps
/// (0.0 and -0.0) the first in column order is the one printed.
std::vector<double> row_stamps(const std::vector<const TimeSeries*>& cols) {
  std::vector<double> stamps;
  if (cols.empty()) return stamps;
  const auto first = cols.front()->timestamps();
  const bool shared =
      std::all_of(cols.begin(), cols.end(), [&](const TimeSeries* ts) {
        return std::ranges::equal(ts->timestamps(), first);
      });
  if (shared) {
    stamps.assign(first.begin(), first.end());  // already sorted
  } else {
    for (const TimeSeries* ts : cols)
      stamps.insert(stamps.end(), ts->timestamps().begin(),
                    ts->timestamps().end());
    std::stable_sort(stamps.begin(), stamps.end());
  }
  stamps.erase(std::unique(stamps.begin(), stamps.end()), stamps.end());
  return stamps;
}

}  // namespace

void write_csv(std::ostream& os, const MetricStore& store) {
  // Encoded text goes out in chunks: a buffer holding the whole CSV would
  // sit beside the stream's own copy of it and raise peak memory.
  constexpr std::size_t kChunk = 16 * 1024;
  std::string out;
  out.reserve(kChunk + 1024);
  const auto flush = [&] {
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
  };

  const auto ids = store.metric_ids();
  std::vector<const TimeSeries*> cols;
  cols.reserve(ids.size());
  out += "timestamp";
  for (const auto& id : ids) {
    out += ',';
    out += id.full_name();
    cols.push_back(&store.series(id));
  }
  out += '\n';

  // Per-column cursors: a row takes the first sample at its stamp and the
  // cursor skips any later samples at the same stamp.
  const std::vector<double> stamps = row_stamps(cols);
  std::vector<std::size_t> cursor(cols.size(), 0);
  for (const double stamp : stamps) {
    if (out.size() >= kChunk) flush();
    append_number(out, stamp);
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const auto ts = cols[c]->timestamps();
      std::size_t& i = cursor[c];
      out += ',';
      if (i < ts.size() && ts[i] == stamp) {
        append_number(out, cols[c]->values()[i]);
        while (i < ts.size() && ts[i] == stamp) ++i;
      }
    }
    out += '\n';
  }
  flush();
}

}  // namespace hpas::metrics

#include "src/telemetry/export.h"

#include <ios>
#include <limits>

namespace mihn::telemetry {

size_t WriteCsv(const Collector& collector, std::ostream& out,
                const std::vector<std::string>& keys) {
  out << "time_ns,metric,value\n";
  // Enough digits that every value parses back to the stored double.
  const std::streamsize saved_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  size_t rows = 0;
  const std::vector<std::string> selected = keys.empty() ? collector.Keys() : keys;
  for (const std::string& key : selected) {
    const sim::TimeSeries* series = collector.Series(key);
    if (series == nullptr) {
      continue;
    }
    series->ForEach([&](const sim::TimePoint& p) {
      out << p.time.nanos() << "," << key << "," << p.value << "\n";
      ++rows;
    });
  }
  out.precision(saved_precision);
  return rows;
}

}  // namespace mihn::telemetry

// Telemetry export: long-format CSV (time_ns,metric,value) for offline
// analysis — the bridge from the in-host metric store to whatever fleet
// tooling consumes it.

#ifndef MIHN_SRC_TELEMETRY_EXPORT_H_
#define MIHN_SRC_TELEMETRY_EXPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/telemetry/collector.h"

namespace mihn::telemetry {

// Writes every retained point of the selected series (all series when
// |keys| is empty), oldest first per series, with a header row. Values are
// written with max_digits10 significant digits, so each parses back to the
// stored double bit for bit. Returns the number of data rows written.
size_t WriteCsv(const Collector& collector, std::ostream& out,
                const std::vector<std::string>& keys = {});

}  // namespace mihn::telemetry

#endif  // MIHN_SRC_TELEMETRY_EXPORT_H_

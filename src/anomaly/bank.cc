#include "src/anomaly/bank.h"

#include <utility>

namespace mihn::anomaly {

void DetectorBank::Attach(std::string metric_key, std::unique_ptr<Detector> detector) {
  Attachment a;
  a.metric = std::move(metric_key);
  a.detector = std::move(detector);
  attachments_.push_back(std::move(a));
}

std::vector<Anomaly> DetectorBank::Scan(const telemetry::Collector& collector) {
  std::vector<Anomaly> fired;
  for (Attachment& a : attachments_) {
    if (a.source != &collector) {
      const auto series = collector.Series(a.metric);
      if (!series) {
        a.source = nullptr;
        continue;
      }
      a.source = &collector;
      a.series = *series;
    }
    const telemetry::Collector::SeriesView series = a.series;
    for (size_t i = series.FirstAfter(a.last_seen); i < series.size(); ++i) {
      const sim::TimePoint p = series.At(i);
      a.last_seen = p.time;
      if (auto anomaly = a.detector->Observe(p.time, p.value)) {
        anomaly->metric = a.metric;
        anomaly->detail = a.detector->name() + ": " + anomaly->detail;
        fired.push_back(*anomaly);
        log_.push_back(*anomaly);
      }
    }
  }
  return fired;
}

void DetectorBank::Rebaseline() {
  for (Attachment& a : attachments_) {
    a.detector->Reset();
  }
}

}  // namespace mihn::anomaly

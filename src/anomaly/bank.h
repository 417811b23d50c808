// DetectorBank: attaches online detectors to Collector metric series and
// scans new samples — the assembled "platform for anomaly detection" of
// §3.1 (collector feeds it, detectors fire, the log accumulates).
//
// A scan costs the points that are new, not the series length: each
// attachment remembers the time of the last point it fed and reads on from
// FirstAfter(that time). Once its key resolves, an attachment also caches
// the collector's view of the series (a column of the frame or a sparse
// series), keyed by the collector it came from, so a steady scan does no
// key lookup.

#ifndef MIHN_SRC_ANOMALY_BANK_H_
#define MIHN_SRC_ANOMALY_BANK_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/anomaly/detectors.h"
#include "src/telemetry/collector.h"

namespace mihn::anomaly {

class DetectorBank {
 public:
  DetectorBank() = default;

  // Attaches |detector| to the metric series named |metric_key|. Multiple
  // detectors per metric are allowed.
  void Attach(std::string metric_key, std::unique_ptr<Detector> detector);

  // Feeds every not-yet-seen sample of every attached series through its
  // detectors: each retained point with a time later than the last one fed,
  // oldest first. Returns the anomalies fired by this scan (also appended to
  // log()). Call after (or periodically alongside) collector sampling. A
  // bank may scan several collectors; a collector must stay alive while the
  // bank can still scan it or another collector built at its address.
  std::vector<Anomaly> Scan(const telemetry::Collector& collector);

  // Resets every attached detector's learned state without re-scanning old
  // samples: each detector re-learns from the next sample onward. This is
  // the operator's "acknowledge and rebaseline" after a recovery action —
  // EwmaDetector deliberately keeps firing on a sustained shift (it never
  // absorbs anomalous samples), so a repair that leaves metrics at a new
  // legitimate level needs a rebaseline for the bank to go quiet.
  void Rebaseline();

  const std::vector<Anomaly>& log() const { return log_; }

 private:
  struct Attachment {
    std::string metric;
    std::unique_ptr<Detector> detector;
    // The metric's series in |source|; |source| is null until the key
    // resolves.
    const telemetry::Collector* source = nullptr;
    telemetry::Collector::SeriesView series{};
    sim::TimeNs last_seen = sim::TimeNs::Nanos(-1);
  };

  std::vector<Attachment> attachments_;
  std::vector<Anomaly> log_;
};

}  // namespace mihn::anomaly

#endif  // MIHN_SRC_ANOMALY_BANK_H_

#include "src/sim/reference_simulation.h"

#include <algorithm>
#include <utility>

#include "src/core/check.h"

namespace mihn::sim {

ReferenceSimulation::ReferenceSimulation(uint64_t seed) : root_rng_(seed) {}

ReferenceSimulation::Handle ReferenceSimulation::ScheduleAt(TimeNs at,
                                                            std::function<void()> fn,
                                                            const char* label) {
  if (at < now_) {
    at = now_;
  }
  auto flag = std::make_shared<bool>(false);
  queue_.push(Event{at, next_seq_++, std::move(fn), flag, label});
  return Handle(std::move(flag));
}

ReferenceSimulation::Handle ReferenceSimulation::ScheduleAfter(TimeNs delay,
                                                               std::function<void()> fn,
                                                               const char* label) {
  return ScheduleAt(now_ + delay, std::move(fn), label);
}

ReferenceSimulation::Handle ReferenceSimulation::SchedulePeriodic(
    TimeNs period, std::function<void()> fn, const char* label) {
  MIHN_CHECK(period > TimeNs::Zero());
  auto flag = std::make_shared<bool>(false);
  ArmPeriodic(period, std::make_shared<std::function<void()>>(std::move(fn)), flag, label);
  return Handle(std::move(flag));
}

void ReferenceSimulation::ArmPeriodic(TimeNs period,
                                      std::shared_ptr<std::function<void()>> fn,
                                      std::shared_ptr<bool> flag, const char* label) {
  queue_.push(Event{now_ + period, next_seq_++,
                    [this, period, fn, flag, label] {
                      if (*flag) {
                        return;
                      }
                      (*fn)();
                      if (*flag) {
                        return;
                      }
                      ArmPeriodic(period, fn, flag, label);
                    },
                    flag, label});
}

ReferenceSimulation::Handle ReferenceSimulation::AddPreAdvanceHook(
    std::function<void()> fn) {
  auto flag = std::make_shared<bool>(false);
  pre_advance_hooks_.emplace_back(flag, std::move(fn));
  return Handle(std::move(flag));
}

bool ReferenceSimulation::FirePreAdvanceHooks() {
  const uint64_t seq_before = next_seq_;
  // Index-based: a hook may register further hooks (reallocating the vector),
  // so take a copy of each callback before invoking it.
  for (size_t i = 0; i < pre_advance_hooks_.size(); ++i) {
    if (*pre_advance_hooks_[i].first) {
      continue;
    }
    const std::function<void()> fn = pre_advance_hooks_[i].second;
    fn();
  }
  std::erase_if(pre_advance_hooks_, [](const auto& hook) { return *hook.first; });
  return next_seq_ != seq_before;
}

size_t ReferenceSimulation::pending_events() const {
  return static_cast<size_t>(
      std::count_if(queue_.c.begin(), queue_.c.end(),
                    [](const Event& ev) { return !ev.cancelled || !*ev.cancelled; }));
}

bool ReferenceSimulation::Step(TimeNs deadline) {
  for (;;) {
    // Drop leading cancelled events so the advance decision below sees the
    // real next event time.
    while (!queue_.empty() && queue_.top().cancelled && *queue_.top().cancelled) {
      queue_.pop();
    }
    if (!pre_advance_hooks_.empty() && (queue_.empty() || queue_.top().at > now_)) {
      // End of this timestamp: let hooks settle coalesced work. They may
      // schedule events (possibly at now_), so re-evaluate if they did.
      if (FirePreAdvanceHooks()) {
        continue;
      }
    }
    if (queue_.empty() || queue_.top().at > deadline) {
      return false;
    }
    // priority_queue::top returns const&; the event is copied out before pop
    // so the callback can schedule new events (which may reallocate the heap).
    Event ev = queue_.top();
    queue_.pop();
    if (ev.cancelled && *ev.cancelled) {
      continue;
    }
    now_ = ev.at;
    ++events_executed_;
    if (observer_ != nullptr) {
      observer_->OnEventBegin(ev.label, now_, pending_events());
      ev.fn();
      observer_->OnEventEnd(ev.label, now_);
      return true;
    }
    ev.fn();
    return true;
  }
}

TimeNs ReferenceSimulation::Run() {
  stopped_ = false;
  while (!stopped_ && Step(TimeNs::Max())) {
  }
  return now_;
}

TimeNs ReferenceSimulation::RunUntil(TimeNs deadline) {
  stopped_ = false;
  while (!stopped_) {
    while (!queue_.empty() && queue_.top().cancelled && *queue_.top().cancelled) {
      queue_.pop();
    }
    if (queue_.empty() || queue_.top().at > deadline) {
      // Stopping short of the next event (or out of events) still advances
      // the clock below — give pre-advance hooks their end-of-timestamp
      // flush first; they may schedule events within the deadline.
      if (!pre_advance_hooks_.empty() && FirePreAdvanceHooks()) {
        continue;
      }
      // Nothing is left at or before the deadline. Only then may the clock
      // jump to it: after Stop() an event may still be due before it.
      if (now_ < deadline) {
        now_ = deadline;
      }
      break;
    }
    Step(deadline);
  }
  return now_;
}

TimeNs ReferenceSimulation::RunFor(TimeNs duration) { return RunUntil(now_ + duration); }

}  // namespace mihn::sim

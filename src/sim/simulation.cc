#include "src/sim/simulation.h"

#include <utility>

namespace mihn::sim {

Simulation::Simulation(uint64_t seed) : root_rng_(seed) {}

EventHandle Simulation::AddPreAdvanceHook(EventFn fn) {
  const uint32_t index = pool_.Allocate(std::move(fn), nullptr, 0);
  pre_advance_hooks_.push_back(index);
  return EventHandle(&pool_, index, pool_.generation(index));
}

bool Simulation::FirePreAdvanceHooks() {
  const uint64_t seq_before = next_seq_;
  // Index-based: a hook may register further hooks (growing the vector) or
  // schedule events (growing the pool slab). Payload chunks are
  // address-stable, so the callback runs in place either way.
  for (size_t i = 0; i < pre_advance_hooks_.size(); ++i) {
    const uint32_t index = pre_advance_hooks_[i];
    if ((pool_.meta(index).flags & EventPool::kCancelled) != 0) {
      continue;
    }
    pool_.payload(index).fn();
  }
  // Compact out cancelled hooks.
  size_t kept = 0;
  for (size_t i = 0; i < pre_advance_hooks_.size(); ++i) {
    const uint32_t index = pre_advance_hooks_[i];
    if ((pool_.meta(index).flags & EventPool::kCancelled) == 0) {
      pre_advance_hooks_[kept++] = index;
    } else {
      pool_.Free(index);
    }
  }
  pre_advance_hooks_.resize(kept);
  return next_seq_ != seq_before;
}

void Simulation::FinishFired(uint32_t index, bool periodic) {
  if (periodic && (pool_.meta(index).flags & EventPool::kCancelled) == 0) {
    // Re-arm in place: the callback never left its slot. The re-arm draws
    // its sequence number after the callback ran, so anything the callback
    // scheduled at the same future timestamp fires before the next
    // periodic tick — exactly as if the tick were re-scheduled by hand at
    // the end of the callback.
    queue_.Push({now_ + pool_.payload(index).period, next_seq_++, index});
    return;
  }
  pool_.Free(index);
}

bool Simulation::Step(TimeNs deadline) {
  for (;;) {
    if (!pre_advance_hooks_.empty() && (queue_.empty() || queue_.Min().at > now_)) {
      // End of this timestamp: let hooks settle coalesced work. They may
      // schedule events (possibly at now_), so re-evaluate if they did.
      if (FirePreAdvanceHooks()) {
        continue;
      }
    }
    if (queue_.empty() || queue_.Min().at > deadline) {
      return false;
    }
    const QueueEntry entry = queue_.PopMin();
    // Cancel() takes an event out of the queue, so only live events pop.
    MIHN_DCHECK((pool_.meta(entry.slot).flags & EventPool::kCancelled) == 0);
    now_ = entry.at;
    ++events_executed_;
    // The callback runs in place — payload chunks are address-stable, so a
    // callback that schedules events (growing the pool) cannot move itself
    // mid-execution, and a periodic's closure survives its own firing
    // without a move-out/restore round trip. The label is copied out for
    // the observer's end callback (the slot may be retired by then).
    const bool periodic = (pool_.meta(entry.slot).flags & EventPool::kPeriodic) != 0;
    EventPool::Payload& p = pool_.payload(entry.slot);
    const char* label = p.label;
    EventObserver* const observer = observer_;
    if (observer != nullptr) {
      observer->OnEventBegin(label, now_, queue_.size());
      p.fn();
      FinishFired(entry.slot, periodic);
      observer->OnEventEnd(label, now_);
      return true;
    }
    p.fn();
    FinishFired(entry.slot, periodic);
    return true;
  }
}

TimeNs Simulation::Run() {
  stopped_ = false;
  while (!stopped_ && Step(TimeNs::Max())) {
  }
  return now_;
}

TimeNs Simulation::RunUntil(TimeNs deadline) {
  stopped_ = false;
  while (!stopped_) {
    if (queue_.empty() || queue_.Min().at > deadline) {
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

TimeNs Simulation::RunFor(TimeNs duration) { return RunUntil(now_ + duration); }

}  // namespace mihn::sim

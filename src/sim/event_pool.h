// EventPool: the slab allocator behind the simulation's event queue, plus
// the generation-counted EventHandle that replaces the old
// shared_ptr<bool> cancellation flag.
//
// Every scheduled event (and every pre-advance hook) occupies one pooled
// slot, split across two parallel arrays:
//
//   Meta (16 bytes, four per cache line) — generation counter, free-list
//     link and lifecycle flags: everything the dispatch loop's bookkeeping
//     (allocate, cancel checks, queued/live accounting, free) reads and
//     writes. Keeping these dense matters: under load the slab spans
//     megabytes and slot indices arrive in allocation order, not address
//     order, so every slot touch is a potential cache miss — a miss on a
//     16-byte record costs a quarter of the line a fat struct would.
//   Payload (cold) — the callback, the static label and the periodic
//     re-arm interval: read only when the event actually fires.
//
// Freed slots are chained through an intrusive free list and reused, so a
// steady-state schedule/fire mix performs zero heap allocations once the
// pool has reached its high-water mark. A slot's generation counter is
// bumped on every Free(): an EventHandle is just {pool, index, generation},
// and a handle whose generation no longer matches is inert — Cancel() and
// IsCancelled() stay O(1) and safe after the event fired and the slot was
// recycled.
//
// The pool also owns the engine's exact live-pending count: slots queued
// and not cancelled. Cancel() decrements it immediately, which is what lets
// Simulation::pending_events() report the true count instead of the old
// lazily-deleted overcount. When the cancelled event still sits in an
// unsorted calendar bucket, Cancel() goes further: it swap-removes the
// queue entry (CalendarQueue::TryRemove) and reclaims the slot on the spot,
// so the dispatch loop never pops a tombstone for it. The slot's
// cancelled_generation keeps IsCancelled() truthful after that eager
// reclaim: it remembers which generation was cancelled until the slot is
// next cancelled under a new life.

#ifndef MIHN_SRC_SIM_EVENT_POOL_H_
#define MIHN_SRC_SIM_EVENT_POOL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/calendar_queue.h"
#include "src/sim/inline_fn.h"
#include "src/sim/time.h"

namespace mihn::sim {

class EventPool {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  // Slot lifecycle flags.
  static constexpr uint32_t kInUse = 1u << 0;
  static constexpr uint32_t kCancelled = 1u << 1;
  static constexpr uint32_t kQueued = 1u << 2;     // Has a calendar-queue entry.
  static constexpr uint32_t kPeriodic = 1u << 3;   // Re-arms in place after firing.
  static constexpr uint32_t kHook = 1u << 4;       // Pre-advance hook, never queued.

  // Hot per-slot bookkeeping. 16 bytes — keep it that way.
  struct Meta {
    uint32_t generation = 1;
    uint32_t cancelled_generation = 0;  // Last generation to be cancelled.
    uint32_t next_free = kNoSlot;
    uint32_t flags = 0;
  };

  // Cold per-slot state, read only when the event fires (or re-arms).
  // Payloads live in fixed-size chunks whose addresses never change, so the
  // dispatch loop can invoke a callback *in place* — no move-out before the
  // call, no restore after — even if the callback schedules events that
  // grow the pool mid-execution.
  struct Payload {
    EventFn fn;
    TimeNs period;                // Periodic events only.
    const char* label = nullptr;  // Static scheduling-site tag.
  };

  // Wires up the queue for eager cancellation removal (see CancelHandle).
  void BindQueue(CalendarQueue* queue) { queue_ = queue; }

  // Claims a slot (recycling the free list before growing the slab) and
  // constructs the callback directly in it — a lambda at a scheduling site
  // materialises in its pooled slot with zero intermediate copies. Passing
  // kQueued in |flags| counts the slot live immediately (one Meta write
  // instead of an Allocate + MarkQueued pair).
  template <typename F>
  uint32_t Allocate(F&& fn, const char* label, uint32_t flags) {
    uint32_t index;
    if (free_head_ != kNoSlot) {
      index = free_head_;
      free_head_ = metas_[index].next_free;
    } else {
      index = static_cast<uint32_t>(metas_.size());
      metas_.emplace_back();
      if ((static_cast<size_t>(index) >> kChunkShift) == payload_chunks_.size()) {
        payload_chunks_.emplace_back(new Payload[kChunkSize]);
      }
    }
    Meta& m = metas_[index];
    m.flags = kInUse | flags;
    m.next_free = kNoSlot;
    live_pending_ += (flags & kQueued) != 0 ? 1 : 0;
    Payload& p = payload(index);
    p.fn.Emplace(std::forward<F>(fn));  // Also destroys any stale occupant.
    p.label = label;
    return index;
  }

  // Retires a slot: bumps the generation (stale handles go inert) and
  // pushes the slot onto the free list. Deliberately touches only the hot
  // Meta record: a still-live callback (eagerly-reclaimed cancellation) is
  // destroyed lazily, when the slot is next allocated and the move-assign
  // into it resets the old occupant — the free list is LIFO, so that is
  // soon. The old engine held cancelled closures until their tombstone
  // finally popped, so this defers no longer than before; it just avoids
  // re-touching a long-evicted payload cache line on the cancel path.
  void Free(uint32_t index) {
    Meta& m = metas_[index];
    m.flags = 0;
    ++m.generation;
    m.next_free = free_head_;
    free_head_ = index;
  }

  Meta& meta(uint32_t index) { return metas_[index]; }
  const Meta& meta(uint32_t index) const { return metas_[index]; }
  Payload& payload(uint32_t index) {
    return payload_chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  // Pulls a slot's hot and cold lines toward the cache. The dispatch loop
  // issues this for the *next* event before invoking the current callback,
  // so the callback's execution hides what would otherwise be two
  // demand misses on a multi-megabyte slab.
  void Prefetch(uint32_t index) const {
    __builtin_prefetch(&metas_[index]);
    __builtin_prefetch(
        &payload_chunks_[index >> kChunkShift][index & (kChunkSize - 1)]);
  }

  uint32_t generation(uint32_t index) const { return metas_[index].generation; }

  // Marks a slot as having a queue entry and counts it live.
  void MarkQueued(uint32_t index) {
    metas_[index].flags |= kQueued;
    ++live_pending_;
  }

  // Clears the queued flag when its entry is popped. Returns true when the
  // slot is live (not cancelled) — i.e. the pop is a real firing. A
  // cancelled slot already left the live count at Cancel() time.
  bool UnmarkQueued(uint32_t index) {
    Meta& m = metas_[index];
    m.flags &= ~kQueued;
    if ((m.flags & kCancelled) != 0) {
      return false;
    }
    --live_pending_;
    return true;
  }

  // Handle-facing cancellation. Inert for stale generations; O(1). When the
  // event's queue entry is still swap-removable (unsorted future bucket),
  // entry and slot are reclaimed immediately — no tombstone ever reaches
  // the dispatch loop. Otherwise the slot is left flagged for lazy
  // deletion by PurgeCancelledMin/Step.
  void CancelHandle(uint32_t index, uint32_t generation) {
    if (index >= metas_.size()) {
      return;
    }
    Meta& m = metas_[index];
    if (m.generation != generation || (m.flags & kInUse) == 0 ||
        (m.flags & kCancelled) != 0) {
      return;
    }
    m.flags |= kCancelled;
    m.cancelled_generation = generation;
    if ((m.flags & kQueued) != 0) {
      --live_pending_;
      if (queue_ != nullptr && queue_->TryRemove(index)) {
        Free(index);
      }
    }
  }

  bool HandleCancelled(uint32_t index, uint32_t generation) const {
    if (index >= metas_.size()) {
      return false;
    }
    const Meta& m = metas_[index];
    if (m.generation == generation) {
      return (m.flags & kInUse) != 0 && (m.flags & kCancelled) != 0;
    }
    // The slot moved on (eager reclaim or tombstone pop); the cancellation
    // record survives until the slot's next life is itself cancelled.
    return m.cancelled_generation == generation;
  }

  // Pre-sizes the slab so growth never reallocates mid-run (Allocate still
  // extends size() up to the reserved capacity without touching the heap).
  void Reserve(size_t n) {
    metas_.reserve(n);
    while (payload_chunks_.size() * kChunkSize < n) {
      payload_chunks_.emplace_back(new Payload[kChunkSize]);
    }
  }

  // Exact number of pending (queued, not cancelled) events.
  size_t live_pending() const { return live_pending_; }

  // Slab capacity (tests/benchmarks: high-water mark of concurrent slots).
  size_t capacity() const { return metas_.size(); }

 private:
  // Small chunks keep an idle clock cheap: a fleet builds one Simulation
  // per host, and most of them schedule a handful of events at most.
  static constexpr size_t kChunkShift = 4;  // 16 payloads (~1.5KB) per chunk.
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  std::vector<Meta> metas_;
  std::vector<std::unique_ptr<Payload[]>> payload_chunks_;
  CalendarQueue* queue_ = nullptr;
  uint32_t free_head_ = kNoSlot;
  size_t live_pending_ = 0;
};

// Cancellation handle for a scheduled event or pre-advance hook. Copyable;
// cancelling any copy cancels the event. A default-constructed handle is
// inert. Once the event has fired every handle to it goes inert: Cancel()
// is a no-op and IsCancelled() reports false. A cancelled (never-fired)
// event keeps reporting IsCancelled() until its slot is recycled into a new
// cancelled life. Handles must not outlive the Simulation that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  // Prevents the event from firing. Safe to call more than once or after
  // the event has fired (then a no-op).
  void Cancel() {
    if (pool_ != nullptr) {
      pool_->CancelHandle(index_, generation_);
    }
  }

  // True once Cancel() has taken effect (see class comment for lifetime).
  bool IsCancelled() const {
    return pool_ != nullptr && pool_->HandleCancelled(index_, generation_);
  }

 private:
  friend class Simulation;
  EventHandle(EventPool* pool, uint32_t index, uint32_t generation)
      : pool_(pool), index_(index), generation_(generation) {}

  EventPool* pool_ = nullptr;
  uint32_t index_ = 0;
  uint32_t generation_ = 0;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_EVENT_POOL_H_

// EventPool: the slab allocator behind the simulation's event queue, plus
// the generation-counted EventHandle that replaces the old
// shared_ptr<bool> cancellation flag.
//
// Every scheduled event (and every pre-advance hook) occupies one pooled
// slot, split across two parallel arrays:
//
//   Meta (16 bytes, four per cache line) — generation counter, free-list
//     link and lifecycle flags: everything the dispatch loop's bookkeeping
//     (allocate, cancel checks, free) reads and writes. Keeping these dense
//     matters: under load the slab spans megabytes and slot indices arrive
//     in allocation order, not address order, so every slot touch is a
//     potential cache miss — a miss on a 16-byte record costs a quarter of
//     the line a fat struct would.
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
// Cancelling a queued event removes its queue entry (EventQueue::Remove)
// and frees the slot on the spot, so the dispatch loop never pops a
// cancelled event and every queued entry is live. The slot's
// cancelled_generation keeps IsCancelled() truthful after that: it
// remembers which generation was cancelled until the slot is next
// cancelled under a new life.

#ifndef MIHN_SRC_SIM_EVENT_POOL_H_
#define MIHN_SRC_SIM_EVENT_POOL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/inline_fn.h"
#include "src/sim/time.h"

namespace mihn::sim {

class EventPool {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  // Slot lifecycle flags.
  static constexpr uint32_t kInUse = 1u << 0;
  static constexpr uint32_t kCancelled = 1u << 1;
  static constexpr uint32_t kPeriodic = 1u << 2;  // Re-arms in place after firing.

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

  // |queue| is where the pool's events wait; CancelHandle removes from it.
  explicit EventPool(EventQueue* queue) : queue_(queue) {}

  // Claims a slot (recycling the free list before growing the slab) and
  // constructs the callback directly in it — a lambda at a scheduling site
  // materialises in its pooled slot with zero intermediate copies.
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
    Payload& p = payload(index);
    p.fn.Emplace(std::forward<F>(fn));  // Also destroys any stale occupant.
    p.label = label;
    return index;
  }

  // Retires a slot: bumps the generation (stale handles go inert) and
  // pushes the slot onto the free list. Deliberately touches only the hot
  // Meta record: the callback is destroyed lazily, when the slot is next
  // allocated and the emplace into it resets the old occupant — the free
  // list is LIFO, so that is soon. Destroying it here would make the cancel
  // path touch a payload cache line it otherwise never reads.
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

  uint32_t generation(uint32_t index) const { return metas_[index].generation; }

  // Handle-facing cancellation. Inert for stale generations. A queued
  // event leaves the queue and its slot is freed at once; a firing event
  // or a hook is only flagged, and its owner frees the slot.
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
    if (queue_->Remove(index)) {
      Free(index);
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
    // The slot moved on; the cancellation record survives until the
    // slot's next life is itself cancelled.
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

  // Slab capacity (tests/benchmarks: high-water mark of concurrent slots).
  size_t capacity() const { return metas_.size(); }

 private:
  // Small chunks keep an idle clock cheap: a fleet builds one Simulation
  // per host, and most of them schedule a handful of events at most.
  static constexpr size_t kChunkShift = 4;  // 16 payloads (~1.5KB) per chunk.
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  std::vector<Meta> metas_;
  std::vector<std::unique_ptr<Payload[]>> payload_chunks_;
  EventQueue* queue_;
  uint32_t free_head_ = kNoSlot;
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

// EventQueue: the simulation's pending-event queue.
//
// One binary min-heap of 24-byte {at, seq, slot} entries that point into
// the EventPool slab, plus a slot-to-position table so the entry of any
// queued slot can be removed in O(log n). Cancellation uses that: every
// cancelled event leaves the queue at Cancel() time, so the dispatch loop
// only ever pops events that fire.
//
// Order is exactly (at, seq): seq is unique, so the key is a total order
// and the pop sequence is a pure function of the pushed entries, whatever
// the heap's shape. The repo's workloads keep at most a few dozen events
// pending (DESIGN.md §5), so the heap spans a few cache lines.
// Storage grows to a high-water mark and is then reused: steady-state
// push/pop/remove performs zero heap allocations.

#ifndef MIHN_SRC_SIM_EVENT_QUEUE_H_
#define MIHN_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace mihn::sim {

struct QueueEntry {
  TimeNs at;
  uint64_t seq = 0;
  uint32_t slot = 0;  // EventPool slot index.
};

class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Pre-sizes the heap for |n| entries and the position table for slots
  // below |n|, so a workload that stays within them never allocates.
  void Reserve(size_t n) {
    heap_.reserve(n);
    if (pos_.size() < n) {
      pos_.resize(n, kNotQueued);
    }
  }

  void Push(QueueEntry entry) {
    if (entry.slot >= pos_.size()) {
      pos_.resize(static_cast<size_t>(entry.slot) + 1, kNotQueued);
    }
    heap_.push_back(entry);
    SiftUp(heap_.size() - 1, entry);
  }

  // The (at, seq)-minimum entry. Requires !empty().
  const QueueEntry& Min() const { return heap_.front(); }

  QueueEntry PopMin() {
    const QueueEntry min = heap_.front();
    pos_[min.slot] = kNotQueued;
    const QueueEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(0, last);
    }
    return min;
  }

  // Removes the entry of |slot|. Returns false when |slot| has none.
  bool Remove(uint32_t slot) {
    if (slot >= pos_.size() || pos_[slot] == kNotQueued) {
      return false;
    }
    const size_t i = pos_[slot];
    pos_[slot] = kNotQueued;
    const QueueEntry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      // |last| fills the hole; it may belong above or below it.
      if (i > 0 && Before(last, heap_[(i - 1) / 2])) {
        SiftUp(i, last);
      } else {
        SiftDown(i, last);
      }
    }
    return true;
  }

 private:
  static constexpr uint32_t kNotQueued = 0xffffffffu;

  static bool Before(const QueueEntry& a, const QueueEntry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  void Place(size_t i, const QueueEntry& entry) {
    heap_[i] = entry;
    pos_[entry.slot] = static_cast<uint32_t>(i);
  }

  // Moves |entry| from hole |i| toward the root until its parent is before it.
  void SiftUp(size_t i, const QueueEntry& entry) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Before(entry, heap_[parent])) {
        break;
      }
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, entry);
  }

  // Moves |entry| from hole |i| toward the leaves until no child is before it.
  void SiftDown(size_t i, const QueueEntry& entry) {
    const size_t n = heap_.size();
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
        ++child;
      }
      if (!Before(heap_[child], entry)) {
        break;
      }
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, entry);
  }

  std::vector<QueueEntry> heap_;
  // Slot index -> heap index, kNotQueued when the slot has no entry.
  std::vector<uint32_t> pos_;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_EVENT_QUEUE_H_

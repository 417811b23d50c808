// CalendarQueue: the deterministic two-level timer wheel behind the
// simulation's pending-event queue.
//
// The old engine kept whole Event objects (closure included) in a binary
// std::priority_queue; every top() copied the event — re-allocating the
// closure — and every sift moved 48-byte records across log2(n) levels.
// Here the queue holds only 24-byte {at, seq, slot} entries that point into
// the EventPool slab, structured as a calendar:
//
//   Level 1 — a ring of kNumBuckets buckets of width 2^bucket_shift ns
//     covering the window [window_start, window_start + span), allocated
//     on first use. Buckets are
//     plain unsorted vectors while they sit in the future — pushing is an
//     O(1) push_back — and are heapified by (at, seq) exactly once, when
//     the cursor reaches them (std::make_heap is O(n), cheaper than n
//     incremental push_heap sifts). Only the single active bucket is ever
//     a heap.
//   Level 2 — an overflow tier: one min-heap holding every entry at or
//     beyond the window. When the in-window buckets drain, the window jumps
//     (aligned, monotonically forward) to the overflow minimum and entries
//     that now fall inside it migrate into their buckets.
//
// Entries in unsorted future buckets are also *removable*: a side table
// maps each pool slot to its current bucket/position, so cancelling an
// event that has not reached the active bucket is a swap-remove — no
// tombstone is left to pop, purge, and reclaim later. Entries that are
// already in the active heap (or the overflow heap, where positions churn
// with every sift) fall back to the lazy-deletion path. Under
// cancellation-heavy load this removes roughly one heap pop + one slab
// touch per cancelled event from the dispatch loop.
//
// Ordering is exactly (at, seq) — bit-identical to the old comparator: the
// global minimum is always the top of the first non-empty bucket at or
// after the cursor (bucket ranges are disjoint and monotone; entries
// clamped into bucket 0 after a window jump are strictly older than
// everything else), and equal-timestamp entries always share a bucket where
// the heap comparator breaks the tie by seq. Heapifying a bucket only when
// it becomes active cannot change that order: a bucket's contents are fixed
// by the pushed entries, not by when the heap property is established
// (removed entries were cancelled, so they could never fire). Everything
// here is a pure function of the pushed entries — no wall clock, no
// hashing — and all storage (buckets, overflow, position table) grows to a
// high-water mark and is then reused: steady-state push/pop/remove performs
// zero heap allocations.

#ifndef MIHN_SRC_SIM_CALENDAR_QUEUE_H_
#define MIHN_SRC_SIM_CALENDAR_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace mihn::sim {

struct CalendarEntry {
  TimeNs at;
  uint64_t seq = 0;
  uint32_t slot = 0;  // EventPool slot index.
};

class CalendarQueue {
 public:
  // |bucket_shift|: bucket width is 2^shift nanoseconds. The default 10
  // (1.024us buckets, ~262us window) suits the repo's fabric workloads —
  // transfer completions tens of ns to tens of us apart, telemetry and
  // arbiter periodics in the overflow tier.
  // The bucket ring is allocated on first use (the first in-window push,
  // overflow migration or Reserve), so an idle queue, such as the clock of
  // a fleet host that schedules nothing, costs no ring.
  explicit CalendarQueue(int bucket_shift = 10) : bucket_shift_(bucket_shift) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Pre-sizes every bucket, the overflow tier and the position table.
  // Without this the queue still converges to a high-water mark organically,
  // but a workload whose per-bucket occupancy hovers near a vector growth
  // boundary can trip one late reallocation; reserving up front makes "no
  // allocations from here on" unconditional. Cost: kNumBuckets * per_bucket
  // entries of capacity — size accordingly (per_bucket bounds *concurrent*
  // entries per 2^shift-ns slice, not total events). |slots| is the highest
  // pool slot index expected (one position-table row per slot).
  void Reserve(size_t per_bucket, size_t overflow, size_t slots) {
    EnsureBuckets();
    for (std::vector<CalendarEntry>& bucket : buckets_) {
      bucket.reserve(per_bucket);
    }
    overflow_.reserve(overflow);
    if (pos_.size() < slots) {
      pos_.resize(slots, Pos{kUntracked, 0});
    }
  }

  void Push(CalendarEntry entry) {
    const int64_t at = entry.at.nanos();
    if (entry.slot >= pos_.size()) {
      GrowPos(entry.slot);
    }
    if (at >= WindowEnd()) {
      overflow_.push_back(entry);
      std::push_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
      pos_[entry.slot] = Pos{kUntracked, 0};
    } else {
      // Entries below the window (a schedule at now_ after the window
      // jumped forward) clamp into bucket 0: strictly older than every
      // in-window entry, so min-scan order is preserved.
      const size_t b = at < window_start_
                           ? 0
                           : static_cast<size_t>((at - window_start_) >>
                                                 bucket_shift_);
      EnsureBuckets();
      std::vector<CalendarEntry>& bucket = buckets_[b];
      bucket.push_back(entry);
      if (b == heaped_) {
        // The active bucket keeps its heap invariant incrementally; its
        // positions churn with every sift, so entries there are untracked.
        std::push_heap(bucket.begin(), bucket.end(), EntryAfter{});
        pos_[entry.slot] = Pos{kUntracked, 0};
      } else {
        pos_[entry.slot] =
            Pos{static_cast<uint32_t>(b), static_cast<uint32_t>(bucket.size() - 1)};
      }
      ++in_window_;
      cursor_ = std::min(cursor_, b);
    }
    ++size_;
  }

  // Removes the entry for |slot| if it still sits in an unsorted future
  // bucket (O(1) swap-remove). Returns false — leaving the entry for lazy
  // deletion — when the entry is in the active heap, in the overflow tier,
  // or not in the queue at all. Only call for slots known to be queued.
  bool TryRemove(uint32_t slot) {
    if (slot >= pos_.size()) {
      return false;
    }
    const Pos p = pos_[slot];
    if (p.bucket == kUntracked) {
      return false;
    }
    std::vector<CalendarEntry>& bucket = buckets_[p.bucket];
    bucket[p.index] = bucket.back();
    if (bucket[p.index].slot != slot) {  // Patch the entry that moved.
      pos_[bucket[p.index].slot] = p;
    }
    bucket.pop_back();
    pos_[slot] = Pos{kUntracked, 0};
    --in_window_;
    --size_;
    return true;
  }

  // The (at, seq)-minimum entry. Requires !empty().
  const CalendarEntry& Min() {
    SettleMin();
    return buckets_[cursor_].front();
  }

  CalendarEntry PopMin() {
    SettleMin();
    std::vector<CalendarEntry>& bucket = buckets_[cursor_];
    std::pop_heap(bucket.begin(), bucket.end(), EntryAfter{});
    const CalendarEntry entry = bucket.back();
    bucket.pop_back();
    --in_window_;
    --size_;
    return entry;
  }

 private:
  static constexpr size_t kNumBuckets = 256;  // Power of two.
  static constexpr uint32_t kUntracked = 0xffffffffu;
  static constexpr size_t kNoHeap = static_cast<size_t>(-1);

  // Where a slot's entry currently lives. bucket == kUntracked covers
  // everything the swap-remove path cannot reach: overflow entries, entries
  // in the active heap, and slots not presently queued.
  struct Pos {
    uint32_t bucket;
    uint32_t index;
  };

  // Min-heap comparator: a sorts after b.
  struct EntryAfter {
    bool operator()(const CalendarEntry& a, const CalendarEntry& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  int64_t Span() const {
    return static_cast<int64_t>(kNumBuckets) << bucket_shift_;
  }
  int64_t WindowEnd() const { return window_start_ + Span(); }

  void EnsureBuckets() {
    if (buckets_.empty()) {
      buckets_.resize(kNumBuckets);
    }
  }

  void GrowPos(uint32_t slot) {
    size_t n = pos_.size() < 64 ? 64 : pos_.size() * 2;
    if (n <= slot) {
      n = static_cast<size_t>(slot) + 1;
    }
    pos_.resize(n, Pos{kUntracked, 0});
  }

  // Establishes the heap invariant on bucket |b| and untracks its entries
  // (their positions churn with every sift from here on).
  void Heapify(size_t b) {
    std::vector<CalendarEntry>& bucket = buckets_[b];
    std::make_heap(bucket.begin(), bucket.end(), EntryAfter{});
    for (const CalendarEntry& entry : bucket) {
      pos_[entry.slot] = Pos{kUntracked, 0};
    }
    heaped_ = b;
  }

  // Positions cursor_ on the bucket holding the global minimum — heapified,
  // ready to pop — jumping the window forward (and migrating overflow
  // entries) when in-window buckets are empty. Requires size_ > 0.
  void SettleMin() {
    for (;;) {
      if (in_window_ > 0) {
        while (buckets_[cursor_].empty()) {
          ++cursor_;
        }
        if (cursor_ != heaped_) {
          Heapify(cursor_);
        }
        return;
      }
      // All buckets drained: jump to the overflow minimum's window. The
      // jump is aligned down to a span boundary so bucket indices stay a
      // pure function of the timestamp. Migrated entries land unsorted and
      // tracked; the bucket the cursor settles on is heapified above.
      heaped_ = kNoHeap;
      EnsureBuckets();
      const int64_t min_at = overflow_.front().at.nanos();
      window_start_ = min_at - (min_at % Span());
      cursor_ = static_cast<size_t>((min_at - window_start_) >> bucket_shift_);
      const int64_t window_end = WindowEnd();
      while (!overflow_.empty() && overflow_.front().at.nanos() < window_end) {
        std::pop_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
        const CalendarEntry entry = overflow_.back();
        overflow_.pop_back();
        const size_t b = static_cast<size_t>(
            (entry.at.nanos() - window_start_) >> bucket_shift_);
        std::vector<CalendarEntry>& bucket = buckets_[b];
        bucket.push_back(entry);
        pos_[entry.slot] =
            Pos{static_cast<uint32_t>(b), static_cast<uint32_t>(bucket.size() - 1)};
        ++in_window_;
        cursor_ = std::min(cursor_, b);
      }
    }
  }

  const int bucket_shift_;
  int64_t window_start_ = 0;
  size_t cursor_ = 0;
  // The one bucket currently kept as a heap.
  size_t heaped_ = kNoHeap;
  size_t in_window_ = 0;
  size_t size_ = 0;
  // kNumBuckets long once allocated; empty until then.
  std::vector<std::vector<CalendarEntry>> buckets_;
  // Min-heap via EntryAfter.
  std::vector<CalendarEntry> overflow_;
  // Slot index -> current location.
  std::vector<Pos> pos_;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_CALENDAR_QUEUE_H_

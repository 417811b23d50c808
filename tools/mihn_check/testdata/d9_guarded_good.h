// Fixture: a fully annotated monitor (guarded, const, constexpr, atomic and
// suppressed members) plus an unannotated class D9 leaves alone.
#ifndef MIHN_D9_GUARDED_GOOD_H_
#define MIHN_D9_GUARDED_GOOD_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/core/worker_pool.h"

namespace fixture {

class Ring {
 public:
  void Push(int v) {
    mihn::core::SyncMutexLock lock(&mu_);
    buf_.push_back(v);
    ++writes_;
  }

 private:
  mihn::core::SyncMutex mu_;
  std::vector<int> buf_ MIHN_GUARDED_BY(mu_);
  uint64_t writes_ MIHN_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> drops_{0};   // OK: atomic.
  const int capacity_ = 8;           // OK: const.
  static constexpr int kShards = 4;  // OK: constexpr.
  // mihn-check: guarded-ok(reader-owned scratch, never shared across threads)
  std::vector<int> scratch_;
};

// SyncMutex (and the std::mutex it wraps) is the capability itself, exempt
// from guarding; guarded state still annotates.
class Pool {
 public:
  void Bump() {
    mihn::core::SyncMutexLock lock(&mu_);
    ++rounds_;
  }

 private:
  mihn::core::SyncMutex mu_;
  std::mutex raw_mu_;  // OK: a lock, not guarded state.
  uint64_t rounds_ MIHN_GUARDED_BY(mu_) = 0;
};

// No mutex, no annotations: D9 does not apply.
class Plain {
 public:
  int value() const { return value_; }

 private:
  int value_ = 0;
};

}  // namespace fixture

#endif  // MIHN_D9_GUARDED_GOOD_H_

// Fixture: a class that opted into thread-safety annotations but left
// mutable members unguarded.
#ifndef MIHN_D9_GUARDED_BAD_H_
#define MIHN_D9_GUARDED_BAD_H_

#include <cstdint>
#include <vector>

#include "src/core/worker_pool.h"

namespace fixture {

class Ring {
 public:
  // Callers hold mu_.
  void Push(int v) MIHN_REQUIRES(mu_) {
    buf_.push_back(v);
    ++writes_;
  }

 private:
  mihn::core::SyncMutex mu_;
  std::vector<int> buf_;    // BAD: no MIHN_GUARDED_BY.
  uint64_t writes_ = 0;     // BAD: no MIHN_GUARDED_BY.
  const int capacity_ = 8;  // OK: const.
};

// A SyncMutex member alone opts a class in.
class Pool {
 private:
  mihn::core::SyncMutex mu_;  // OK: the capability itself.
  int pending_ = 0;           // BAD: no MIHN_GUARDED_BY.
};

}  // namespace fixture

#endif  // MIHN_D9_GUARDED_BAD_H_

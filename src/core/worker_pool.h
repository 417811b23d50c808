// A persistent worker pool for deterministic fan-out over index ranges.
//
// The fleet tick repeats the same shape every millisecond of virtual time:
// run a host-local function over hosts [0, N), then merge the results in
// host order. Spawning std::threads per tick made that *slower* than serial
// below ~256 hosts (thread start/join costs more than the work); WorkerPool
// amortizes thread creation across the whole fleet lifetime and reuses one
// barrier per round.
//
// Determinism contract: ParallelFor(n, body) partitions [0, n) into
// parallelism() contiguous chunks — chunk t is [n*t/P, n*(t+1)/P) — and the
// partition depends only on (n, parallelism()). Work never migrates between
// chunks, so any per-chunk effects land on a fixed index range regardless
// of scheduling; callers that merge chunk results in index order get
// byte-identical output across runs and worker counts.
//
// By default the pool clamps parallelism to the machine's core count —
// oversubscribing compute-bound chunks only adds context switches. Tests
// that must exercise real cross-thread execution on small machines pass
// clamp_to_hardware = false.
//
// SyncMutex below is a real std::mutex and the only lock in the tree: the
// pool is the one place where threads actually contend. Everything a round
// body touches is partitioned by chunk, so no other structure needs one.

#ifndef MIHN_SRC_CORE_WORKER_POOL_H_
#define MIHN_SRC_CORE_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/thread_annotations.h"

namespace mihn::core {

// A real lock carrying clang thread-safety capabilities, so pool state is
// policed by -Wthread-safety and mihn-check D9.
class MIHN_CAPABILITY("mutex") SyncMutex {
 public:
  SyncMutex() = default;
  SyncMutex(const SyncMutex&) = delete;
  SyncMutex& operator=(const SyncMutex&) = delete;

  void Lock() MIHN_ACQUIRE() { mu_.lock(); }
  void Unlock() MIHN_RELEASE() { mu_.unlock(); }

  // BasicLockable surface so std::condition_variable_any can release and
  // re-acquire around a wait. TSA cannot see through the condvar; Wait()
  // carries the annotation for callers instead.
  void lock() MIHN_NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
  void unlock() MIHN_NO_THREAD_SAFETY_ANALYSIS { mu_.unlock(); }

  // Atomically releases this lock, blocks on |cv|, and re-acquires. Callers
  // wrap it in the usual predicate loop.
  void Wait(std::condition_variable_any& cv) MIHN_REQUIRES(this) { cv.wait(*this); }

 private:
  std::mutex mu_;
};

// RAII lock scope over SyncMutex.
class MIHN_SCOPED_CAPABILITY SyncMutexLock {
 public:
  explicit SyncMutexLock(SyncMutex* mu) MIHN_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~SyncMutexLock() MIHN_RELEASE() { mu_->Unlock(); }
  SyncMutexLock(const SyncMutexLock&) = delete;
  SyncMutexLock& operator=(const SyncMutexLock&) = delete;

 private:
  SyncMutex* const mu_;
};

class WorkerPool {
 public:
  // A pool of parallelism P runs P - 1 persistent helper threads; the
  // calling thread participates in every round as worker 0, so parallelism
  // 1 means "no helpers, run inline" (and 0 is treated as 1).
  explicit WorkerPool(int parallelism, bool clamp_to_hardware = true)
      : parallelism_(ClampParallelism(parallelism, clamp_to_hardware)) {
    workers_.reserve(static_cast<size_t>(parallelism_ - 1));
    for (int chunk = 1; chunk < parallelism_; ++chunk) {
      workers_.emplace_back([this, chunk] { WorkerLoop(chunk); });
    }
  }

  ~WorkerPool() {
    {
      SyncMutexLock lock(&mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int parallelism() const { return parallelism_; }

  // Invokes body(begin, end) once per non-empty chunk of [0, n) and blocks
  // until every chunk has finished. |body| must be safe to run concurrently
  // on disjoint ranges and must not throw or re-enter ParallelFor. The
  // caller runs chunk 0 inline; helper t always runs chunk t, so with
  // n >= parallelism() every pool thread executes work each round.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body) {
    if (parallelism_ == 1 || n == 0) {
      if (n != 0) {
        body(0, n);
      }
      return;
    }
    {
      SyncMutexLock lock(&mu_);
      body_ = &body;
      n_ = n;
      helpers_done_ = 0;
      ++round_;
    }
    work_cv_.notify_all();
    RunChunk(body, n, 0);
    SyncMutexLock lock(&mu_);
    while (helpers_done_ != parallelism_ - 1) {
      mu_.Wait(done_cv_);
    }
    body_ = nullptr;
  }

  // Runs fn(i) once for every i in [0, n) — concurrently across the same
  // contiguous chunks as ParallelFor — and returns the results in strict
  // index order. Each result is assigned into a pre-sized slot, so beyond
  // the round barrier no synchronization is needed and the output vector
  // is independent of parallelism(). The result type must be default-
  // constructible and move-assignable; |fn| must be safe to call
  // concurrently for distinct indices.
  template <typename Fn>
  auto ParallelMap(size_t n, Fn&& fn) -> std::vector<std::invoke_result_t<Fn&, size_t>> {
    std::vector<std::invoke_result_t<Fn&, size_t>> results(n);
    ParallelFor(n, [&results, &fn](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        results[i] = fn(i);
      }
    });
    return results;
  }

 private:
  static int ClampParallelism(int parallelism, bool clamp_to_hardware) {
    int p = parallelism < 1 ? 1 : parallelism;
    if (clamp_to_hardware) {
      const unsigned hw = std::thread::hardware_concurrency();
      const int cores = hw == 0 ? 1 : static_cast<int>(hw);
      if (p > cores) {
        p = cores;
      }
    }
    return p;
  }

  void RunChunk(const std::function<void(size_t, size_t)>& body, size_t n, int chunk) const {
    const size_t total = static_cast<size_t>(parallelism_);
    const size_t begin = n * static_cast<size_t>(chunk) / total;
    const size_t end = n * (static_cast<size_t>(chunk) + 1) / total;
    if (begin < end) {
      body(begin, end);
    }
  }

  void WorkerLoop(int chunk) {
    uint64_t seen_round = 0;
    mu_.Lock();
    for (;;) {
      while (!shutdown_ && round_ == seen_round) {
        mu_.Wait(work_cv_);
      }
      if (shutdown_) {
        break;
      }
      seen_round = round_;
      const std::function<void(size_t, size_t)>* body = body_;
      const size_t n = n_;
      mu_.Unlock();
      RunChunk(*body, n, chunk);
      mu_.Lock();
      if (++helpers_done_ == parallelism_ - 1) {
        done_cv_.notify_all();
      }
    }
    mu_.Unlock();
  }

  const int parallelism_;
  SyncMutex mu_;
  // Condition variables own their synchronization (they are only signaled
  // and waited on, never read).
  // mihn-check: guarded-ok(condvar: no readable state, waits go through mu_)
  std::condition_variable_any work_cv_;
  // mihn-check: guarded-ok(condvar: no readable state, waits go through mu_)
  std::condition_variable_any done_cv_;
  const std::function<void(size_t, size_t)>* body_ MIHN_GUARDED_BY(mu_) = nullptr;
  size_t n_ MIHN_GUARDED_BY(mu_) = 0;
  uint64_t round_ MIHN_GUARDED_BY(mu_) = 0;
  int helpers_done_ MIHN_GUARDED_BY(mu_) = 0;
  bool shutdown_ MIHN_GUARDED_BY(mu_) = false;
  // Written only by the constructor (before any helper runs) and joined by
  // the destructor (after shutdown_ is set); never touched mid-round.
  // mihn-check: guarded-ok(ctor/dtor only, no concurrent access)
  std::vector<std::thread> workers_;
};

}  // namespace mihn::core

#endif  // MIHN_SRC_CORE_WORKER_POOL_H_

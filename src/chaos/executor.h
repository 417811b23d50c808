// Parallel trial execution for chaos campaigns and sweeps.
//
// Chaos trials are embarrassingly parallel: every trial isolates all of
// its state in a fresh Simulation and a HostNetwork on it (plus its own
// streams, injector, and anomaly stack), so N trials can fan out over a
// core::WorkerPool and still produce byte-identical reports — provided
// the per-trial results merge back in strict trial order, which is the
// same determinism contract the fleet tick holds for hosts.
//
// TrialExecutor owns that pool and exposes the one shape the chaos layer
// needs: map [0, n) through a function, results in index order. A width
// of 0 or 1 is a pool with no helper threads that runs every round inline
// on the calling thread: the serial run of a campaign or sweep.

#ifndef MIHN_SRC_CHAOS_EXECUTOR_H_
#define MIHN_SRC_CHAOS_EXECUTOR_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "src/core/worker_pool.h"

namespace mihn::chaos {

class TrialExecutor {
 public:
  // |workers| <= 1: run inline. |clamp_to_hardware| mirrors WorkerPool:
  // tests that must exercise real cross-thread execution on small machines
  // pass false.
  explicit TrialExecutor(int workers, bool clamp_to_hardware = true)
      : pool_(workers, clamp_to_hardware) {}

  // Runs fn(i) for every i in [0, n) — concurrently when the pool has
  // helper threads — and returns the results in strict index order. |fn|
  // must be safe to call concurrently for distinct indices and must not
  // re-enter Map.
  template <typename Fn>
  auto Map(size_t n, Fn&& fn) -> std::vector<std::invoke_result_t<Fn&, size_t>> {
    return pool_.ParallelMap(n, fn);
  }

 private:
  core::WorkerPool pool_;
};

}  // namespace mihn::chaos

#endif  // MIHN_SRC_CHAOS_EXECUTOR_H_

// The name the repository benchmark (perfbench/) spells for the pool chaos
// campaigns and sweeps run on: Campaign::Run and Sweep::Run take a
// core::WorkerPool, whose ParallelMap returns per-trial results in trial
// order. New code names core::WorkerPool directly.

#ifndef MIHN_SRC_CHAOS_EXECUTOR_H_
#define MIHN_SRC_CHAOS_EXECUTOR_H_

#include "src/core/worker_pool.h"

namespace mihn::chaos {

using TrialExecutor = core::WorkerPool;

}  // namespace mihn::chaos

#endif  // MIHN_SRC_CHAOS_EXECUTOR_H_

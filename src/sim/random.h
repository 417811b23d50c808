// Deterministic random-number generation for the simulator.
//
// Every stochastic component in mihn draws from its own Rng stream, forked
// from a root seed. A simulation run is therefore a pure function of
// (topology, workload, seed): re-running with the same seed reproduces the
// exact event sequence, which the test suite relies on.
//
// The generator is xoshiro256**, seeded through SplitMix64. Both are tiny,
// fast, and have no shared global state (unlike std::mt19937 singletons).

#ifndef MIHN_SRC_SIM_RANDOM_H_
#define MIHN_SRC_SIM_RANDOM_H_

#include <cstdint>

namespace mihn::sim {

// A single deterministic random stream.
class Rng {
 public:
  // Seeds the stream. Two Rng instances with the same seed produce the same
  // sequence; different seeds produce statistically independent sequences.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Derives an independent child stream. Forking with distinct |stream_id|s
  // yields distinct streams, so components can be given stable per-name
  // streams regardless of construction order.
  Rng Fork(uint64_t stream_id) const;

  // Raw 64 uniform bits.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive both ends).
  int64_t UniformInt(int64_t lo, int64_t hi);

  // True with probability |p| (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Exponential with the given rate (mean 1/rate). Used for Poisson arrivals.
  double Exponential(double rate);

  // Standard Box-Muller normal scaled to (mean, stddev).
  double Normal(double mean, double stddev);

  // Bounded Pareto on [lo, hi] with shape |alpha|; heavy-tailed sizes.
  double BoundedPareto(double lo, double hi, double alpha);

 private:
  explicit Rng(const uint64_t state[4]);

  uint64_t s_[4];
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_RANDOM_H_

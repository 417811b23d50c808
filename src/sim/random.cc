#include "src/sim/random.h"

#include <algorithm>
#include <cmath>

namespace mihn::sim {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    s = SplitMix64(x);
  }
}

Rng::Rng(const uint64_t state[4]) {
  for (int i = 0; i < 4; ++i) {
    s_[i] = state[i];
  }
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Mix the child id into a copy of our state through SplitMix64 so sibling
  // forks (and the parent) do not overlap.
  uint64_t x = s_[0] ^ Rotl(stream_id, 17) ^ (s_[3] + 0x632be59bd9b4e019ULL);
  uint64_t child[4];
  for (auto& c : child) {
    c = SplitMix64(x);
  }
  return Rng(child);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  if (hi <= lo) {
    return lo;
  }
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextU64() % span);
}

bool Rng::Bernoulli(double p) { return NextDouble() < std::clamp(p, 0.0, 1.0); }

double Rng::Exponential(double rate) {
  // Guard against log(0); NextDouble() < 1 so 1 - u > 0.
  return -std::log(1.0 - NextDouble()) / rate;
}

double Rng::Normal(double mean, double stddev) {
  const double u1 = 1.0 - NextDouble();
  const double u2 = NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::BoundedPareto(double lo, double hi, double alpha) {
  const double u = NextDouble();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

}  // namespace mihn::sim

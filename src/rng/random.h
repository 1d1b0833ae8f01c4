// Deterministic pseudo-random number generation for privsan.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded through
// splitmix64 so that any 64-bit seed — including 0 — yields a well-mixed
// state. All randomized components in privsan take an explicit seed, which
// makes every test, example, and bench reproducible bit-for-bit.
#ifndef PRIVSAN_RNG_RANDOM_H_
#define PRIVSAN_RNG_RANDOM_H_

#include <array>
#include <cstdint>

namespace privsan {

// splitmix64 step; used for seeding and for cheap hash mixing.
uint64_t SplitMix64(uint64_t& state);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform on [0, 2^64).
  uint64_t NextUint64();

  // Uniform on [0, bound) without modulo bias. Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform on [0, 1) with 53 bits of precision.
  double NextDouble();

  // Uniform on [lo, hi). Precondition: lo < hi.
  double NextDouble(double lo, double hi);

  // Bernoulli draw with success probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Forks an independent generator; deterministic in (current state).
  Rng Fork();

 private:
  std::array<uint64_t, 4> state_;
};

}  // namespace privsan

#endif  // PRIVSAN_RNG_RANDOM_H_

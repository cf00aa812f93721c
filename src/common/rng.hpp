// Deterministic, stream-splittable random number generation.
//
// Every stochastic component (traffic models, topology synthesis, workload
// schedules) draws from an explicitly-seeded RngStream so simulations are
// reproducible and sub-components are statistically independent.
//
// Splittability contract (relied on by the scn/ scenario generators and the
// Monte Carlo SLA-risk sweeps): `derive(label, index)` is a pure function of
// (parent seed, label, index). It never touches or consumes the parent's
// engine state, so
//   * deriving the same child twice yields identical streams no matter how
//     many draws the parent made in between;
//   * children keyed by distinct (label, index) pairs are statistically
//     independent of each other and of the parent;
//   * a sweep that derives one child per scenario index gets byte-identical
//     per-scenario draws regardless of evaluation order or thread count.
// Per-entity draws should therefore be keyed (`derive("tenant", i)`) rather
// than taken sequentially from one shared stream.
//
// Cost model: a stream's draws are exactly those of std::mt19937_64 seeded
// with `seed()`, but its engine (LazyMt19937_64) builds the 312-word state
// only as far as the draws so far need it. Constructing or deriving a stream
// is therefore a few hashes plus a zeroed array, and a stream that makes k
// draws in its first 312 pays O(k) rather than the full seeding and twist
// (~0.5 µs instead of ~3.2 µs for derive plus one draw). Long streams cost
// the same per draw as std::mt19937_64. Keying one child per entity is cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ovnes {

/// The 64-bit Mersenne Twister: output bit for bit that of std::mt19937_64
/// for the same seed, with the state built lazily. In the first twist round
/// output k reads only old words k, k+1 and k+156, so word k is seeded and
/// twisted in place when draw k asks for it; later rounds run the standard
/// full twist. A UniformRandomBitGenerator, so the std distributions accept
/// it and map its output exactly as they map std::mt19937_64's.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (next_ == ready_) refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  /// Make word `next_` ready: in the first round twist that one word (after
  /// seeding what it reads), afterwards twist the whole state.
  void refill();

  std::uint64_t x_[kN]{};    ///< zeroed so copies never read unset words
  std::size_t seeded_ = 1;   ///< words [0, seeded_) hold the seeding
  std::size_t ready_ = 0;    ///< words [0, ready_) are twisted this round
  std::size_t next_ = 0;     ///< next word to temper and return
};

/// A seeded RNG with named sub-stream derivation.
///
/// `derive("traffic", 7)` produces a stream whose seed is a hash of the
/// parent seed, the label and the index — independent draws without manual
/// seed bookkeeping (see the splittability contract in the file comment).
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derive an independent child stream. Const on purpose: derivation is a
  /// pure function of (seed, label, index) and leaves the engine untouched.
  [[nodiscard]] RngStream derive(std::string_view label,
                                 std::uint64_t index = 0) const;

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Gaussian with the given mean / stddev.
  double gaussian(double mean, double stddev);

  /// Gaussian truncated below at `lo` (resampled; used for non-negative
  /// traffic draws).
  double truncated_gaussian(double mean, double stddev, double lo = 0.0);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean.
  double exponential(double mean);

  /// Pareto (type I) with tail index `alpha` and scale `xmin > 0`:
  /// P[X > x] = (xmin/x)^alpha for x >= xmin. Inverse-CDF on a single
  /// uniform draw, so the mapping is fixed by this file rather than by the
  /// standard library's distribution internals. Heavy-tailed tenant demand
  /// in scn/ draws from this.
  double pareto(double alpha, double xmin);

  /// Lognormal: exp(N(log_mean, log_sigma)). One Gaussian draw.
  double lognormal(double log_mean, double log_sigma);

  /// Bernoulli trial.
  bool flip(double p_true);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  LazyMt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace ovnes

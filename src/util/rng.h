/**
 * @file
 * Deterministic random-number generation and the distributions used
 * by the synthetic workload generator.
 *
 * Everything in the simulator draws from an explicitly seeded Rng so
 * that experiments are reproducible run-to-run. The generator is
 * xoshiro256**, seeded via splitmix64.
 */

#ifndef SDFM_UTIL_RNG_H
#define SDFM_UTIL_RNG_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace sdfm {

/**
 * Complete engine state of an Rng stream: the xoshiro256** word
 * state plus the cached Box-Muller spare. A stream restored from a
 * snapshot emits the identical draw sequence, which is what
 * checkpoint/restore (src/ckpt) relies on.
 */
struct RngState
{
    std::uint64_t s[4] = {0, 0, 0, 0};
    bool have_gauss = false;
    double gauss_spare = 0.0;

    bool operator==(const RngState &other) const = default;
};

/** xoshiro256** pseudo-random generator with convenience draws. */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Raw 64-bit draw. */
    std::uint64_t next_u64();

    /** UniformRandomBitGenerator interface. */
    result_type operator()() { return next_u64(); }
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Uniform double in [0, 1). */
    double next_double();

    /** Uniform integer in [0, bound), bound > 0 (unbiased). */
    std::uint64_t next_below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t next_range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw with probability p of true. */
    bool next_bool(double p);

    /** Standard normal via Box-Muller. */
    double next_gaussian();

    /** Normal with the given mean and standard deviation. */
    double next_gaussian(double mean, double stddev);

    /** Exponential with the given rate (mean 1/rate). */
    double next_exponential(double rate);

    /**
     * Pareto (type I) draw: support [scale, inf), tail index alpha.
     * Used for heavy-tailed page inter-access times.
     */
    double next_pareto(double scale, double alpha);

    /** Log-normal with the given parameters of the underlying normal. */
    double next_lognormal(double mu, double sigma);

    /** Fork a child generator with an independent stream. */
    Rng fork();

    /** Snapshot the full engine state (checkpointing). */
    RngState state() const;

    /** Overwrite the engine state from a snapshot. */
    void set_state(const RngState &state);

  private:
    std::uint64_t s_[4];
    bool have_gauss_ = false;
    double gauss_spare_ = 0.0;
};

// The draws every simulated page access makes (the write coin, the
// gap draw) are defined here so they inline into the access loop; the
// rest of the distributions live in rng.cc.

inline std::uint64_t
Rng::next_u64()
{
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
}

inline double
Rng::next_double()
{
    // 53 high bits -> uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

inline bool
Rng::next_bool(double p)
{
    return next_double() < p;
}

inline double
Rng::next_exponential(double rate)
{
    SDFM_ASSERT(rate > 0.0);
    double u;
    do {
        u = next_double();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

/**
 * Zipf-distributed integer draws over {0, ..., n-1} with exponent s,
 * using precomputed CDF inversion (O(log n) per draw).
 *
 * Rank 0 is the most popular item.
 */
class ZipfDistribution
{
  public:
    /**
     * @param n Number of items; must be >= 1.
     * @param s Skew exponent; s = 0 degenerates to uniform.
     */
    ZipfDistribution(std::size_t n, double s);

    /** Draw a rank in [0, n). */
    std::size_t operator()(Rng &rng) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

}  // namespace sdfm

#endif  // SDFM_UTIL_RNG_H

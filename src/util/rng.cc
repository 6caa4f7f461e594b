#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace sdfm {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // xoshiro must not be seeded with all zeros; splitmix64 of any
    // seed cannot produce four zero words, but be defensive.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::next_below(std::uint64_t bound)
{
    SDFM_ASSERT(bound > 0);
    // Lemire-style rejection to avoid modulo bias.
    std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
        std::uint64_t r = next_u64();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::next_range(std::int64_t lo, std::int64_t hi)
{
    SDFM_ASSERT(lo <= hi);
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0)  // full 64-bit range
        return static_cast<std::int64_t>(next_u64());
    return lo + static_cast<std::int64_t>(next_below(span));
}

double
Rng::next_gaussian()
{
    if (have_gauss_) {
        have_gauss_ = false;
        return gauss_spare_;
    }
    double u1, u2;
    do {
        u1 = next_double();
    } while (u1 <= 0.0);
    u2 = next_double();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    gauss_spare_ = r * std::sin(theta);
    have_gauss_ = true;
    return r * std::cos(theta);
}

double
Rng::next_gaussian(double mean, double stddev)
{
    return mean + stddev * next_gaussian();
}

double
Rng::next_pareto(double scale, double alpha)
{
    SDFM_ASSERT(scale > 0.0 && alpha > 0.0);
    double u;
    do {
        u = next_double();
    } while (u <= 0.0);
    return scale / std::pow(u, 1.0 / alpha);
}

double
Rng::next_lognormal(double mu, double sigma)
{
    return std::exp(next_gaussian(mu, sigma));
}

Rng
Rng::fork()
{
    // Derive an independent stream from two draws of this one.
    std::uint64_t a = next_u64();
    std::uint64_t b = next_u64();
    return Rng(a ^ std::rotl(b, 32));
}

RngState
Rng::state() const
{
    RngState state;
    for (std::size_t i = 0; i < 4; ++i)
        state.s[i] = s_[i];
    state.have_gauss = have_gauss_;
    state.gauss_spare = gauss_spare_;
    return state;
}

void
Rng::set_state(const RngState &state)
{
    // An all-zero word state would make xoshiro emit zeros forever;
    // no snapshot of a live stream can contain it.
    SDFM_ASSERT((state.s[0] | state.s[1] | state.s[2] | state.s[3]) != 0);
    for (std::size_t i = 0; i < 4; ++i)
        s_[i] = state.s[i];
    have_gauss_ = state.have_gauss;
    gauss_spare_ = state.gauss_spare;
}

ZipfDistribution::ZipfDistribution(std::size_t n, double s)
{
    SDFM_ASSERT(n >= 1);
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = acc;
    }
    for (auto &v : cdf_)
        v /= acc;
    cdf_.back() = 1.0;  // guard against rounding
}

std::size_t
ZipfDistribution::operator()(Rng &rng) const
{
    double u = rng.next_double();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        return cdf_.size() - 1;
    return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace sdfm

/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator types so the
 * arith_test program can check it in isolation: percentile selection
 * under the ten-samples-beyond rule, grouping fleet steps into scan
 * periods, span self time, and the step barrier's idle fraction.
 */

#ifndef PERFBENCH_ARITH_H
#define PERFBENCH_ARITH_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of @p samples, reported
 * only when at least @p min_beyond samples lie above the selected
 * rank; otherwise the tail is too thin to be stable and nullopt is
 * returned. With the default rule a p90 needs 100 samples and a p50
 * needs 20.
 */
inline std::optional<double>
percentile_with_tail(std::vector<double> samples, double p,
                     std::size_t min_beyond = 10)
{
    if (samples.empty() || p <= 0.0 || p > 100.0)
        return std::nullopt;
    std::size_t n = samples.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < min_beyond)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

/** What the machines do on one fleet step (all machines step in
 *  lockstep, so one schedule describes the fleet). */
struct StepKind
{
    bool scan = false;     ///< kstaled scans this step
    bool compact = false;  ///< zsmalloc compaction runs this step
    bool exports = false;  ///< the agent exports a telemetry window
};

/**
 * Sum per-step host times into scan periods. A period opens at each
 * scan step and runs until the next one, so every period holds
 * exactly one kstaled scan; compaction and export steps fall inside
 * whichever period they land in. Steps before the first scan step
 * belong to no period and are dropped. The caller ends the window on
 * a period boundary, so the last group is complete.
 */
inline std::vector<double>
group_scan_periods(const std::vector<double> &step_ms,
                   const std::vector<StepKind> &kinds)
{
    std::vector<double> periods;
    std::size_t n = std::min(step_ms.size(), kinds.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (kinds[i].scan)
            periods.push_back(0.0);
        if (!periods.empty())
            periods.back() += step_ms[i];
    }
    return periods;
}

inline constexpr std::uint32_t kNoParent =
    std::numeric_limits<std::uint32_t>::max();

/** One timed call, in nanoseconds of host time. Ids are indices into
 *  the span vector; a parent always precedes its children. */
struct Span
{
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its children (overlapping children are counted
 * once, and a child reaching outside its parent is clipped).
 */
inline std::vector<std::int64_t>
self_times(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent != kNoParent && s.parent < spans.size())
            kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cursor = s.start_ns;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, cursor);
            hi = std::min(hi, s.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

/**
 * Idle share of the fleet step barrier for one step: each of the
 * clusters' workers waits from the end of its own cluster until the
 * slowest cluster finishes, so the idle fraction is
 * 1 - sum(cluster time) / (clusters * slowest cluster).
 */
inline double
barrier_idle_frac(const std::vector<double> &cluster_ms)
{
    if (cluster_ms.empty())
        return 0.0;
    double slowest = *std::max_element(cluster_ms.begin(), cluster_ms.end());
    if (slowest <= 0.0)
        return 0.0;
    double sum = 0.0;
    for (double ms : cluster_ms)
        sum += ms;
    return 1.0 - sum / (static_cast<double>(cluster_ms.size()) * slowest);
}

/** Median (mean of the middle pair for even counts); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H

/**
 * @file
 * Fleet-telemetry histogram: the fixed-bucket distribution type the
 * subsystems keep in their stats structs and the snapshot/export
 * layer (snapshot.h, exporter.h) carries up the topology.
 *
 * The paper's control plane is only operable at warehouse scale
 * because every machine exports cheap counters and histograms
 * (promotion rates, zswap coverage, CPU overhead -- Section 5 reads
 * them for every figure). In this reproduction each such quantity
 * lives once, in the checkpointed stats struct of the subsystem that
 * owns the event; telemetry reads those structs at snapshot time, so
 * recording an observation is a plain bucket increment by the
 * struct's single writer.
 */

#ifndef SDFM_TELEMETRY_METRIC_H
#define SDFM_TELEMETRY_METRIC_H

#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"

namespace sdfm {

/**
 * Histogram state: bucket boundaries, per-bucket counts, and the
 * sum/count moments. Both the live accumulator inside a stats struct
 * and the unit of cross-machine aggregation (bucket-wise sums in
 * MetricsSnapshot::merge).
 */
struct HistogramData
{
    HistogramData() = default;

    /**
     * An empty histogram over @p bounds: ascending inclusive upper
     * bounds, non-empty. The overflow bucket is added automatically.
     */
    explicit HistogramData(std::vector<double> bounds);

    /**
     * Ascending inclusive upper bounds; a value v lands in the first
     * bucket with v <= bound. One implicit overflow bucket follows
     * the last bound, so counts.size() == upper_bounds.size() + 1.
     * sdfm-state: config(fixed by the owning stats struct's
     * constructor; ckpt_load checks the wire's bucket count against
     * it)
     */
    std::vector<double> upper_bounds;

    /** Per-bucket observation counts (last entry is the overflow). */
    std::vector<std::uint64_t> counts;

    /** Total observations. */
    std::uint64_t total_count = 0;

    /** Sum of observed values (for the mean). */
    double sum = 0.0;

    /** Record one observation. */
    void observe(double value);

    /** Arithmetic mean of observations; 0 when empty. */
    double mean() const
    {
        return total_count > 0
                   ? sum / static_cast<double>(total_count)
                   : 0.0;
    }

    /**
     * Percentile estimate in [0, 100] by linear interpolation inside
     * the bucket where the rank falls (the resolution is therefore
     * the bucket width). Observations in the overflow bucket report
     * the last finite bound. Returns 0 when empty.
     */
    double percentile(double p) const;

    /** Bucket-wise accumulate; bounds must match exactly. */
    void merge(const HistogramData &other);

    /**
     * Checkpoint the contents: bucket counts, count, and sum. The
     * bounds are not stored -- they are fixed by the owning stats
     * struct's constructor -- so ckpt_load() restores into a
     * histogram built with the same bounds and rejects a bucket count
     * that disagrees with them or with the total.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);

    bool operator==(const HistogramData &) const = default;
};

/**
 * Convenience bucket generator: @p count bounds starting at
 * @p start, each @p factor times the previous (exponential grids for
 * cycle counts and byte sizes).
 */
std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t count);

}  // namespace sdfm

#endif  // SDFM_TELEMETRY_METRIC_H

/**
 * @file
 * MetricsSnapshot: the export format of the telemetry plane.
 *
 * Machine, MemoryBroker and ConfigRollout each write one from their
 * checkpointed stats structs at snapshot time (telemetry_snapshot()).
 * Snapshots are plain data -- maps from metric name to value -- so
 * they can be merged up the topology (machine -> cluster -> fleet)
 * and handed to the exporter without holding any live state.
 * Merging sums counters and gauges and accumulates histograms
 * bucket-wise, which is the correct rollup for the additive
 * quantities the control plane exports (event counts, byte levels,
 * observation distributions).
 */

#ifndef SDFM_TELEMETRY_SNAPSHOT_H
#define SDFM_TELEMETRY_SNAPSHOT_H

#include <cstdint>
#include <map>
#include <string>

#include "telemetry/metric.h"

namespace sdfm {

/** One subsystem's metrics at a point in time (or a merged rollup of
 *  many). */
struct MetricsSnapshot
{
    /** Counter totals by name. */
    std::map<std::string, std::uint64_t> counters;

    /** Gauge levels by name (summed across machines on merge). */
    std::map<std::string, double> gauges;

    /** Histogram contents by name. */
    std::map<std::string, HistogramData> histograms;

    /**
     * Accumulate @p other into this snapshot: counters and gauges
     * add; histograms merge bucket-wise (matching names must have
     * identical bounds). Metrics present only in @p other are
     * copied in.
     */
    void merge(const MetricsSnapshot &other);

    /** Counter total by name; 0 when absent. */
    std::uint64_t counter_or_zero(const std::string &name) const;

    /** Gauge level by name; 0.0 when absent. */
    double gauge_or_zero(const std::string &name) const;
};

}  // namespace sdfm

#endif  // SDFM_TELEMETRY_SNAPSHOT_H

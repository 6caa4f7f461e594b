/**
 * @file
 * The benchmark's workloads: each turns a seed into the FleetConfig
 * the fleet receives, plus the fixed run shape (warmup and window
 * lengths) the benchmark drives it with. manifest.json records the
 * same shapes and why each workload exists.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>

#include "core/far_memory_system.h"

namespace perfbench {

struct Workload
{
    std::string name;
    sdfm::FleetConfig config;

    /** Fixed warmup (even, so the window opens on a scan step). */
    std::uint32_t warmup_steps = 0;

    /** Steps in the timed window (even: whole scan periods). */
    std::uint32_t window_steps = 0;

    /** Identical passes over the window at the nominal run length;
     *  step counts never depend on the clock, so work counts and
     *  digests repeat exactly. */
    std::uint32_t passes = 0;

    /** Steps of the serial traced replay (a prefix of the window). */
    std::uint32_t traced_steps = 0;

    /** Attach a JSONL TelemetryExporter writing to memory. */
    bool export_frames = false;

    /** End the run with Autotuner::run over the run's traces. */
    bool autotune = false;

    /** Propose this SLO through the staged rollout after warmup. */
    std::optional<sdfm::SloConfig> rollout_candidate;

    /** True when the fleet has no churn, faults or evictions, so a
     *  replay that skips those must reproduce it exactly. */
    bool quiet = false;
};

/** The named workload for @p seed; nullopt for an unknown name. */
std::optional<Workload> make_workload(const std::string &name,
                                      std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H

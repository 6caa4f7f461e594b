// Bench: fleet scale-up throughput of the per-page metadata walks.
//
// Builds a warehouse-scale fleet (default 10,000 machines across 100
// clusters, ~500M pages), warms it into reclaim steady state, then
// times fleet steps and writes the result as JSON. The release CI
// flavor runs a 500-machine downscale and checks the report's shape
// (bench/check_fleet_scale.py); the committed BENCH_fleet_scale.json
// is that downscale (see EXPERIMENTS.md for the command and
// docs/ARCHITECTURE.md for the schema).
//
// Usage: fleet_scale [--machines N] [--clusters N] [--warmup N]
//                    [--steps N] [--seed S] [--out FILE]

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <sys/resource.h>

#include "common.h"

using namespace sdfm;

namespace {

/**
 * Warehouse-scale job mix for the fleet-scale bench: mostly-cold
 * address spaces (the paper's premise -- Figure 2 puts the fleet around 32%
 * cold at T=120s, and far memory only pays off because the bulk of
 * memory is idle). The figure-reproduction mix in bench::standard_fleet
 * is tuned for per-job cold-CDF shapes at small scale and is far
 * hotter per page; here the interesting cost is the per-page metadata
 * walk (kstaled scan every 2 min, kreclaimd plan walk every minute)
 * against a realistic cold majority, so the access stream stays
 * proportionally modest the way production machines' do. Re-access of
 * already-demoted pages is kept rare so zswap fault traffic (pure
 * compression cost) does not drown out the walks the bench exists to
 * measure.
 */
FleetMix
warehouse_cold_mix()
{
    FleetMix mix;
    JobProfile p;
    p.name = "fleet-scale-resident";
    p.min_pages = 8192;
    p.max_pages = 16384;
    p.hot_frac = 0.001;
    p.warm_frac = 0.004;
    p.diurnal_frac = 0.0;
    p.cold_frac = 0.025;  // frozen gets the remaining ~97%
    p.hot_gap_mean = 120.0;
    p.warm_median_gap = 300.0;
    p.cold_scale = 7200.0;
    p.frozen_reaccess_prob = 0.002;
    p.write_frac = 0.05;
    mix.profiles.push_back(p);
    mix.weights.push_back(1.0);
    return mix;
}

/**
 * Parse @p arg as a decimal integer of at least @p min that fits in
 * T; false on anything else (empty, signed, trailing characters, out
 * of range), leaving @p out untouched.
 */
template <typename T>
bool
parse_count(const char *arg, T min, T &out)
{
    if (*arg < '0' || *arg > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(arg, &end, 10);
    if (errno != 0 || *end != '\0' || v < min ||
        v > std::numeric_limits<T>::max()) {
        return false;
    }
    out = static_cast<T>(v);
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::uint32_t machines = 10000;
    std::uint32_t clusters = 100;
    // 600 one-minute steps of warmup: long enough for the demoted
    // majority's ages to saturate (255 two-minute scan periods) so
    // the timed window measures metadata-walk steady state.
    std::uint32_t warmup_steps = 600;
    std::uint32_t timed_steps = 10;
    std::uint64_t seed = 42;
    std::string out_path = "BENCH_fleet_scale.json";
    for (int i = 1; i < argc; ++i) {
        bool ok = i + 1 < argc;
        if (ok && std::strcmp(argv[i], "--machines") == 0) {
            ok = parse_count(argv[++i], 1u, machines);
        } else if (ok && std::strcmp(argv[i], "--clusters") == 0) {
            ok = parse_count(argv[++i], 1u, clusters);
        } else if (ok && std::strcmp(argv[i], "--warmup") == 0) {
            ok = parse_count(argv[++i], 0u, warmup_steps);
        } else if (ok && std::strcmp(argv[i], "--steps") == 0) {
            ok = parse_count(argv[++i], 1u, timed_steps);
        } else if (ok && std::strcmp(argv[i], "--seed") == 0) {
            ok = parse_count(argv[++i], std::uint64_t{0}, seed);
        } else if (ok && std::strcmp(argv[i], "--out") == 0) {
            out_path = argv[++i];
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: %s [--machines N] [--clusters N] "
                         "[--warmup N] [--steps N] [--seed S] "
                         "[--out FILE]\n",
                         argv[0]);
            return 1;
        }
    }
    if (machines < clusters)
        clusters = machines;

    FleetConfig config = bench::standard_fleet(
        clusters, machines / clusters, FarMemoryPolicy::kProactive,
        seed);
    // Machines are split evenly across clusters, so the fleet built
    // is the largest multiple of the cluster count that fits.
    machines = clusters * config.cluster.num_machines;
    config.cluster.mix = warehouse_cold_mix();
    // No churn: every replaced job re-runs populate + first-touch
    // compression, a cost outside the per-page walks that would
    // otherwise dominate the steady state under measurement.
    config.cluster.churn_per_hour = 0.0;
    // Telemetry windows retained for offline analysis grow without
    // bound (~4 KiB per job-window); over a 600-step warmup at fleet
    // scale that is both a dominant cost and an OOM. The live
    // trajectory never reads them.
    config.cluster.collect_traces = false;
    // 256 MiB machines hosting a handful of 32-64 MiB jobs: the
    // default 10k machines carry ~40k jobs / ~500M pages. Jobs are
    // deliberately large -- per-job control overhead (threshold
    // update, histogram delta) does not scale with pages, and tiny
    // jobs would let it mask the per-page walks under measurement.
    config.cluster.machine.dram_pages = 256ull * kMiB / kPageSize;

    std::fprintf(stderr,
                 "fleet_scale: %u machines, %u clusters, "
                 "%u warmup + %u timed steps\n",
                 machines, clusters, warmup_steps, timed_steps);

    FarMemorySystem system(config);
    std::fprintf(stderr, "  %zu stepping workers\n", system.step_workers());
    system.populate();
    for (std::uint32_t i = 0; i < warmup_steps; ++i)
        system.step();

    std::uint64_t accesses = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < timed_steps; ++i)
        accesses += system.step().accesses;
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    double steps_per_sec = static_cast<double>(timed_steps) / secs;
    double ms_per_step = 1e3 * secs / static_cast<double>(timed_steps);
    MetricsSnapshot snap = system.fleet_telemetry();
    auto pages = static_cast<std::uint64_t>(
        snap.gauge_or_zero("machine.resident_pages") +
        snap.gauge_or_zero("machine.far_memory_pages"));
    // Peak RSS of the whole run (ru_maxrss is in KiB on Linux).
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    double peak_rss = static_cast<double>(usage.ru_maxrss) * 1024.0;
    const double mib = 1024.0 * 1024.0;
    double rss_per_page =
        pages > 0 ? peak_rss / static_cast<double>(pages) : 0.0;
    std::fprintf(stderr,
                 "  %.3f steps/s (%.1f ms/step), peak RSS %.0f MiB "
                 "(%.1f B/page)\n",
                 steps_per_sec, ms_per_step, peak_rss / mib, rss_per_page);

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"fleet_scale\",\n"
                 "  \"schema_version\": 3,\n"
                 "  \"config\": {\n"
                 "    \"machines\": %u,\n"
                 "    \"clusters\": %u,\n"
                 "    \"jobs\": %llu,\n"
                 "    \"pages\": %llu,\n"
                 "    \"warmup_steps\": %u,\n"
                 "    \"timed_steps\": %u,\n"
                 "    \"seed\": %llu,\n"
                 "    \"workers\": %zu\n"
                 "  },\n"
                 "  \"measured\": {\n"
                 "    \"steps_per_sec\": %.6f,\n"
                 "    \"ms_per_step\": %.3f,\n"
                 "    \"accesses\": %llu,\n"
                 "    \"peak_rss_mb\": %.1f,\n"
                 "    \"rss_bytes_per_page\": %.2f\n"
                 "  }\n"
                 "}\n",
                 machines, clusters,
                 static_cast<unsigned long long>(system.num_jobs()),
                 static_cast<unsigned long long>(pages), warmup_steps,
                 timed_steps, static_cast<unsigned long long>(seed),
                 system.step_workers(), steps_per_sec, ms_per_step,
                 static_cast<unsigned long long>(accesses),
                 peak_rss / mib, rss_per_page);
    std::fclose(out);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    return 0;
}

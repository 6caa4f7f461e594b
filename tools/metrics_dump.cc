// Probe: run a short fleet and print the telemetry snapshot stream.
//
// Stdout carries one machine-readable frame per simulated minute
// (JSONL by default, CSV with --csv); the final fleet summary table
// goes to stderr so the frame stream stays parseable. This is the
// uniform way benches and examples read the metrics plane.
//
// Usage: metrics_dump [--csv] [--minutes N] [--clusters N]
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>

#include "core/far_memory_system.h"
#include "probe_args.h"
#include "telemetry/exporter.h"

using namespace sdfm;

int
main(int argc, char **argv)
{
    TelemetryExporter::Format format = TelemetryExporter::Format::kJsonl;
    std::uint64_t minutes = 15;
    std::uint64_t num_clusters = 2;
    for (int i = 1; i < argc; ++i) {
        bool ok = true;
        if (std::strcmp(argv[i], "--csv") == 0) {
            format = TelemetryExporter::Format::kCsv;
        } else if (std::strcmp(argv[i], "--minutes") == 0 &&
                   i + 1 < argc) {
            ok = parse_count(argv[++i], 1,
                             static_cast<std::uint64_t>(
                                 std::numeric_limits<SimTime>::max() /
                                 kMinute),
                             &minutes);
        } else if (std::strcmp(argv[i], "--clusters") == 0 &&
                   i + 1 < argc) {
            ok = parse_count(argv[++i], 1,
                             std::numeric_limits<std::uint32_t>::max(),
                             &num_clusters);
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: %s [--csv] [--minutes N] "
                         "[--clusters N]   (N >= 1)\n",
                         argv[0]);
            return 1;
        }
    }

    // A small fleet so the probe finishes in seconds: the point is
    // the metric stream's shape, not warehouse scale.
    FleetConfig config;
    config.num_clusters = static_cast<std::uint32_t>(num_clusters);
    config.cluster.mix = typical_fleet_mix();
    config.cluster.num_machines = 4;
    config.cluster.machine.dram_pages = 16 * 1024;

    FarMemorySystem system(config);
    system.populate();

    TelemetryExporter exporter(std::cout, format);
    system.set_metrics_exporter(&exporter);
    system.run(static_cast<SimTime>(minutes) * kMinute);

    std::fprintf(stderr, "\n-- fleet summary after %lld minutes "
                         "(%llu frames) --\n",
                 static_cast<long long>(minutes),
                 static_cast<unsigned long long>(
                     exporter.frames_written()));
    print_metrics_summary(std::cerr, system.fleet_telemetry());
    return 0;
}

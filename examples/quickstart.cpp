/**
 * @file
 * Quickstart: one machine, a handful of jobs, the proactive
 * software-defined far-memory control plane, one simulated hour.
 *
 * Shows the core loop of the public API: configure a Machine, add
 * Jobs, step the simulation, and read back coverage, promotion-rate
 * SLI, and CPU-overhead statistics.
 *
 * Run: ./quickstart
 */

#include <cstdio>
#include <iostream>

#include "node/machine.h"
#include "telemetry/exporter.h"
#include "util/table.h"
#include "workload/job.h"
#include "workload/job_profile.h"

using namespace sdfm;

int
main()
{
    // A machine with 2 GiB of DRAM running the paper's proactive
    // policy with the production SLO (P = 0.2%/min, K = 98, S = 300s).
    MachineConfig config;
    config.dram_pages = 2ull * kGiB / kPageSize;
    config.policy = FarMemoryPolicy::kProactive;
    config.compression = CompressionMode::kReal;  // run szo for real

    Machine machine(/*machine_id=*/0, config, /*seed=*/42);

    // Schedule a few jobs from different archetypes.
    FleetMix mix = typical_fleet_mix();
    Rng rng(7);
    JobId next_id = 1;
    for (int i = 0; i < 8; ++i) {
        const JobProfile &profile = mix.profiles[mix.sample(rng)];
        auto job = std::make_unique<Job>(next_id++, profile,
                                         rng.next_u64(), /*start=*/0);
        if (machine.has_capacity_for(job->memcg().num_pages()))
            machine.add_job(std::move(job));
    }
    std::printf("scheduled %zu jobs\n", machine.jobs().size());

    // One simulated hour, one control period per step.
    for (SimTime now = 0; now < kHour; now += config.control_period)
        machine.step(now);

    // Report.
    TablePrinter table({"metric", "value"});
    table.add_row({"jobs", fmt_int(static_cast<long long>(
                               machine.jobs().size()))});
    table.add_row({"resident", fmt_bytes(static_cast<double>(
                                   machine.resident_pages()) * kPageSize)});
    table.add_row({"zswap stored (uncompressed)",
                   fmt_bytes(static_cast<double>(
                                 machine.zswap_stored_pages()) *
                             kPageSize)});
    table.add_row({"zswap pool (actual DRAM)",
                   fmt_bytes(static_cast<double>(machine.zswap().
                                                 pool_bytes()))});
    table.add_row({"cold pages (T=120s)",
                   fmt_int(static_cast<long long>(
                       machine.cold_pages_min_threshold()))});
    table.add_row({"cold memory coverage",
                   fmt_percent(machine.cold_memory_coverage())});

    const ZswapStats &zs = machine.zswap().stats();
    table.add_row({"zswap stores", fmt_int(static_cast<long long>(
                                       zs.stores))});
    table.add_row({"zswap rejects (incompressible)",
                   fmt_int(static_cast<long long>(zs.rejects))});
    table.add_row({"zswap promotions", fmt_int(static_cast<long long>(
                                           zs.promotions))});

    double app_cycles = 0.0;
    for (const auto &job : machine.jobs())
        app_cycles += job->memcg().stats().app_cycles;
    if (app_cycles > 0.0) {
        table.add_row({"compress CPU overhead",
                       fmt_percent(zs.compress_cycles / app_cycles, 4)});
        table.add_row({"decompress CPU overhead",
                       fmt_percent(zs.decompress_cycles / app_cycles, 4)});
    }
    table.print(std::cout);

    // The machine's telemetry snapshot names every subsystem's
    // counters (src/telemetry/); this is the same summary the
    // metrics_dump probe prints for a whole fleet.
    std::printf("\ntelemetry summary:\n");
    print_metrics_summary(std::cout, machine.telemetry_snapshot());
    return 0;
}

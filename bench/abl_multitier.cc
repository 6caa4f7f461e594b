/**
 * @file
 * Ablation (the paper's concluding future-work direction): zswap-only
 * far memory vs a two-tier configuration that adds a fixed-capacity
 * sub-microsecond NVM tier for moderately-cold pages.
 *
 * Expected shape, per the paper's discussion:
 *   - two tiers serve promotions faster on average (hot-ish cold
 *     pages come back from NVM at sub-us instead of single-digit-us
 *     decompression) and shave decompression CPU;
 *   - NVM also holds incompressible cold pages zswap must reject,
 *     raising total far-memory coverage;
 *   - but the hardware tier's fixed capacity strands when the cold
 *     set is small -- the provisioning risk software-defined far
 *     memory avoids (Section 2.1).
 */

#include <iostream>

#include "common.h"
#include "node/machine.h"
#include "util/rng.h"
#include "workload/job.h"

using namespace sdfm;
using namespace sdfm::bench;

namespace {

struct Outcome
{
    double coverage = 0.0;
    double nvm_share = 0.0;          ///< of far-memory pages
    double nvm_utilization = 0.0;
    double mean_promo_latency_us = 0.0;
    double decompress_cycles = 0.0;
    double stall_cycles_pct = 0.0;   ///< all fault stalls / app CPU
};

MachineConfig
base_config()
{
    MachineConfig config;
    config.dram_pages = 192ull * kMiB / kPageSize;
    config.compression = CompressionMode::kModeled;
    return config;
}

/** zswap plus, when @p nvm_capacity_pages > 0, an NVM tier for the
 *  ages in [T, 4T). */
MachineConfig
nvm_config(std::uint64_t nvm_capacity_pages)
{
    MachineConfig config = base_config();
    if (nvm_capacity_pages > 0) {
        TierConfig nvm;
        nvm.kind = TierKind::kNvm;
        nvm.nvm.capacity_pages = nvm_capacity_pages;
        nvm.band_hi = 4.0;
        config.tiers = {nvm};
    }
    return config;
}

/**
 * The paper's full future-work shape as a TierStack: a
 * small sub-us NVM tier preferred for the moderately cold band, big
 * single-digit-us remote memory behind it absorbing NVM overflow and
 * the deep cold, zswap as the catch-all. Stack order is routing
 * priority (deepest matching band consulted first), so NVM is listed
 * last: it wins its band while it has space, and rejected pages fall
 * through to the remote tier's unbounded band instead of straight to
 * zswap. The remote tier's capacity is one lease, granted by run_config.
 */
MachineConfig
three_tier_config(std::uint64_t nvm_pages)
{
    MachineConfig config = base_config();
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.band_lo = 1.0;
    remote.band_hi = 0.0;
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = nvm_pages;
    nvm.band_lo = 1.0;
    nvm.band_hi = 2.0;
    config.tiers = {remote, nvm};
    return config;
}

Outcome
run_config(const MachineConfig &config, std::uint64_t remote_pages,
           std::uint64_t seed)
{
    Machine machine(0, config, seed);
    if (remote_pages > 0)
        machine.remote_tier()->grant_lease(0, remote_pages);

    FleetMix mix = typical_fleet_mix();
    Rng rng(seed + 1);
    JobId next_id = 1;
    for (int attempts = 0;
         machine.resident_pages() < config.dram_pages * 3 / 4 &&
         attempts < 200;
         ++attempts) {
        auto job = std::make_unique<Job>(
            next_id++, mix.profiles[mix.sample(rng)], rng.next_u64(), 0);
        if (machine.has_capacity_for(job->memcg().num_pages()))
            machine.add_job(std::move(job));
    }

    for (SimTime now = 0; now < 5 * kHour; now += kMinute)
        machine.step(now);

    Outcome outcome;
    outcome.coverage = machine.cold_memory_coverage();
    std::uint64_t far = machine.far_memory_pages();
    outcome.nvm_share =
        far > 0 ? static_cast<double>(machine.tier_stored_pages()) /
                      static_cast<double>(far)
                : 0.0;
    std::size_t ni = machine.tiers().find(TierKind::kNvm);
    if (ni < machine.tiers().size())
        outcome.nvm_utilization = machine.tiers().tier(ni).utilization();
    else if (machine.tiers().deep_size() > 0)
        outcome.nvm_utilization = machine.tiers().tier(1).utilization();

    double app = 0.0, stalls = 0.0, latency_sum = 0.0;
    std::uint64_t promotions = 0;
    for (const auto &job : machine.jobs()) {
        const MemcgStats &stats = job->memcg().stats();
        app += stats.app_cycles;
        stalls += stats.decompress_cycles + stats.nvm_stall_cycles;
        outcome.decompress_cycles += stats.decompress_cycles;
        latency_sum += stats.decompress_latency_us_sum +
                       stats.nvm_read_latency_us_sum;
        promotions += stats.zswap_promotions + stats.nvm_promotions;
    }
    if (promotions > 0)
        outcome.mean_promo_latency_us =
            latency_sum / static_cast<double>(promotions);
    if (app > 0.0)
        outcome.stall_cycles_pct = stalls / app * 100.0;
    return outcome;
}

}  // namespace

int
main()
{
    print_header("Ablation: zswap-only vs two-tier far memory",
                 "future work (Section 8): sub-us tier-1 + single-us "
                 "tier-2, managed together");

    TablePrinter table({"config", "coverage", "deep-tier share",
                        "NVM util", "mean promo latency",
                        "decompress cycles", "fault stalls (% CPU)"});
    struct Case
    {
        MachineConfig config;
        std::uint64_t remote_pages;
        const char *label;
    };
    const Case cases[] = {
        {nvm_config(0), 0, "zswap only (paper)"},
        {nvm_config(2048), 0, "+ NVM 8 MiB"},
        {nvm_config(8192), 0, "+ NVM 32 MiB"},
        {nvm_config(32768), 0, "+ NVM 128 MiB (overprovisioned)"},
        {three_tier_config(2048), 65536,
         "3-tier: NVM 8 MiB + remote 256 MiB"},
    };
    for (const Case &c : cases) {
        Outcome outcome = run_config(c.config, c.remote_pages, 41);
        bool has_deep = !c.config.tiers.empty();
        table.add_row(
            {c.label, fmt_percent(outcome.coverage),
             fmt_percent(outcome.nvm_share),
             has_deep ? fmt_percent(outcome.nvm_utilization) : "-",
             fmt_double(outcome.mean_promo_latency_us, 2) + " us",
             fmt_double(outcome.decompress_cycles / 1e6, 1) + "M",
             fmt_double(outcome.stall_cycles_pct, 4) + "%"});
    }
    table.print(std::cout);

    std::cout << "\nexpected: promotion latency and decompression CPU "
                 "fall as the NVM tier grows; the overprovisioned row "
                 "strands capacity (low utilization) -- the risk that "
                 "motivated software-defined flexibility. The 3-tier "
                 "row keeps a small fully-used NVM device and spills "
                 "to remote memory instead of stranding: same "
                 "coverage, no stranded capacity, but promotions from "
                 "the remote tier pay single-digit-us reads plus "
                 "retry stalls.\n";
    return 0;
}

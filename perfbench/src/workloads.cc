#include "workloads.h"

#include "util/units.h"

using namespace sdfm;

namespace perfbench {

namespace {

// Every workload runs 4 clusters: one process then steps at most 4
// fleet workers (one per cluster), which is the host's core count.
constexpr std::uint32_t kClusters = 4;

/**
 * fleet_scale's warehouse mix: 32-64 MiB jobs whose address spaces
 * are ~97% frozen, the paper's mostly-cold premise. The per-page
 * metadata walks (kstaled, kreclaimd) dominate a step and access
 * generation is minor.
 */
FleetMix
warehouse_cold_mix()
{
    JobProfile p;
    p.name = "fleet-scale-resident";
    p.min_pages = 8192;
    p.max_pages = 16384;
    p.hot_frac = 0.001;
    p.warm_frac = 0.004;
    p.diurnal_frac = 0.0;
    p.cold_frac = 0.025;
    p.hot_gap_mean = 120.0;
    p.warm_median_gap = 300.0;
    p.cold_scale = 7200.0;
    p.frozen_reaccess_prob = 0.002;
    p.write_frac = 0.05;
    FleetMix mix;
    mix.profiles.push_back(p);
    mix.weights.push_back(1.0);
    return mix;
}

FleetConfig
base_fleet(std::uint32_t machines, std::uint64_t dram_mib,
           std::uint64_t seed)
{
    FleetConfig config;
    config.seed = seed;
    config.num_clusters = kClusters;
    config.cluster.num_machines = machines / kClusters;
    config.cluster.machine.dram_pages = dram_mib * kMiB / kPageSize;
    config.cluster.machine.policy = FarMemoryPolicy::kProactive;
    config.cluster.machine.compression = CompressionMode::kModeled;
    config.cluster.target_utilization = 0.78;
    return config;
}

Workload
cold_fleet(std::uint64_t seed)
{
    Workload w;
    w.name = "cold_fleet";
    w.config = base_fleet(96, 256, seed);
    w.config.cluster.mix = warehouse_cold_mix();
    w.config.cluster.churn_per_hour = 0.0;
    w.config.cluster.collect_traces = false;
    // Steps 240-500: past the mass demotion and its aftershock, and
    // before idle ages saturate (255 scans, 510 steps, after the last
    // touch), so every scan period costs about the same.
    w.warmup_steps = 240;
    w.window_steps = 260;
    w.passes = 4;
    w.traced_steps = 60;
    w.quiet = true;
    return w;
}

Workload
busy_fleet(std::uint64_t seed)
{
    Workload w;
    w.name = "busy_fleet";
    w.config = base_fleet(32, 128, seed);
    // The six archetypes at a quarter of their usual job size, with
    // milder per-cluster weight jitter: four times as many jobs make
    // the fleet's load a stable average across seeds, while clusters
    // still differ.
    w.config.cluster.mix = typical_fleet_mix();
    for (JobProfile &p : w.config.cluster.mix.profiles) {
        p.min_pages /= 4;
        p.max_pages /= 4;
    }
    w.config.mix_weight_jitter = 0.25;
    w.config.cluster.churn_per_hour = 0.12;
    w.warmup_steps = 120;
    w.window_steps = 200;
    w.passes = 2;
    w.traced_steps = 40;
    w.export_frames = true;
    w.autotune = true;
    return w;
}

/**
 * cold_fleet's jobs on a pooled NVM + remote stack under fire: NVM
 * takes the moderately cold band, lease-backed remote memory the
 * deep-cold one, zswap the rest. The machine fault plane, the
 * broker's control-plane faults and a staged rollout with a lossy
 * push plane are all live.
 */
Workload
pooled_chaos(std::uint64_t seed)
{
    Workload w;
    w.name = "pooled_chaos";
    w.config = base_fleet(64, 256, seed);
    w.config.cluster.mix = warehouse_cold_mix();
    w.config.cluster.churn_per_hour = 0.0;
    w.config.cluster.collect_traces = false;

    MachineConfig &m = w.config.cluster.machine;
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = 8192;
    nvm.band_lo = 1.0;
    nvm.band_hi = 2.0;
    nvm.breaker_enabled = true;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.band_lo = 2.0;
    remote.band_hi = 0.0;
    remote.breaker_enabled = true;
    m.tiers = {nvm, remote};
    m.slo_breaker_enabled = true;
    m.fault.enabled = true;
    m.fault.donor_failure_prob = 0.002;
    m.fault.zswap_corruption_prob = 0.05;
    m.fault.corruption_batch = 4;
    m.fault.remote_degrade_prob = 0.02;
    m.fault.agent_crash_prob = 0.002;

    MemPoolParams &pool = w.config.cluster.pool;
    pool.enabled = true;
    pool.lease_pages = 2048;
    pool.max_leases_per_borrower = 4;
    pool.lease_term_periods = 30;
    pool.fault.enabled = true;
    pool.fault.lease_grant_loss_prob = 0.05;
    pool.fault.revocation_loss_prob = 0.05;
    pool.fault.broker_stall_prob = 0.02;

    RolloutParams &rollout = w.config.rollout;
    rollout.enabled = true;
    rollout.seed = seed ^ 0x5107BAD5ULL;
    rollout.fault.enabled = true;
    rollout.fault.config_push_loss_prob = 0.35;
    rollout.fault.config_push_stall_prob = 0.06;
    rollout.fault.config_split_brain_prob = 0.20;
    SloConfig candidate = m.slo;
    candidate.percentile_k = 97.0;
    candidate.enable_delay = 6 * kMinute;
    w.rollout_candidate = candidate;

    w.warmup_steps = 120;
    w.window_steps = 200;
    w.passes = 3;
    w.traced_steps = 60;
    return w;
}

}  // namespace

std::optional<Workload>
make_workload(const std::string &name, std::uint64_t seed)
{
    if (name == "cold_fleet")
        return cold_fleet(seed);
    if (name == "busy_fleet")
        return busy_fleet(seed);
    if (name == "pooled_chaos")
        return pooled_chaos(seed);
    return std::nullopt;
}

}  // namespace perfbench

#include "core/far_memory_system.h"

#include <algorithm>

#include "util/digest.h"
#include "util/invariant.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sdfm {

FarMemorySystem::FarMemorySystem(const FleetConfig &config)
    : config_(config), now_(config.start_time)
{
    SDFM_ASSERT(config_.num_clusters > 0);
    Rng rng(config_.seed);
    clusters_.reserve(config_.num_clusters);
    for (std::uint32_t c = 0; c < config_.num_clusters; ++c) {
        ClusterConfig cluster_config = config_.cluster;
        // Per-cluster workload diversity: jitter the archetype
        // weights so clusters have different cold-memory profiles
        // (Figure 2's cluster-to-cluster spread).
        for (double &w : cluster_config.mix.weights)
            w *= rng.next_lognormal(0.0, config_.mix_weight_jitter);
        clusters_.push_back(
            std::make_unique<Cluster>(c, cluster_config, rng.next_u64()));
    }
    // Clusters are fully independent (own machines, own RNG, own
    // trace log; job ids are namespaced by cluster), so stepping
    // them concurrently is deterministic and race-free. One worker
    // per cluster, capped at the hardware parallelism.
    if (config_.num_clusters > 1 && !config_.serial_step) {
        pool_ = std::make_unique<ThreadPool>(
            std::min<std::size_t>(config_.num_clusters,
                                  std::thread::hardware_concurrency()));
    }
    rebuild_machine_view();
    if (config_.rollout.enabled) {
        std::vector<std::uint32_t> machines_per_cluster;
        machines_per_cluster.reserve(clusters_.size());
        for (const auto &cluster : clusters_) {
            machines_per_cluster.push_back(
                static_cast<std::uint32_t>(cluster->machines().size()));
        }
        rollout_ = std::make_unique<ConfigRollout>(
            config_.rollout, config_.cluster.machine.slo, config_.seed,
            std::move(machines_per_cluster));
    }
}

void
FarMemorySystem::rebuild_machine_view()
{
    machine_view_.clear();
    machine_view_.reserve(clusters_.size());
    for (auto &cluster : clusters_)
        machine_view_.push_back(&cluster->machines());
}

void
FarMemorySystem::populate()
{
    for (auto &cluster : clusters_)
        cluster->populate(now_);
}

FleetStepResult
FarMemorySystem::step()
{
    std::vector<ClusterStepResult> steps(clusters_.size());
    if (pool_ != nullptr) {
        parallel_for(*pool_, clusters_.size(), [&](std::size_t c) {
            steps[c] = clusters_[c]->step(now_);
        });
    } else {
        for (std::size_t c = 0; c < clusters_.size(); ++c)
            steps[c] = clusters_[c]->step(now_);
    }

    FleetStepResult result;
    for (const ClusterStepResult &step : steps) {
        result.accesses += step.accesses;
        result.promotions += step.promotions;
        result.evictions += step.evicted;
    }
    // The rollout plane steps after the cluster barrier, on the fleet
    // thread, so pushes applied here take effect in the next period's
    // control rounds on every stepping (serial or pooled).
    if (rollout_ != nullptr) {
        rollout_->step(now_, config_.cluster.machine.control_period,
                       machine_view_);
    }
    now_ += config_.cluster.machine.control_period;

    // One metrics frame per control period, after the barrier, so the
    // exporter sees a quiesced fleet.
    if (exporter_ != nullptr)
        exporter_->write_frame(now_, fleet_telemetry());
    return result;
}

void
FarMemorySystem::run(SimTime duration)
{
    SimTime end = now_ + duration;
    while (now_ < end)
        step();
}

double
FarMemorySystem::fleet_cold_fraction() const
{
    std::uint64_t cold = 0;
    std::uint64_t used = 0;
    for (const auto &cluster : clusters_) {
        for (const auto &machine : cluster->machines()) {
            cold += machine->cold_pages_min_threshold();
            used += machine->resident_pages() +
                    machine->zswap_stored_pages();
        }
    }
    if (used == 0)
        return 0.0;
    return static_cast<double>(cold) / static_cast<double>(used);
}

double
FarMemorySystem::fleet_coverage() const
{
    std::uint64_t cold = 0;
    std::uint64_t stored = 0;
    for (const auto &cluster : clusters_) {
        for (const auto &machine : cluster->machines()) {
            cold += machine->cold_pages_min_threshold();
            // Any far tier counts: in two-tier configurations most
            // cold pages sit in the NVM/remote tier, not zswap
            // (identical to zswap-only coverage when no tier is
            // configured).
            stored += machine->far_memory_pages();
        }
    }
    if (cold == 0)
        return 0.0;
    return static_cast<double>(stored) / static_cast<double>(cold);
}

SampleSet
FarMemorySystem::job_cold_fractions() const
{
    SampleSet all;
    for (const auto &cluster : clusters_)
        all.add_all(cluster->job_cold_fractions().samples());
    return all;
}

std::uint64_t
FarMemorySystem::num_jobs() const
{
    std::uint64_t total = 0;
    for (const auto &cluster : clusters_)
        total += cluster->num_jobs();
    return total;
}

TraceLog
FarMemorySystem::merged_trace() const
{
    TraceLog merged;
    for (const auto &cluster : clusters_) {
        for (const auto &entry : cluster->trace_log().entries())
            merged.append(entry);
    }
    return merged;
}

MetricsSnapshot
FarMemorySystem::fleet_telemetry() const
{
    MetricsSnapshot snap;
    for (const auto &cluster : clusters_)
        snap.merge(cluster->telemetry_snapshot());
    if (rollout_ != nullptr)
        snap.merge(rollout_->telemetry_snapshot());
    return snap;
}

FleetFaultReport
FarMemorySystem::fault_report() const
{
    MetricsSnapshot snap = fleet_telemetry();
    FleetFaultReport report;
    report.faults_injected = snap.counter_or_zero("fault.injected");
    report.donor_failures = snap.counter_or_zero("fault.donor_failures");
    report.jobs_killed = snap.counter_or_zero("fault.jobs_killed");
    report.corruptions = snap.counter_or_zero("fault.corruptions");
    report.poisoned_entries =
        snap.counter_or_zero("zswap.poisoned_entries");
    report.remote_read_retries =
        snap.counter_or_zero("fault.remote_read_retries");
    report.remote_reads_exhausted =
        snap.counter_or_zero("fault.remote_reads_exhausted");
    report.tier_breaker_opens =
        snap.counter_or_zero("fault.tier_breaker_opens");
    report.nvm_media_errors =
        snap.counter_or_zero("fault.nvm_media_errors");
    report.nvm_capacity_lost_pages =
        snap.counter_or_zero("fault.nvm_capacity_lost_pages");
    report.nvm_spillover_pages =
        snap.counter_or_zero("fault.nvm_spillover_pages");
    report.agent_restarts = snap.counter_or_zero("agent.restarts");
    report.slo_breaker_trips =
        snap.counter_or_zero("agent.slo_breaker_trips");
    report.pool_leases_granted =
        snap.counter_or_zero("pool.leases_granted");
    report.pool_grants_aborted =
        snap.counter_or_zero("pool.grants_aborted");
    report.pool_revocations = snap.counter_or_zero("pool.revocations");
    report.pool_grace_drain_pages =
        snap.counter_or_zero("pool.grace_drains");
    report.pool_forced_kills = snap.counter_or_zero("pool.forced_kills");
    report.pool_broker_stalls =
        snap.counter_or_zero("pool.broker_stalls");
    report.pool_breaker_opens =
        snap.counter_or_zero("pool.broker_breaker_opens");
    report.rollout_pushes_delivered =
        snap.counter_or_zero("rollout.pushes_delivered");
    report.rollout_pushes_lost =
        snap.counter_or_zero("rollout.pushes_lost");
    report.rollout_pushes_aborted =
        snap.counter_or_zero("rollout.pushes_aborted");
    report.rollout_stall_periods =
        snap.counter_or_zero("rollout.stall_periods");
    report.rollout_split_brains =
        snap.counter_or_zero("rollout.split_brains");
    report.rollout_guardrail_breaches =
        snap.counter_or_zero("rollout.guardrail_breaches");
    report.rollout_deployments =
        snap.counter_or_zero("rollout.deployments");
    report.rollout_rollbacks = snap.counter_or_zero("rollout.rollbacks");
    return report;
}

void
FarMemorySystem::deploy_slo(const SloConfig &slo)
{
    for (auto &cluster : clusters_)
        cluster->deploy_slo(slo);
}

bool
FarMemorySystem::propose_slo(const SloConfig &slo)
{
    if (rollout_ == nullptr)
        return false;
    return rollout_->propose(now_, slo, machine_view_);
}

void
FarMemorySystem::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;
    for (const auto &cluster : clusters_)
        cluster->check_invariants();
    if (rollout_ != nullptr)
        rollout_->check_invariants(machine_view_);
}

std::uint64_t
FarMemorySystem::state_digest() const
{
    StateDigest d;
    d.mix(static_cast<std::uint64_t>(now_));
    d.mix(clusters_.size());
    for (const auto &cluster : clusters_)
        d.mix(cluster->state_digest());
    if (rollout_ != nullptr)
        d.mix(rollout_->state_digest(machine_view_));
    return d.value();
}

}  // namespace sdfm

/**
 * @file
 * Public facade: a warehouse-scale fleet of clusters running the
 * software-defined far-memory control plane. This is the entry point
 * examples and benches use; everything underneath (machines, kernel
 * daemons, zswap, node agents, scheduler) is wired up from one
 * configuration struct.
 */

#ifndef SDFM_CORE_FAR_MEMORY_SYSTEM_H
#define SDFM_CORE_FAR_MEMORY_SYSTEM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autotune/rollout.h"
#include "ckpt/checkpoint.h"
#include "cluster/cluster.h"
#include "node/slo.h"
#include "telemetry/exporter.h"
#include "telemetry/snapshot.h"
#include "util/sim_time.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace sdfm {

/** Whole-fleet configuration. */
struct FleetConfig
{
    /** Number of clusters. */
    std::uint32_t num_clusters = 4;

    /**
     * Per-cluster template; seeds are derived per cluster, and
     * archetype weights are jittered (below) so clusters differ the
     * way Figure 2's do.
     */
    ClusterConfig cluster;

    /** Lognormal sigma applied to each archetype weight per cluster. */
    double mix_weight_jitter = 0.6;

    /**
     * Wall-clock hour the simulation starts at. Characterization runs
     * shorter than a day should start in the morning so steady-state
     * measurement covers representative daytime load rather than the
     * diurnal trough.
     */
    SimTime start_time = 8 * kHour;

    std::uint64_t seed = 1;

    /**
     * Staged canary rollout for autotuner configs. Disabled by
     * default: the fleet then has no rollout plane at all and
     * deploy_slo() remains the instantaneous legacy path.
     */
    RolloutParams rollout;

    /**
     * Debug mode: step clusters serially on the calling thread
     * instead of fanning out over the thread pool. Trajectories are
     * identical either way -- clusters share no mutable state -- and
     * the determinism tests assert exactly that by comparing
     * state_digest() between a serial and a parallel fleet.
     */
    bool serial_step = false;
};

/** Fleet-level step aggregate. */
struct FleetStepResult
{
    std::uint64_t accesses = 0;
    std::uint64_t promotions = 0;
    std::uint64_t evictions = 0;
};

/**
 * Fleet-wide fault/recovery health report, built from the telemetry
 * rollup (every counter here also appears in metrics_dump output and
 * exporter frames). All zeros when the fault plane is inactive.
 */
struct FleetFaultReport
{
    std::uint64_t faults_injected = 0;      ///< fault.injected
    std::uint64_t donor_failures = 0;       ///< fault.donor_failures
    std::uint64_t jobs_killed = 0;          ///< fault.jobs_killed
    std::uint64_t corruptions = 0;          ///< fault.corruptions
    std::uint64_t poisoned_entries = 0;     ///< zswap.poisoned_entries
    std::uint64_t remote_read_retries = 0;  ///< fault.remote_read_retries
    std::uint64_t remote_reads_exhausted = 0;
    std::uint64_t tier_breaker_opens = 0;   ///< fault.tier_breaker_opens
    std::uint64_t nvm_media_errors = 0;     ///< fault.nvm_media_errors
    std::uint64_t nvm_capacity_lost_pages = 0;
    std::uint64_t nvm_spillover_pages = 0;  ///< fault.nvm_spillover_pages
    std::uint64_t agent_restarts = 0;       ///< agent.restarts
    std::uint64_t slo_breaker_trips = 0;    ///< agent.slo_breaker_trips

    // Memory pooling (all zero unless cluster pooling is enabled).
    std::uint64_t pool_leases_granted = 0;  ///< pool.leases_granted
    std::uint64_t pool_grants_aborted = 0;  ///< pool.grants_aborted
    std::uint64_t pool_revocations = 0;     ///< pool.revocations
    std::uint64_t pool_grace_drain_pages = 0;  ///< pool.grace_drains
    std::uint64_t pool_forced_kills = 0;    ///< pool.forced_kills
    std::uint64_t pool_broker_stalls = 0;   ///< pool.broker_stalls
    std::uint64_t pool_breaker_opens = 0;  ///< pool.broker_breaker_opens

    // Config rollout (all zero unless the fleet rollout is enabled).
    std::uint64_t rollout_pushes_delivered = 0;
    std::uint64_t rollout_pushes_lost = 0;
    std::uint64_t rollout_pushes_aborted = 0;
    std::uint64_t rollout_stall_periods = 0;
    std::uint64_t rollout_split_brains = 0;
    std::uint64_t rollout_guardrail_breaches = 0;
    std::uint64_t rollout_deployments = 0;
    std::uint64_t rollout_rollbacks = 0;
};

/** The warehouse-scale system. */
class FarMemorySystem
{
  public:
    explicit FarMemorySystem(const FleetConfig &config);

    /** Place the initial job population (time 0 unless told
     *  otherwise). */
    void populate();

    /** Advance the fleet by one control period. */
    FleetStepResult step();

    /** Run for @p duration of simulated time. */
    void run(SimTime duration);

    /** Current simulation time. */
    SimTime now() const { return now_; }

    std::vector<std::unique_ptr<Cluster>> &clusters() { return clusters_; }
    const std::vector<std::unique_ptr<Cluster>> &clusters() const
    {
        return clusters_;
    }

    // -- fleet aggregates --------------------------------------------

    /** Cold fraction at the minimum threshold across the fleet. */
    double fleet_cold_fraction() const;

    /** Cold-memory coverage across the fleet (Section 6.1). */
    double fleet_coverage() const;

    /** Per-job cold fractions across all clusters (Figure 3). */
    SampleSet job_cold_fractions() const;

    /** Total jobs running. */
    std::uint64_t num_jobs() const;

    /** Threads stepping the clusters (1 when stepped serially). */
    std::size_t
    step_workers() const
    {
        return pool_ ? pool_->num_threads() : 1;
    }

    /** Merge every cluster's telemetry into one log. */
    TraceLog merged_trace() const;

    /** Deploy new SLO tunables fleet-wide (autotuner output). The
     *  legacy unguarded path: an instantaneous fleet-wide swap with
     *  no canary, no guardrails, and no config-epoch bump. Prefer
     *  propose_slo() when the rollout plane is enabled. */
    void deploy_slo(const SloConfig &slo);

    /**
     * Hand new SLO tunables to the staged rollout plane
     * (FleetConfig::rollout). The config is canaried through seeded
     * per-cluster cohorts, watched against SLO guardrails, and either
     * expanded to the whole fleet or automatically rolled back.
     * Returns false when the rollout plane is disabled or a campaign
     * is already in flight.
     */
    bool propose_slo(const SloConfig &slo);

    /** The rollout plane; nullptr unless FleetConfig::rollout is
     *  enabled. */
    ConfigRollout *rollout() { return rollout_.get(); }
    const ConfigRollout *rollout() const { return rollout_.get(); }

    // -- metrics plane -----------------------------------------------

    /**
     * Fleet-wide metrics rollup: every cluster's rollup in cluster
     * order, then the rollout's, merged into one snapshot (counters
     * and gauges sum, histograms accumulate bucket-wise).
     */
    MetricsSnapshot fleet_telemetry() const;

    /**
     * Fleet-wide fault and recovery counters, read out of the
     * telemetry rollup. Cheap enough to call per step in chaos runs.
     */
    FleetFaultReport fault_report() const;

    /**
     * Attach a snapshot exporter; step() then emits one fleet frame
     * per control period (one simulated minute). Not owned; null
     * detaches. The exporter is driven after the step completes, so
     * frames always describe a quiesced fleet.
     */
    void set_metrics_exporter(TelemetryExporter *exporter)
    {
        exporter_ = exporter;
    }

    const FleetConfig &config() const { return config_; }

    /**
     * Whole-fleet consistency check (SDFM_INVARIANT tier): every
     * cluster, machine, cgroup and arena reconciles. A no-op unless
     * the build defines SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

    /**
     * Order-sensitive digest of the fleet's trajectory state. Two
     * fleets built from the same FleetConfig -- including one stepped
     * serially and one in parallel -- must agree on it after every
     * step.
     */
    std::uint64_t state_digest() const;

    // -- checkpoint/restore ------------------------------------------

    /**
     * Write a crash-consistent snapshot of the whole fleet to @p path
     * (atomic: temp file + rename). Sections: "config" (the fleet
     * configuration fingerprint), "fleet" (simulation clock), and one
     * "cluster.NNNN" per cluster. Restoring the file into a fleet
     * built from the same FleetConfig and running to step N
     * reproduces the uninterrupted run's state_digest() trajectory
     * exactly.
     */
    CkptStatus checkpoint(const std::string &path) const;

    /**
     * Replace this fleet's state with the snapshot at @p path. The
     * checkpoint is staged into a replica fleet first and committed
     * by swap only after every section validated and loaded cleanly,
     * so any rejection -- kTruncated, kCrcMismatch, kBadMagic,
     * kBadVersion, kConfigMismatch (the file was taken under a
     * different FleetConfig), kCorruptPayload -- leaves the live
     * fleet untouched.
     */
    CkptStatus restore(const std::string &path);

  private:
    // sdfm-state: config(fixed at construction; checkpoints compare
    // config fingerprints rather than digesting the struct)
    FleetConfig config_;
    SimTime now_;
    std::vector<std::unique_ptr<Cluster>> clusters_;
    /** Steps clusters in parallel (one task per cluster); clusters
     *  share no mutable state, so the only sync is the step barrier.
     *  sdfm-state: non-semantic(execution vehicle only; serial and
     *  pooled runs must digest identically, so it must stay out) */
    std::unique_ptr<ThreadPool> pool_;
    // sdfm-state: rebuilt-on-resolve(external sink wired by the
    // driver via set_exporter(); never owned or serialized)
    TelemetryExporter *exporter_ = nullptr;

    /** Staged config rollout; null unless config_.rollout.enabled.
     *  Stepped after the cluster barrier each period and serialized
     *  into its own "rollout" checkpoint section. */
    std::unique_ptr<ConfigRollout> rollout_;
    /** Per-cluster machine lists handed to the rollout (it operates
     *  on node-layer objects, never through Cluster).
     *  sdfm-state: rebuilt-on-resolve(borrowed pointers into the
     *  clusters; rebuilt after construction and restore) */
    ConfigRollout::MachineView machine_view_;

    void rebuild_machine_view();
};

/**
 * Memory-TCO accounting (Section 6.1): the fraction of DRAM spend
 * saved given coverage, the cold-memory bound, and the achieved
 * compression ratio.
 */
struct TcoModel
{
    double coverage = 0.20;           ///< cold memory stored in zswap
    double cold_fraction = 0.32;      ///< cold bound at T = 120 s
    double compression_ratio = 3.0;   ///< median ratio of stored pages

    /** Fraction of all memory that ends up compressed. */
    double compressed_fraction() const { return coverage * cold_fraction; }

    /** Cost reduction for compressed bytes (67% at 3x). */
    double per_byte_saving() const
    {
        return 1.0 - 1.0 / compression_ratio;
    }

    /** Fleet DRAM TCO savings fraction. */
    double tco_savings() const
    {
        return compressed_fraction() * per_byte_saving();
    }
};

}  // namespace sdfm

#endif  // SDFM_CORE_FAR_MEMORY_SYSTEM_H

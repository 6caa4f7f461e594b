/**
 * @file
 * A cluster: tens of machines, a Borg-like scheduler placing a churn
 * of jobs drawn from a fleet mix, and cluster-level aggregation.
 * Evicted best-effort jobs are rescheduled onto other machines with
 * capacity ("fail fast and restart elsewhere", Section 4.2 / 5.1).
 */

#ifndef SDFM_CLUSTER_CLUSTER_H
#define SDFM_CLUSTER_CLUSTER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/mem_pool.h"
#include "node/machine.h"
#include "telemetry/snapshot.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/job_profile.h"
#include "workload/trace.h"

namespace sdfm {

/** Placement strategies (ablation surface). */
enum class PlacementStrategy
{
    kWorstFit,   ///< machine with most free memory (Borg-like spreading)
    kFirstFit,   ///< first machine that fits
    kRandomFit,  ///< random machine among those that fit
};

/** Cluster configuration. */
struct ClusterConfig
{
    std::uint32_t num_machines = 16;
    MachineConfig machine;
    FleetMix mix;

    /**
     * Initial packing: jobs are placed until the fleet's resident
     * footprint reaches this fraction of total DRAM.
     */
    double target_utilization = 0.80;

    /** Fraction of jobs replaced per hour (workload churn). */
    double churn_per_hour = 0.01;

    /**
     * CPU frequencies of the server generations in the cluster; each
     * machine draws one uniformly. The paper notes old platforms form
     * a large share of the fleet -- exactly why retrofittable
     * software-defined far memory matters -- and platform speed
     * spreads the decompression-latency distribution (Figure 9b).
     */
    std::vector<double> platform_ghz = {2.0, 2.3, 2.6, 3.0};

    PlacementStrategy placement = PlacementStrategy::kWorstFit;

    /**
     * Retain per-job telemetry windows in the cluster TraceLog. The
     * log is consumed only offline (merged_trace(), checkpoints) --
     * the live trajectory never reads it -- but it grows without
     * bound (~4 KiB per job per 5-minute window), which long
     * large-fleet benchmarks cannot afford. Disabling changes no
     * simulation behaviour, only what is retained for analysis.
     */
    bool collect_traces = true;

    /**
     * Cluster memory pooling: the cluster owns a MemoryBroker that
     * grants every machine's remote tier its lease slots, stepping
     * before the machines each period. Enabled exactly when
     * machine.tiers holds a kRemote tier, and then it holds only
     * one; the constructor rejects every other combination.
     */
    MemPoolParams pool;
};

/** Per-step cluster result. */
struct ClusterStepResult
{
    std::uint64_t accesses = 0;
    std::uint64_t promotions = 0;
    std::uint64_t evicted = 0;
    std::uint64_t rescheduled = 0;
    std::uint64_t churned = 0;
};

/** Outcome of an explicitly injected donor failure. */
struct DonorFailureResult
{
    std::vector<JobId> killed;      ///< jobs that lost remote pages
    std::uint64_t rescheduled = 0;  ///< of those, restarted elsewhere
};

/** One cluster. */
class Cluster
{
  public:
    Cluster(std::uint32_t cluster_id, const ClusterConfig &config,
            std::uint64_t seed);

    std::uint32_t cluster_id() const { return cluster_id_; }

    /**
     * Initial placement: schedule sampled jobs until the target
     * utilization is reached (or nothing more fits).
     */
    void populate(SimTime now);

    /** Step every machine by one control period; churn and evictions
     *  are handled (evicted jobs restart fresh elsewhere). */
    ClusterStepResult step(SimTime now);

    // -- aggregation -------------------------------------------------

    /** All machines. */
    std::vector<std::unique_ptr<Machine>> &machines() { return machines_; }
    const std::vector<std::unique_ptr<Machine>> &machines() const
    {
        return machines_;
    }

    /** Total jobs currently running. */
    std::uint64_t num_jobs() const;

    /**
     * Fleet-wide cold-memory fraction at the minimum threshold:
     * sum(cold pages) / sum(used uncompressed-equivalent pages).
     */
    double cold_memory_fraction() const;

    /** Cluster-level cold-memory coverage (Section 6.1). */
    double coverage() const;

    /** Per-machine cold-memory fractions (Figure 2). */
    SampleSet machine_cold_fractions() const;

    /** Per-machine coverage values (Figure 6). */
    SampleSet machine_coverages() const;

    /** Per-job cold fractions (Figure 3). */
    SampleSet job_cold_fractions() const;

    /** The cluster's telemetry database. */
    TraceLog &trace_log() { return trace_log_; }

    /** The memory-pooling broker; null unless config.pool.enabled. */
    MemoryBroker *broker() { return broker_.get(); }
    const MemoryBroker *broker() const { return broker_.get(); }

    /**
     * Cluster-level metrics rollup: every machine's snapshot merged
     * bucket-wise in machine order, then the broker's, plus the
     * cluster.jobs gauge. Fleet rollups merge
     * these again (FarMemorySystem::fleet_telemetry), so gauges hold
     * additive quantities.
     */
    MetricsSnapshot telemetry_snapshot() const;

    /** Change SLO tunables fleet-wide (autotuner deployment). */
    void deploy_slo(const SloConfig &slo);

    /**
     * Fault plane: crash the donor behind remote-tier lease
     * @p lease_id of machine @p machine_index right now. Victim jobs
     * are killed (the failure-domain expansion of Section 2.1) and
     * restarted fresh on machines with capacity, exactly as step()'s
     * eviction path does; the broker reconciles the lease on its next
     * step. A no-op (empty result) when the machine holds no such
     * lease.
     */
    DonorFailureResult inject_donor_failure(SimTime now,
                                            std::uint32_t machine_index,
                                            std::uint32_t lease_id);

    /**
     * Whole-cluster consistency check (SDFM_INVARIANT tier): every
     * machine reconciles (Machine::check_invariants). A no-op unless
     * the build defines SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

    /**
     * Order-sensitive digest over every machine's trajectory state
     * plus the scheduler's. The serial-vs-parallel determinism test
     * asserts these agree step for step.
     */
    std::uint64_t state_digest() const;

    /**
     * Checkpointable-shaped snapshot: the scheduler RNG, the job-id
     * allocator, the telemetry database, and every machine in index
     * order. ckpt_load() expects a freshly constructed Cluster with
     * the identical ClusterConfig and seed (machine construction
     * consumes the cluster RNG for platform draws and machine seeds,
     * so config identity implies the same machine wiring); it
     * validates the machine count and fails without partially
     * applying a corrupt snapshot beyond the machine being loaded.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);

  private:
    /** Place a job on a machine with capacity; null if none fits. */
    Machine *pick_machine(std::uint64_t pages);

    /** Create and place one sampled job; false if nothing fits, with
     *  the unplaced job's size in @p unplaced_pages when given. */
    bool schedule_new_job(SimTime now,
                          std::uint32_t *unplaced_pages = nullptr);

    std::uint32_t cluster_id_;
    // sdfm-state: config(fixed at construction; the fleet checkpoint
    // compares config fingerprints instead of carrying it on the wire)
    ClusterConfig config_;
    Rng rng_;
    std::vector<std::unique_ptr<Machine>> machines_;
    /** Memory-pooling broker; null unless config_.pool.enabled.
     *  Checkpointed via per-cluster "pool.NNNN" fleet sections, not
     *  the cluster wire (the machine wire stays unchanged).
     *  sdfm-state: rebuilt-on-resolve(restored by the fleet's
     *  pool-section pass in fleet_ckpt, outside Cluster::ckpt_load) */
    std::unique_ptr<MemoryBroker> broker_;
    TraceLog trace_log_;
    JobId next_job_id_;
};

}  // namespace sdfm

#endif  // SDFM_CLUSTER_CLUSTER_H

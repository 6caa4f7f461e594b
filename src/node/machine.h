/**
 * @file
 * One production machine: DRAM, a set of jobs in memcgs, the zswap
 * store with its machine-global zsmalloc arena, the kstaled and
 * kreclaimd daemons, and the node agent. Stepped at the control
 * period (one minute); kstaled scans every 120 s.
 *
 * Step ordering mirrors the deployed system:
 *   1. applications access pages (zswap faults promote),
 *   2. kstaled scans (when due) update ages and histograms,
 *   3. the node agent reruns the threshold controller,
 *   4. kreclaimd compresses pages past their job's threshold,
 *   5. memory pressure is handled (direct reclaim / eviction),
 *   6. telemetry is exported every 5 minutes.
 */

#ifndef SDFM_NODE_MACHINE_H
#define SDFM_NODE_MACHINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "compression/compressor.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "mem/kreclaimd.h"
#include "mem/kstaled.h"
#include "mem/tier_stack.h"
#include "mem/zswap.h"
#include "node/node_agent.h"
#include "node/policy.h"
#include "telemetry/snapshot.h"
#include "util/units.h"
#include "workload/job.h"
#include "workload/trace.h"

namespace sdfm {

/** Machine configuration. */
struct MachineConfig
{
    /** DRAM capacity in 4 KiB pages. */
    std::uint64_t dram_pages = 64 * 1024;  // 256 MiB at model scale

    FarMemoryPolicy policy = FarMemoryPolicy::kProactive;
    SloConfig slo;
    AgeBucket static_threshold = 4;

    CompressionMode compression = CompressionMode::kModeled;
    CostModelParams cost_model;

    /**
     * Qualification mode: keep real compressed payloads in the arena
     * and byte-verify every promotion against regenerated contents
     * (requires CompressionMode::kReal to take effect).
     */
    bool verify_zswap_roundtrip = false;

    /** Control period (the node agent's cadence). */
    SimTime control_period = kMinute;

    /**
     * Reactive policy: direct reclaim triggers when free DRAM drops
     * below this fraction of capacity, and frees up to twice it.
     */
    double reactive_free_watermark = 0.04;

    /** Control periods between zsmalloc compactions. */
    std::uint64_t compact_every = 30;

    KstaledParams kstaled;
    KreclaimdParams kreclaimd;

    /**
     * The far-memory tiers below zswap (NVM, remote memory), in
     * routing-priority order: the machine demotes into the deepest
     * matching age band first. Empty (the default) is the paper's
     * deployed zswap-only machine. Each tier exports tier.<label>.*
     * metrics. A remote tier starts empty and holds only the lease
     * slots granted to it: by the cluster's MemoryBroker inside a
     * fleet, by the owner (RemoteTier::grant_lease) for a standalone
     * machine.
     */
    std::vector<TierConfig> tiers;

    // -- fault plane (all off by default; the default configuration
    // -- leaves simulation trajectories bit-identical) ---------------

    /** Seeded fault-injection schedule for this machine. Donor
     *  failures (fault.donor_failure_prob) hit the remote tier's
     *  leases. */
    FaultConfig fault;

    /** Per-job SLO circuit breaker (forwarded to the node agent). */
    bool slo_breaker_enabled = false;
    CircuitBreakerParams slo_breaker;
};

/**
 * Machine-level cumulative counters. The first six fold into
 * state_digest(); the rest are telemetry only (checkpointed, not
 * digested).
 */
struct MachineCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t promotions = 0;
    std::uint64_t direct_reclaims = 0;     ///< pressure events
    /** Jobs killed against their will: OOM, donor failures, and
     *  failed leases. */
    std::uint64_t evictions = 0;
    double kstaled_cycles = 0.0;
    double kreclaimd_cycles = 0.0;

    std::uint64_t oom_evictions = 0;  ///< the OOM subset of evictions
    /** Jobs killed by fault-plane donor failures. */
    std::uint64_t fault_kills = 0;
    /** Pages re-homed in zswap after NVM capacity-loss faults. */
    std::uint64_t nvm_spillover_pages = 0;

    KstaledStats kstaled;
    KreclaimdStats kreclaimd;

    /** Levels sampled at the end of the last step. */
    std::uint64_t resident_pages = 0;
    std::uint64_t cold_pages = 0;
    std::uint64_t far_memory_pages = 0;
};

/** Result of one machine step. */
struct MachineStepResult
{
    std::uint64_t accesses = 0;
    std::uint64_t promotions = 0;
    std::vector<JobId> evicted;  ///< jobs killed this step (OOM or
                                 ///< remote-tier data loss)
    std::uint64_t donor_failures = 0;
    std::uint64_t faults_injected = 0;  ///< fault events applied
};

/** One machine. */
class Machine
{
  public:
    Machine(std::uint32_t machine_id, const MachineConfig &config,
            std::uint64_t seed);

    std::uint32_t machine_id() const { return machine_id_; }

    /** True iff @p pages more resident pages fit right now. */
    bool has_capacity_for(std::uint64_t pages) const;

    /** Schedule a job onto this machine (takes ownership). */
    Job &add_job(std::unique_ptr<Job> job);

    /** Remove a job (normal exit); drops its zswap pages. */
    void remove_job(JobId id);

    /** Run one control period ending at @p now + control_period. */
    MachineStepResult step(SimTime now);

    // -- accounting -------------------------------------------------

    /** Resident uncompressed pages across jobs. */
    std::uint64_t resident_pages() const;

    /** Pages backing the zswap arena. */
    std::uint64_t zswap_pool_pages() const;

    /** resident + zswap pool + pages donated to the memory pool. */
    std::uint64_t used_pages() const;

    std::uint64_t free_pages() const;

    // -- cluster memory pooling (driven by MemoryBroker) --------------

    /**
     * Pages this machine is donating to the cluster pool (backing
     * other machines' leases). Donated pages count toward used_pages()
     * -- they are unavailable for placement and raise the pressure
     * signal -- but the OOM eviction path excludes them: donating
     * never directly kills this machine's jobs; revocation with a
     * grace window is the relief path.
     */
    std::uint64_t donated_pages() const { return donated_pages_; }
    void donate_pages(std::uint64_t pages) { donated_pages_ += pages; }
    void return_donated(std::uint64_t pages);

    /** Checkpoint rebinding only: the broker's ckpt_resolve() derives
     *  the donation total from the restored lease table. */
    void set_donated_pages(std::uint64_t pages)
    {
        donated_pages_ = pages;
    }

    /**
     * Broker breaker gate over the remote tier: while gated the tier
     * accepts no new demotions and the route table falls through to
     * shallower tiers (NVM/zswap). No-op when no remote tier exists.
     */
    void set_pool_gate(bool gated);

    /**
     * Drain up to @p budget pages stored under @p lease_id out of the
     * remote tier, re-homing them in zswap where the page contents
     * allow (the grace-window drain). Returns pages dropped from the
     * lease.
     */
    std::uint64_t drain_lease(std::uint32_t lease_id,
                              std::uint64_t budget);

    /**
     * The lease's pages are gone (grace expired or donor crashed):
     * drop them and kill the owning jobs. Returns the victims (the
     * caller reschedules them).
     */
    std::vector<JobId> fail_lease(std::uint32_t lease_id);

    /** The (shallowest) remote tier, or null when the stack has
     *  none. */
    RemoteTier *remote_tier();

    /** Sum of per-job cold pages under the 120 s threshold. */
    std::uint64_t cold_pages_min_threshold() const;

    /** Pages stored in zswap (uncompressed-equivalent count). */
    std::uint64_t zswap_stored_pages() const
    {
        return zswap_->stored_pages();
    }

    /** Pages stored in tiers below zswap (0 when none configured). */
    std::uint64_t tier_stored_pages() const
    {
        return tiers_.deep_used_pages();
    }

    /** Pages stored in any far-memory tier. */
    std::uint64_t far_memory_pages() const
    {
        return zswap_stored_pages() + tier_stored_pages();
    }

    /**
     * Cold-memory coverage (Section 6.1): pages stored in far memory
     * divided by cold pages under the minimum threshold.
     */
    double cold_memory_coverage() const;

    const std::vector<std::unique_ptr<Job>> &jobs() const { return jobs_; }
    Job *find_job(JobId id);
    Zswap &zswap() { return *zswap_; }
    const Zswap &zswap() const { return *zswap_; }

    /**
     * The machine's full memory-tier stack: zswap at index 0, deeper
     * tiers behind it in routing order. Replaces the old
     * dynamic_cast-based per-kind accessors; callers that need a
     * concrete tier look it up by kind via TierStack::find().
     */
    TierStack &tiers() { return tiers_; }
    const TierStack &tiers() const { return tiers_; }

    NodeAgent &agent() { return agent_; }
    const NodeAgent &agent() const { return agent_; }
    const MachineCounters &counters() const { return counters_; }
    const MachineConfig &config() const { return config_; }

    // -- fault plane -------------------------------------------------

    const FaultInjector &fault_injector() const { return fault_; }

    /** The first deep tier's breaker (asserts a deep tier exists). */
    const CircuitBreaker &tier_breaker() const
    {
        return tiers_.entry(1).breaker;
    }

    /**
     * Crash the donor behind remote-tier lease @p lease_id right now:
     * the lease's pages are lost and the owning jobs are killed (the
     * caller reschedules them -- see Cluster::inject_donor_failure).
     * No-op returning an empty list when no remote tier holds that
     * lease.
     */
    std::vector<JobId> fail_donor(std::uint32_t lease_id);

    /**
     * Crash-and-restart the node agent right now: all controller
     * state is lost and every job re-enters the S-second zswap-off
     * warmup. For tests and targeted chaos runs; scheduled crashes go
     * through the fault injector.
     */
    void crash_agent(SimTime now);

    /**
     * Apply a supervised config push (staged rollout delivery): new
     * SLO tunables plus the config-epoch bump the rollout's
     * per-machine audit verifies. @p conservative re-enters the
     * S-second warmup for every job (the rollback posture).
     */
    void deploy_slo(SimTime now, const SloConfig &slo,
                    std::uint64_t epoch, bool conservative);

    /**
     * The machine.*, zswap.*, kstaled.*, kreclaimd.*, agent.*,
     * controller.*, fault.* and tier.<label>.* metrics, read from the
     * stats structs that own each event. Gauges sampled inside step()
     * keep their sampling point. Cluster merges these into the
     * cluster- and fleet-level rollups.
     */
    MetricsSnapshot telemetry_snapshot() const;

    /** Telemetry sink; null disables export. */
    void set_trace_sink(TraceLog *sink) { trace_sink_ = sink; }

    /**
     * Whole-machine consistency check (SDFM_INVARIANT tier): every
     * job's cgroup reconciles (Memcg::check_invariants), the zswap
     * store and its arena reconcile, and the cross-structure sums
     * agree -- per-job zswap/NVM residency vs the store and tier
     * counters, the jobs' zswap handles vs the arena's live handles,
     * and DRAM capacity after pressure handling. Called at
     * the end of every step(); a no-op unless the build defines
     * SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

    /**
     * Order-sensitive digest over the machine's trajectory state: all
     * job cgroups (in placement order), the zswap arena accounting,
     * tier occupancy, breaker state, and the step counters. Serial
     * and parallel fleet stepping must agree on it.
     */
    std::uint64_t state_digest() const;

    /**
     * Checkpointable-shaped snapshot of the whole machine: RNG,
     * cumulative counters, scan/telemetry cadence anchors, the fault
     * plane (injector, tier breaker, degradation windows, last-seen
     * failure counters), every job in placement order, the zswap
     * store with its arena, the deep tiers, and the node agent.
     * ckpt_load() expects a freshly
     * constructed Machine with the identical MachineConfig; it
     * cross-checks the restored accounting (per-job far-memory
     * residency vs store/tier occupancy, the jobs' zswap handles vs
     * the arena's live handles, agent job membership, DRAM capacity)
     * and returns false on any disagreement.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);

  private:
    /** The jobs' zswap pages claim the arena's live handles, each once. */
    bool handles_match_arena() const;

    void handle_pressure(MachineStepResult *result);
    std::vector<Memcg *> memcgs();

    /** Apply this step's injected fault events (and expire old ones). */
    void apply_faults(SimTime now, SimTime period_end,
                      MachineStepResult *result);

    /** Remove victim jobs of a donor failure; updates @p result. */
    void kill_victims(const std::vector<JobId> &victims,
                      MachineStepResult *result);

    /**
     * Move up to @p overflow pages out of the tier at @p tier_index
     * (capacity loss) into zswap; pages zswap cannot take stay
     * resident. Returns pages actually re-homed in zswap.
     */
    std::uint64_t spill_tier_overflow(std::size_t tier_index,
                                      std::uint64_t overflow);

    /** Feed tier health into the breakers. */
    void update_fault_plane();

    std::uint32_t machine_id_;
    // sdfm-state: config(fixed at construction; checkpoints compare
    // config fingerprints rather than carrying it on the wire)
    MachineConfig config_;
    Rng rng_;
    // sdfm-state: config(stateless functor chosen by config_.model;
    // rebuilt identically from config at construction)
    std::unique_ptr<Compressor> compressor_;
    /** zswap at index 0, deeper tiers behind it. Owns the tiers. */
    TierStack tiers_;
    /** Cached tiers_.zswap() -- the hot path in step(). */
    Zswap *zswap_ = nullptr;
    /** Maps age bands to tiers each step.
     *  sdfm-state: config(stateless policy; every decision lands in
     *  the digested plan effects) */
    BandRoutingPolicy routing_;
    /** Scratch demotion plan, reused across steps (no allocation).
     *  sdfm-state: non-semantic(per-step scratch, fully rebuilt by
     *  the routing policy before each reclaim pass) */
    DemotionPlan plan_;
    // sdfm-state: config(stateless daemon; behaviour fixed by its
    // construction-time params)
    Kstaled kstaled_;
    // sdfm-state: config(stateless daemon; behaviour fixed by its
    // construction-time params)
    Kreclaimd kreclaimd_;
    // sdfm-state: derived(every control decision lands in the
    // digested per-memcg reclaim_threshold_ the same round; its own
    // history is ckpt-covered and resume-verified)
    NodeAgent agent_;
    std::vector<std::unique_ptr<Job>> jobs_;
    /** sdfm-state: rebuilt-on-resolve(borrowed sink, rebound by the
     *  owning Cluster after construction and after restore) */
    TraceLog *trace_sink_ = nullptr;
    MachineCounters counters_;
    SimTime last_scan_ = -kScanPeriod;
    std::uint32_t scan_phase_ = 0;
    SimTime last_telemetry_ = 0;
    std::uint64_t steps_ = 0;
    /** Pages donated to the cluster memory pool. Not serialized: the
     *  broker's ckpt_resolve() re-derives it from the lease table,
     *  and MemoryBroker::state_digest() folds it in per machine.
     *  sdfm-state: derived(re-derived from the serialized lease table
     *  by the broker's ckpt_resolve; digested at the broker level) */
    std::uint64_t donated_pages_ = 0;

    // -- fault plane -------------------------------------------------
    FaultInjector fault_;
    // Per-tier breakers, degradation windows, and last-seen fault
    // counters live on the TierStack entries.
};

}  // namespace sdfm

#endif  // SDFM_NODE_MACHINE_H

/**
 * @file
 * Staged canary rollout for autotuner configurations (Section 5.3's
 * "deployed in stages", promoted to a first-class subsystem).
 *
 * The autotuner's winning (K, S) is the one fleet-wide mutation the
 * control plane cannot circuit-break its way out of: a bad config
 * regresses every job at once, and FarMemorySystem::deploy_slo is an
 * instantaneous, unguarded swap. ConfigRollout converts that swap
 * into a supervised, revocable, crash-consistent operation:
 *
 *   kProposed -- a baseline window measures the fleet's pre-rollout
 *     guardrail rates (SLO-breaker trips, poisoned zswap entries,
 *     OOM/fail-fast evictions, tail promotion rate);
 *   kCanary / kExpanding -- seeded per-cluster machine cohorts get
 *     the candidate pushed stage by stage, each stage observed for a
 *     configurable window against the baseline;
 *   kDeployed -- every stage held, the candidate is the fleet config;
 *   kRollingBack / kRolledBack -- any guardrail breach (or exhausted
 *     push retries) pushes the previous config back to every switched
 *     machine, conservatively re-entering the S-second warmup through
 *     the ThresholdController deployment path.
 *
 * The push path itself is failure-modelled in the broker style: push
 * deliveries can be lost (bounded retry with exponential backoff,
 * then stage abort), the push plane can stall (frozen stage window),
 * and a push can be acknowledged but never applied (split brain) --
 * detected by the per-machine config-epoch audit and reconciled by
 * redelivery. Everything is deterministic: cohorts come from one
 * seeded RNG and are walked in sorted order, faults come from the
 * rollout's own injector, and the full rollout state (stage, cohorts,
 * epochs, baseline snapshot, in-flight pushes) checkpoints into its
 * own versioned fleet section with ckpt_resolve cross-checks, so a
 * crash mid-rollout resumes to the exact digest trajectory.
 *
 * Layering: the rollout addresses machines through per-cluster
 * machine lists (node-layer objects) handed in by FarMemorySystem;
 * it never calls through Cluster.
 */

#ifndef SDFM_AUTOTUNE_ROLLOUT_H
#define SDFM_AUTOTUNE_ROLLOUT_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/checkpoint.h"
#include "fault/fault_injector.h"
#include "node/machine.h"
#include "node/slo.h"
#include "telemetry/snapshot.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace sdfm {

/** Rollout state machine. */
enum class RolloutState : std::uint8_t
{
    kIdle = 0,     ///< no campaign; the fleet runs current_config()
    kProposed,     ///< measuring the pre-rollout guardrail baseline
    kCanary,       ///< stage 0 cohort runs the candidate
    kExpanding,    ///< later stages expanding while guardrails hold
    kDeployed,     ///< candidate deployed fleet-wide (terminal)
    kRollingBack,  ///< breach: pushing the old config back
    kRolledBack,   ///< rollback complete (terminal)
};

/** Human-readable state name (for tables and logs). */
const char *rollout_state_name(RolloutState state);

/** Guardrail tolerances, all relative to the baseline window. */
struct RolloutGuardrails
{
    /** The cohort's p98 realized promotion rate may not exceed
     *  headroom * max(SLO target, baseline p98). */
    double promo_headroom = 1.5;

    /** Event-counter guardrails (breaker trips, poisoned entries,
     *  evictions) allow slack * baseline-rate * machine-periods ... */
    double counter_slack = 3.0;

    /** ... plus this many absolute events per window, so a quiet
     *  baseline does not turn one unlucky event into a rollback. */
    std::uint64_t counter_grace = 4;
};

/** Rollout configuration (part of FleetConfig). */
struct RolloutParams
{
    /** Master switch; false (the default) leaves the fleet without a
     *  rollout plane and every trajectory bit-identical to builds
     *  that predate it. */
    bool enabled = false;

    /** Mixed with the fleet seed to derive the cohort-shuffle and
     *  fault streams. */
    std::uint64_t seed = 0x5107;

    /** Cumulative fraction of each cluster's machines on the
     *  candidate per stage, ascending, last entry 1.0. Stage 0 is the
     *  canary. */
    std::vector<double> stage_fractions = {0.25, 0.5, 1.0};

    /** Control periods of baseline measurement before the canary. */
    std::uint64_t baseline_periods = 5;

    /** Control periods each stage is observed before expanding. */
    std::uint64_t observe_periods = 8;

    RolloutGuardrails guardrails;

    /** Lost push deliveries tolerated per push before the stage is
     *  aborted (rollback pushes retry without bound). */
    std::uint32_t max_push_retries = 3;

    /** Base of the exponential push-redelivery backoff, in periods
     *  (retry k waits base << (k-1), capped). */
    std::uint64_t push_backoff_base = 1;

    /** Rollback pushes re-enter the S-second warmup (threshold 0,
     *  zswap off) rather than hot-swapping the old tunables. */
    bool conservative_rollback = true;

    /** The rollout's own fault plane (push loss, push stall, split
     *  brain); per-machine injectors never draw these kinds. */
    FaultConfig fault;
};

/** Rollout lifetime counters. */
struct RolloutStats
{
    std::uint64_t proposals = 0;
    std::uint64_t pushes_delivered = 0;  ///< configs actually applied
    std::uint64_t pushes_lost = 0;       ///< deliveries lost in flight
    std::uint64_t pushes_aborted = 0;    ///< retries exhausted
    std::uint64_t stall_periods = 0;     ///< frozen stage windows
    std::uint64_t split_brains = 0;      ///< epoch audits failed
    std::uint64_t guardrail_breaches = 0;
    std::uint64_t stages_advanced = 0;
    std::uint64_t deployments = 0;  ///< campaigns reaching kDeployed
    std::uint64_t rollbacks = 0;    ///< campaigns reaching kRolledBack
};

/**
 * The fleet's config-rollout supervisor. Owned by FarMemorySystem
 * (only when RolloutParams.enabled) and stepped once per control
 * period *after* the clusters, on the fleet thread, so pushes applied
 * in step N take effect in step N+1's agent control rounds.
 */
class ConfigRollout
{
  public:
    /** Per-cluster machine lists, index-aligned with the fleet's
     *  clusters; the rollout's only view of the fleet. */
    using MachineView = std::vector<std::vector<std::unique_ptr<Machine>> *>;

    /**
     * @param params Rollout configuration.
     * @param initial The SLO the fleet was built with (the config a
     *        first rollback restores).
     * @param seed_mix Fleet entropy, mixed with params.seed.
     * @param machines_per_cluster Fleet topology, for validation.
     */
    ConfigRollout(const RolloutParams &params, const SloConfig &initial,
                  std::uint64_t seed_mix,
                  std::vector<std::uint32_t> machines_per_cluster);

    /**
     * Begin a campaign for @p candidate: snapshot the baseline
     * counters, draw the per-cluster stage cohorts from the rollout
     * RNG, and enter kProposed. Returns false (and changes nothing)
     * if a campaign is already in flight.
     */
    bool propose(SimTime now, const SloConfig &candidate,
                 const MachineView &clusters);

    /**
     * One control period of the rollout, in fixed phase order: draw
     * faults, honour stall windows (frozen stage), run the
     * config-epoch audit (split-brain detection + reconcile
     * redelivery), deliver due pushes (bounded retry with backoff),
     * then advance the baseline/observation windows and the state
     * machine.
     */
    void step(SimTime now, SimTime period, const MachineView &clusters);

    RolloutState state() const { return state_; }

    /** Current stage index (0 = canary); valid while staging. */
    std::size_t stage() const { return stage_; }

    /** The config the fleet is committed to: the candidate after
     *  kDeployed, the previous config otherwise. */
    const SloConfig &current_config() const { return current_; }

    /** The candidate under evaluation (last proposed). */
    const SloConfig &candidate_config() const { return candidate_; }

    const RolloutStats &stats() const { return stats_; }
    const FaultInjector &fault_injector() const { return fault_; }

    /** The rollout.* metrics: the counters, plus the state and stage
     *  as of now. FarMemorySystem merges them into the fleet rollup. */
    MetricsSnapshot telemetry_snapshot() const;

    /**
     * Rollout consistency check (SDFM_INVARIANT tier): cohorts
     * partition each cluster, ledger/pending entries address real
     * machines with epochs the campaign issued, and window state
     * matches the state machine. A no-op unless the build defines
     * SDFM_CHECK_INVARIANTS.
     */
    void check_invariants(const MachineView &clusters) const;

    /** Order-sensitive digest over the full rollout state plus every
     *  machine's live config epoch. */
    std::uint64_t state_digest(const MachineView &clusters) const;

    /**
     * Checkpointable-shaped snapshot: the state machine, epochs,
     * configs, baseline snapshot and rates, cohorts, push ledger,
     * in-flight pushes, observation window, both RNG-bearing streams
     * (shuffle RNG and fault injector), and the counters.
     * ckpt_load() parses and validates;
     * ckpt_resolve() then cross-checks the restored ledger and
     * cohorts against the restored machines (topology bounds, epoch
     * plausibility) and fails on any disagreement.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);
    bool ckpt_resolve(const MachineView &clusters);

  private:
    /** Flat machine address: cluster in the high word, index low. */
    static std::uint64_t key_of(std::uint32_t cluster,
                                std::uint32_t machine)
    {
        return (static_cast<std::uint64_t>(cluster) << 32) | machine;
    }

    /** Per-machine guardrail counters (a telemetry snapshot slice). */
    struct GuardrailCounters
    {
        std::uint64_t breaker_trips = 0;
        std::uint64_t poisoned_entries = 0;
        std::uint64_t evictions = 0;
        /** agent.promo_rate bucket counts (overflow bucket last). */
        std::vector<std::uint64_t> promo_counts;
    };

    /** What the rollout believes a touched machine runs. */
    struct LedgerEntry
    {
        std::uint64_t expected_epoch = 0;
        bool to_new = false;  ///< candidate (true) or old config
    };

    /** One in-flight config push. */
    struct PendingPush
    {
        std::uint64_t key = 0;
        std::uint64_t epoch = 0;
        bool to_new = false;
        std::uint32_t attempts = 0;
        SimTime next_attempt = 0;
    };

    Machine &machine_at(const MachineView &clusters,
                        std::uint64_t key) const;
    bool key_in_range(std::uint64_t key) const;
    GuardrailCounters read_counters(const Machine &machine) const;
    static double p98_of(const std::vector<double> &bounds,
                         const std::vector<std::uint64_t> &counts);

    void enqueue_stage(std::size_t stage, SimTime now);
    void finish_baseline(const MachineView &clusters);
    std::uint32_t audit(SimTime now, const MachineView &clusters);
    bool deliver(SimTime now, SimTime period,
                 const MachineView &clusters, std::uint32_t losses,
                 std::uint32_t splits);
    bool guardrails_breached(const MachineView &clusters) const;
    void begin_rollback(SimTime now);

    // sdfm-state: config(fixed at construction; ckpt_load validates
    // wire compatibility against it, the fingerprint covers the rest)
    RolloutParams params_;
    // sdfm-state: config(fleet topology input, fixed at construction;
    // ckpt_load cross-checks the wire against it)
    std::vector<std::uint32_t> machines_per_cluster_;

    RolloutState state_ = RolloutState::kIdle;
    std::size_t stage_ = 0;
    SloConfig current_;    ///< fleet-committed config
    SloConfig old_;        ///< config a rollback restores
    SloConfig candidate_;  ///< config under evaluation
    std::uint64_t epoch_counter_ = 0;  ///< last epoch issued
    std::uint64_t target_epoch_ = 0;   ///< epoch of the active pushes
    SimTime stalled_until_ = 0;

    /** Baseline measurement (kProposed). */
    std::uint64_t baseline_elapsed_ = 0;
    /** Real periods the baseline counters span -- baseline_elapsed_
     *  plus push-plane stall periods, during which the machines keep
     *  accumulating events; the base-rate denominator. */
    std::uint64_t baseline_span_ = 0;
    std::map<std::uint64_t, GuardrailCounters> baseline_base_;
    double base_trips_rate_ = 0.0;   ///< events per machine-period
    double base_poison_rate_ = 0.0;
    double base_evict_rate_ = 0.0;
    double base_p98_ = 0.0;

    /** Stage observation window (kCanary / kExpanding). */
    bool window_active_ = false;
    std::uint64_t observed_ = 0;
    std::map<std::uint64_t, GuardrailCounters> window_base_;

    /** Per-cluster, per-stage machine cohorts (sorted indices). */
    std::vector<std::vector<std::vector<std::uint32_t>>> cohorts_;
    std::map<std::uint64_t, LedgerEntry> ledger_;
    std::vector<PendingPush> pending_;

    Rng rng_;  ///< cohort shuffles
    FaultInjector fault_;
    RolloutStats stats_;
};

}  // namespace sdfm

#endif  // SDFM_AUTOTUNE_ROLLOUT_H

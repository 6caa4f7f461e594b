/**
 * @file
 * The node agent (the paper's Borglet role, Section 5.2): reads each
 * job's kernel histograms every control period, runs the threshold
 * controller, programs the per-memcg zswap state (threshold,
 * enablement, soft limit), and exports 5-minute telemetry windows to
 * the external trace database.
 */

#ifndef SDFM_NODE_NODE_AGENT_H
#define SDFM_NODE_NODE_AGENT_H

#include <cstdint>
#include <map>
#include <vector>

#include "fault/circuit_breaker.h"
#include "mem/memcg.h"
#include "node/policy.h"
#include "node/slo.h"
#include "node/threshold_controller.h"
#include "telemetry/metric.h"
#include "workload/trace.h"

namespace sdfm {

/** Node-agent configuration. */
struct NodeAgentConfig
{
    SloConfig slo;
    FarMemoryPolicy policy = FarMemoryPolicy::kProactive;

    /** Threshold bucket used by the kStatic policy. */
    AgeBucket static_threshold = 4;

    /**
     * Per-job SLO circuit breaker: after slo_breaker.failure_threshold
     * consecutive control periods above the promotion-rate SLO, zswap
     * is disabled for the job (threshold forced to 0) and re-enabled
     * via the breaker's half-open probe with exponential hold-offs.
     * Off by default (the controller alone matches the paper).
     */
    bool slo_breaker_enabled = false;
    CircuitBreakerParams slo_breaker;
};

/**
 * Node-agent counters: the agent.* and controller.* metrics. Only the
 * agent writes them, from its own control rounds; they survive
 * crash_restart() (the process restarted, the machine's telemetry
 * did not). Checkpointed, not digested.
 */
struct NodeAgentStats
{
    std::uint64_t restarts = 0;           ///< crash_restart() calls
    std::uint64_t slo_breaker_trips = 0;  ///< per-job breakers opened
    std::uint64_t control_rounds = 0;
    std::uint64_t slo_violations = 0;  ///< job-periods over the SLO

    /** Jobs controlled, and the sum of the thresholds chosen, in the
     *  last control round (gauges sampled there). */
    std::uint64_t jobs = 0;
    double threshold_sum = 0.0;

    /** Realized promotion rate per job-period, as a fraction of WSS
     *  per minute; the SLO target (0.002) sits inside the grid so
     *  violations are visible as the tail beyond it. */
    HistogramData promo_rate{
        {0.0, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.02, 0.1, 1.0}};

    /** Threshold-controller updates, and those whose period no
     *  threshold could have kept within the SLO budget. */
    std::uint64_t controller_updates = 0;
    std::uint64_t controller_slo_unsatisfiable = 0;

    /** Thresholds the controllers chose (0 while warming up);
     *  8-bit age buckets on a power-of-two grid. */
    HistogramData controller_threshold{
        {0, 1, 2, 4, 8, 16, 32, 64, 128, 255}};

    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);
};

/** One machine's node agent. */
class NodeAgent
{
  public:
    explicit NodeAgent(const NodeAgentConfig &config);

    /** Start managing a job (called when the job is scheduled). */
    void register_job(const Memcg &cg);

    /** Stop managing a job (exit or eviction). */
    void unregister_job(JobId id);

    /**
     * Run one control period over the machine's jobs: diff promotion
     * histograms, update each job's controller, and program the
     * memcg's threshold / enablement / soft limit.
     *
     * @param now Current time (end of the period).
     * @param period_minutes Period length in minutes.
     */
    void control(SimTime now, std::vector<Memcg *> &jobs,
                 double period_minutes);

    /**
     * Export one telemetry window per job into @p sink (no-op when
     * null). Call every kTraceWindow.
     */
    void export_telemetry(SimTime now, std::vector<Memcg *> &jobs,
                          TraceLog *sink);

    const NodeAgentConfig &config() const { return config_; }
    const NodeAgentStats &stats() const { return stats_; }

    /**
     * Fault plane: the agent process crashed and restarted. All
     * per-job controller state (threshold-observation pools, breaker
     * state, histogram snapshots) is lost; every job is re-registered
     * as if it had just started at @p now, so it re-enters the
     * S-second zswap-off warmup (SloConfig.enable_delay) before
     * reclaim resumes -- the conservative restart the paper's agent
     * performs. Kernel-side state (histograms, memcg counters, pages
     * already in far memory) survives, so snapshots are re-seeded
     * from the current kernel values rather than zero.
     */
    void crash_restart(SimTime now, std::vector<Memcg *> &jobs);

    /** Mutate tunables (autotuner deployment path). Per-job SLO
     *  breaker streaks reset: breaches observed under the old config
     *  must not count toward tripping under the new one. */
    void set_slo(const SloConfig &slo);

    /**
     * Supervised deployment (staged rollout path): set_slo() plus the
     * config-epoch bump the rollout's per-machine audit checks.
     * @p conservative additionally re-enters the S-second warmup for
     * every job -- threshold 0, zswap off, controller warmup anchor
     * moved to @p now -- the posture a rollback restores so a config
     * that breached guardrails cannot keep reclaiming while the old
     * tunables take back over.
     */
    void deploy_slo(SimTime now, const SloConfig &slo,
                    std::uint64_t epoch, bool conservative,
                    std::vector<Memcg *> &jobs);

    /** Monotone deployment version the rollout audits per machine. */
    std::uint64_t config_epoch() const { return config_epoch_; }

    /**
     * The per-job SLO circuit breaker for @p id; nullptr when the job
     * is not registered. Exposed so tests can verify breaker
     * lifecycle guarantees -- in particular that crash_restart()
     * discards accumulated consecutive-breach state along with the
     * rest of the per-job controller state.
     */
    const CircuitBreaker *slo_breaker_of(JobId id) const;

    /** Number of jobs currently under agent management. */
    std::size_t managed_jobs() const { return jobs_.size(); }

    /**
     * Checkpointable-shaped snapshot: the live SLO tunables (which
     * may have diverged from the construction config via set_slo),
     * the restart counters, and every per-job control state --
     * controller, histogram snapshots, SLI snapshot, and SLO breaker
     * -- in ascending job-id order.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);

  private:
    struct JobState
    {
        ThresholdController controller;
        AgeHistogram control_snapshot;    ///< promo hist at last control
        AgeHistogram telemetry_snapshot;  ///< promo hist at last export
        MemcgStats sli_snapshot;          ///< counters at last export
        std::uint64_t control_promotions = 0;  ///< realized promos at
                                               ///< last control
        CircuitBreaker slo_breaker;  ///< per-job SLO breaker
    };

    JobState &state_of(const Memcg &cg);

    /** Build a fresh JobState with snapshots seeded from @p cg. */
    JobState make_state(const Memcg &cg, SimTime job_start) const;

    NodeAgentConfig config_;
    NodeAgentStats stats_;
    /** Bumped by every deploy_slo(); 0 until the first supervised
     *  deployment. Survives crash_restart(): the agent process lost
     *  its controller state, not the config version it runs. */
    std::uint64_t config_epoch_ = 0;
    std::map<JobId, JobState> jobs_;
};

}  // namespace sdfm

#endif  // SDFM_NODE_NODE_AGENT_H

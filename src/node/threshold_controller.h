/**
 * @file
 * The per-job cold-age threshold control algorithm (Section 4.3).
 *
 * Each control period the controller computes the smallest threshold
 * that would have met the promotion-rate SLO over the period just
 * ended (from the promotion-histogram delta), pushes it into a pool,
 * and selects max(K-th percentile of the pool, this period's best) as
 * the threshold for the next period. zswap stays disabled for the
 * first S seconds of the job.
 *
 * This class is deliberately free of any kernel/machine state: the
 * node agent drives it online and the fast far-memory model drives
 * the *identical* code offline, which is what makes the autotuner's
 * what-if analysis faithful.
 */

#ifndef SDFM_NODE_THRESHOLD_CONTROLLER_H
#define SDFM_NODE_THRESHOLD_CONTROLLER_H

#include <array>
#include <cstdint>
#include <deque>

#include "node/slo.h"
#include "util/age_histogram.h"
#include "util/sim_time.h"

namespace sdfm {

/** Per-job threshold controller. */
class ThresholdController
{
  public:
    /**
     * @param slo SLO and tunables.
     * @param job_start Job start time (for the S-second delay).
     */
    ThresholdController(const SloConfig &slo, SimTime job_start);

    /**
     * Feed one control-period observation and compute the threshold
     * for the next period.
     *
     * @param now End of the period just observed.
     * @param promo_delta Promotion histogram delta for the period.
     * @param wss_pages Working set size (pages).
     * @param period_minutes Length of the observed period in minutes.
     * @return Threshold bucket for the next period; 0 means zswap
     *         disabled (still inside the S-second delay).
     */
    AgeBucket update(SimTime now, const AgeHistogram &promo_delta,
                     std::uint64_t wss_pages, double period_minutes = 1.0);

    /** The threshold chosen by the last update (0 = disabled). */
    AgeBucket current_threshold() const { return current_; }

    /**
     * The best threshold the last update() observed and pushed into
     * the pool; 255 means even the coldest bucket would have blown
     * the period's promotion budget. 0 before any update.
     */
    AgeBucket last_observation() const
    {
        return pool_.empty() ? 0 : pool_.back();
    }

    /** Start of the S-second delay window (job start, or the agent's
     *  restart time after a crash -- see NodeAgent::crash_restart). */
    SimTime job_start() const { return job_start_; }

    /**
     * Swap in new tunables (autotuner deployment). The pool of past
     * observations and the job start time are preserved.
     */
    void set_slo(const SloConfig &slo);

    /**
     * Conservative redeploy (rollout rollback): re-anchor the
     * S-second warmup at @p now and drop the threshold to 0, exactly
     * the posture of a freshly started job, while keeping the
     * observation pool so steady state resumes from history once the
     * delay elapses.
     */
    void reenter_warmup(SimTime now)
    {
        job_start_ = now;
        current_ = 0;
    }

    /**
     * The smallest threshold bucket (>= 1) whose would-be promotions
     * stay within the SLO budget for the period; 255 if none does.
     * Exposed for tests and the offline model.
     */
    static AgeBucket best_threshold(const AgeHistogram &promo_delta,
                                    std::uint64_t wss_pages,
                                    double target_rate,
                                    double period_minutes);

    /**
     * Checkpointable-shaped snapshot: the (possibly autotuner-
     * deployed) tunables, the delay-window anchor, the best-threshold
     * pool in order, and the current threshold.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);

    /**
     * Controller consistency check (SDFM_INVARIANT tier): the
     * observation pool respects the sliding window bound and the
     * percentile tunable is a valid percentile. A no-op unless the
     * build defines SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

#ifdef SDFM_CHECK_INVARIANTS
    /** Test-only: overfill the pool past the window bound so the
     *  invariant tests can prove check_invariants() trips. */
    void
    debug_overfill_pool(std::size_t extra)
    {
        for (std::size_t i = 0; i < extra; ++i)
            pool_push(0);
    }
#endif

  private:
    AgeBucket pool_percentile() const;

    /** Append one observation, keeping the bucket counts in sync. */
    void pool_push(AgeBucket b);

    /** Enforce the sliding-window bound after a push or a set_slo. */
    void pool_trim();

    SloConfig slo_;
    SimTime job_start_;
    std::deque<AgeBucket> pool_;
    /** Pool contents re-binned by bucket, so the percentile is a
     *  counting select instead of a copy-and-sort of the window on
     *  every control period.
     *  sdfm-state: derived(recomputed from pool_ on every mutation;
     *  ckpt_load rebuilds it from the serialized pool) */
    std::array<std::uint32_t, kAgeBuckets> pool_counts_{};
    AgeBucket current_ = 0;
};

}  // namespace sdfm

#endif  // SDFM_NODE_THRESHOLD_CONTROLLER_H

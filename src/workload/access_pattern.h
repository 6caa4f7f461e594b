/**
 * @file
 * Per-job page-access generation.
 *
 * Every page carries a next-access time in an EventQueue; accessing a
 * page draws the next inter-access gap from its reuse class's
 * distribution (exponential for hot pages, lognormal for warm,
 * Pareto for cold, mostly-never for frozen, windowed for diurnal).
 * Stepping the pattern pops all events inside the step window and
 * invokes a callback per access.
 *
 * This renewal-process construction is what makes minute-granularity
 * fleet simulation tractable: cost is proportional to accesses
 * performed, not pages owned, and the time-weighted age distribution
 * it induces is exactly the cold-memory structure the control plane
 * consumes.
 */

#ifndef SDFM_WORKLOAD_ACCESS_PATTERN_H
#define SDFM_WORKLOAD_ACCESS_PATTERN_H

#include <cmath>
#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "mem/page.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "workload/event_queue.h"
#include "workload/job_profile.h"

namespace sdfm {

/** Generates the access stream for one job. */
class AccessPattern
{
  public:
    /**
     * @param profile Archetype parameters (reuse fractions are
     *        jittered per instance for population diversity).
     * @param num_pages Job address-space size.
     * @param rng Private generator (seeded by the caller).
     * @param start Job start time; initial accesses are staggered
     *        from here.
     */
    AccessPattern(const JobProfile &profile, std::uint32_t num_pages,
                  Rng rng, SimTime start);

    /**
     * Restore construction: skips the (RNG-consuming) class
     * assignment and initial scheduling; ckpt_load() must follow and
     * overwrite every member.
     */
    AccessPattern(const JobProfile &profile, CkptRestoreTag);

    /**
     * Checkpointable-shaped snapshot of the renewal-process state:
     * per-page reuse classes, the generator, the queued events as an
     * ascending key array, and the next scan time. The profile is
     * restored by the owning Job, not here.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);

    /**
     * Generate all accesses with timestamps in [now, now + dt) and
     * call fn(page, is_write) for each, in time order. Scan events
     * (whole-job sweeps) fire here too; scan touches do not reset a
     * page's renewal clock.
     */
    template <typename Fn>
    std::uint64_t
    step(SimTime now, SimTime dt, Fn &&fn)
    {
        SimTime end = now + dt;
        GapMath math{1.0 / profile_.hot_gap_mean,
                     std::log(profile_.warm_median_gap)};
        // Batch drain: the queue hands over each due event in (time,
        // page) order and takes the replacement key back. The RNG
        // draw order (is_write, then the gap draws inside
        // next_event_key) follows that order exactly.
        std::uint64_t accesses = queue_.drain_until(
            end, [&](SimTime t, PageId page) -> std::uint64_t {
                bool is_write = rng_.next_bool(profile_.write_frac);
                fn(page, is_write);
                return next_event_key(page, t, math);
            });
        while (next_scan_ != 0 && next_scan_ < end) {
            for (PageId p = 0; p < num_pages(); ++p) {
                if (rng_.next_bool(profile_.scan_fraction)) {
                    fn(p, false);
                    ++accesses;
                }
            }
            next_scan_ += to_gap_public(rng_.next_exponential(
                1.0 / static_cast<double>(profile_.scan_interval_mean)));
        }
        return accesses;
    }

    /** Time of the next scan event (0 when scans are disabled). */
    SimTime next_scan() const { return next_scan_; }

    /** Reuse class assigned to a page. */
    ReuseClass reuse_class(PageId p) const { return classes_[p]; }

    /** Fraction of pages in a reuse class (post-jitter). */
    double class_fraction(ReuseClass cls) const;

    /** Load multiplier at time @p t (diurnal curve), in [1-A, 1+A]. */
    double diurnal_multiplier(SimTime t) const;

    std::uint32_t num_pages() const
    {
        return static_cast<std::uint32_t>(classes_.size());
    }

  private:
    /**
     * Gap-draw inputs that do not change from one access to the next:
     * the profile's hot rate and warm log-median, evaluated once per
     * step(), and the diurnal multiplier, evaluated once per
     * simulated second. It lives on step()'s stack; nothing in it is
     * pattern state.
     */
    struct GapMath
    {
        double hot_rate;         ///< 1.0 / profile_.hot_gap_mean
        double warm_log_median;  ///< std::log(profile_.warm_median_gap)
        SimTime load_time = -1;  ///< second `load` was evaluated at
        double load = 0.0;       ///< diurnal_multiplier(load_time)
    };

    /** Clamp a floating-point gap to a safe SimTime (>= 1 s). */
    static SimTime to_gap_public(double seconds);

    /**
     * Draw the next gap for a page and return its packed event key,
     * or 0 to retire the page (frozen pages that are never touched
     * again). Rescheduled times are always >= accessed_at + 1 s, so 0
     * cannot collide with a real key.
     */
    std::uint64_t next_event_key(PageId page, SimTime accessed_at,
                                 GapMath &math);

    /** Start of the next diurnal active window at or after @p t. */
    SimTime next_active_start(SimTime t) const;

    // sdfm-state: derived(re-supplied by the owning Job, which
    // serializes the profile itself, before ckpt_load replays the
    // dynamic state)
    JobProfile profile_;
    Rng rng_;
    std::vector<ReuseClass> classes_;
    EventQueue queue_;
    SimTime next_scan_ = 0;
};

}  // namespace sdfm

#endif  // SDFM_WORKLOAD_ACCESS_PATTERN_H

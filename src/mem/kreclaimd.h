/**
 * @file
 * kreclaimd: the proactive reclaim daemon (Section 5.1), plus the
 * direct-reclaim path used when a machine runs out of memory and by
 * the reactive-zswap baseline (Section 3.2).
 *
 * Proactive mode compares each page's age against the job's
 * agent-chosen cold-age threshold and demotes everything older into
 * the far-memory stack, following a DemotionPlan computed once per
 * control period by the machine's routing policy (see tier_stack.h).
 * Only LRU-eligible pages are considered: unevictable (mlocked) pages
 * are skipped, as are pages touched since the last scan;
 * incompressible-marked pages are skipped by compressing tiers only.
 */

#ifndef SDFM_MEM_KRECLAIMD_H
#define SDFM_MEM_KRECLAIMD_H

#include <cstdint>

#include "mem/memcg.h"
#include "mem/tier_stack.h"
#include "mem/zswap.h"
#include "telemetry/metric.h"

namespace sdfm {

/** Result of one reclaim pass over a job. */
struct ReclaimResult
{
    std::uint64_t pages_stored = 0;    ///< total demoted (all tiers)
    std::uint64_t pages_to_tier = 0;   ///< demoted to deep tiers (>= 1)
    std::uint64_t pages_rejected = 0;  ///< incompressible rejections
    std::uint64_t pages_walked = 0;
    std::uint64_t huge_splits = 0;     ///< cold huge regions split
    double walk_cycles = 0.0;  ///< page-walk + split cost
    /** False when the pass returned before walking: reclaim off for
     *  the job, an empty plan, or a zero direct-reclaim target. */
    bool walked = false;
};

/**
 * Cumulative kreclaimd work on one machine (the kreclaimd.* metrics).
 * The daemon is stateless; its owner folds in every ReclaimResult it
 * gets. Passes that did not walk are not counted.
 */
struct KreclaimdStats
{
    std::uint64_t passes = 0;         ///< proactive passes
    std::uint64_t direct_passes = 0;  ///< direct-reclaim passes
    std::uint64_t pages_walked = 0;
    std::uint64_t pages_stored = 0;
    std::uint64_t pages_to_tier = 0;
    std::uint64_t pages_rejected = 0;
    std::uint64_t huge_splits = 0;

    /** Per-pass walk cost in modelled CPU cycles. */
    HistogramData pass_cycles{exponential_bounds(1e3, 10.0, 7)};

    /** Fold in one pass; @p direct selects the pass counter. */
    void record(const ReclaimResult &pass, bool direct)
    {
        if (!pass.walked)
            return;
        ++(direct ? direct_passes : passes);
        pages_walked += pass.pages_walked;
        pages_stored += pass.pages_stored;
        pages_to_tier += pass.pages_to_tier;
        pages_rejected += pass.pages_rejected;
        huge_splits += pass.huge_splits;
        pass_cycles.observe(pass.walk_cycles);
    }

    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);
};

/** Reclaim daemon parameters. */
struct KreclaimdParams
{
    /** Modelled CPU cycles per page considered. */
    double cycles_per_page = 80.0;

    /** One-time CPU cycles to split a 2 MiB huge mapping. */
    double split_cycles = 40000.0;
};

/** The kreclaimd daemon. */
class Kreclaimd
{
  public:
    explicit Kreclaimd(const KreclaimdParams &params = KreclaimdParams{});

    /**
     * Proactive pass: demote every eligible page with
     * age >= cg.reclaim_threshold() into far memory, routed by
     * @p plan. A threshold of 0 means reclaim is disabled for the
     * job; a no-op when the job's zswap is disabled or the plan is
     * empty.
     *
     * Per page, the plan's routes are consulted in order (deepest
     * tier first): the first route whose resolved age band contains
     * the page and whose tier has budget left gets a store attempt.
     * A capacity rejection (tier full) falls through to the next
     * route; a content rejection (zswap marking the page
     * incompressible) ends the page's pass. The plan's budgets and
     * per-tier store counts are mutated in place, so one plan shared
     * across jobs enforces machine-wide breaker budgets -- exactly
     * the half-open trial-trickle semantics.
     */
    ReclaimResult reclaim_cold(Memcg &cg, DemotionPlan &plan) const;

    /**
     * Single-tier convenience: demote straight to @p zswap with no
     * deep tiers (unit tests and zswap-only rigs). Builds a
     * throwaway one-entry plan around the store.
     */
    ReclaimResult reclaim_cold(Memcg &cg, Zswap &zswap) const;

    /**
     * Direct reclaim (the reactive path): compress the job's oldest
     * pages -- regardless of any threshold -- until @p target_pages
     * have been freed or the job's resident set reaches its soft
     * limit. Used on machine memory pressure; the caller charges the
     * faulting job for the stall. Always targets zswap: the reactive
     * path predates the stack and wants the elastic tier.
     *
     * @return Result; pages_stored may be less than target_pages.
     */
    ReclaimResult direct_reclaim(Memcg &cg, Zswap &zswap,
                                 std::uint64_t target_pages) const;

  private:
    KreclaimdParams params_;
};

}  // namespace sdfm

#endif  // SDFM_MEM_KRECLAIMD_H

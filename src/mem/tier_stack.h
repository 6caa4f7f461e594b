/**
 * @file
 * The N-tier far-memory stack and its demotion-routing policy.
 *
 * The paper's deployed system has exactly two tiers: DRAM and zswap.
 * Its concluding future work asks for "multiple tiers of far memory
 * (sub-us tier-1 and single-us tier-2), all managed intelligently".
 * TierStack generalizes the machine's memory hierarchy to any number
 * of FarTier instances below DRAM:
 *
 *   index 0            -- always zswap: elastic capacity, the demotion
 *                         path of last resort (it can only reject a
 *                         page for content reasons, never for space);
 *   indices 1..N-1     -- deep tiers (NVM, remote memory), ordered
 *                         shallow to deep, each with a bounded
 *                         capacity (fixed for NVM, granted leases for
 *                         remote memory), an age band, and an
 *                         optional circuit breaker.
 *
 * Once per control period, BandRoutingPolicy turns the stack's
 * current health into a DemotionPlan -- an ordered route table
 * kreclaimd consults per page. It implements the paper-derived
 * age-band scheme (moderately-cold pages to the fast shallow tiers,
 * deep-cold pages to zswap) with breaker-aware fallback: a tier whose
 * breaker is open routes its band to the next-shallower allowed tier
 * instead.
 */

#ifndef SDFM_MEM_TIER_STACK_H
#define SDFM_MEM_TIER_STACK_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/circuit_breaker.h"
#include "mem/far_tier.h"
#include "util/age_histogram.h"
#include "mem/nvm_tier.h"
#include "mem/remote_tier.h"
#include "mem/zswap.h"
#include "util/sim_time.h"

namespace sdfm {

/**
 * Per-tier routing and health parameters (everything about a tier's
 * position in the stack that is not the device itself).
 */
struct TierSpec
{
    /**
     * Telemetry label; lowercase snake_case ([a-z0-9_]). Used as the
     * tier.<label>.* metric prefix, so it must be unique per stack.
     */
    std::string label;

    /**
     * Age band, as multiples of the job's live cold-age threshold T:
     * pages with age in [band_lo * T, band_hi * T) are routed here.
     * band_hi == 0 means unbounded above. The base tier (zswap) is
     * always [1, inf) -- the catch-all.
     */
    double band_lo = 1.0;
    double band_hi = 0.0;

    /** Circuit breaker over this tier's health signal. */
    bool breaker_enabled = false;
    CircuitBreakerParams breaker;
};

/**
 * Config-file description of one deep tier (MachineConfig::tiers).
 * Exactly one of the params structs is read, selected by kind. A
 * remote tier has no capacity of its own: it holds the lease slots
 * granted to it (see RemoteTier).
 */
struct TierConfig
{
    TierKind kind = TierKind::kNvm;

    /** Telemetry label; empty picks the kind's default name. */
    std::string label;

    NvmTierParams nvm;
    RemoteTierParams remote;

    double band_lo = 1.0;
    double band_hi = 0.0;

    bool breaker_enabled = false;
    CircuitBreakerParams breaker;
};

/**
 * The ordered far-memory stack of one machine. Owns (or references)
 * every tier plus the per-tier control state the node layer needs:
 * circuit breaker, fault-degradation window, and the last-seen fault
 * counters feeding the breaker.
 */
class TierStack
{
  public:
    /** One tier plus its stack-level control state. */
    struct Entry
    {
        Entry(const TierSpec &spec_in, FarTier *tier_in,
              std::unique_ptr<FarTier> owned_in)
            : spec(spec_in), tier(tier_in), owned(std::move(owned_in)),
              breaker(spec_in.breaker)
        {
        }

        TierSpec spec;
        FarTier *tier;
        std::unique_ptr<FarTier> owned;  ///< null for borrowed tiers
        CircuitBreaker breaker;

        /** Fault plane: end of the active degradation window (0 =
         *  healthy). */
        SimTime degraded_until = 0;

        /** Tier fault counters as of the owning machine's last
         *  fault-plane update: the per-step delta feeds this entry's
         *  breaker, and the fault.* metrics read them. */
        std::uint64_t seen_read_failures = 0;
        std::uint64_t seen_read_retries = 0;
        std::uint64_t seen_reads_exhausted = 0;
        std::uint64_t seen_media_errors = 0;

        /** Occupancy and utilization sampled at the end of the owning
         *  machine's last step (the tier.<label>.* gauges). */
        std::uint64_t step_end_used_pages = 0;
        double step_end_utilization = 0.0;

        /**
         * Memory pooling: the cluster broker's per-machine breaker is
         * open, so this (remote) tier takes no new
         * stores; demotions fall through the route table to shallower
         * tiers. Orthogonal to the tier's own breaker.
         */
        bool pool_gated = false;

        /** Demotion routing allowed into this tier right now. */
        bool
        allowed() const
        {
            if (pool_gated)
                return false;
            return !spec.breaker_enabled || breaker.allow();
        }

        /** This period's store allowance (breaker trial budget). */
        std::uint64_t
        store_budget() const
        {
            if (pool_gated)
                return 0;
            return spec.breaker_enabled ? breaker.trial_budget()
                                        : kUnlimitedBudget;
        }
    };

    TierStack() = default;
    TierStack(const TierStack &) = delete;
    TierStack &operator=(const TierStack &) = delete;

    /** Install the base (index 0) zswap tier, owning it. */
    void set_base(const TierSpec &spec, std::unique_ptr<Zswap> zswap);

    /** Install a borrowed base tier (test rigs). */
    void set_base(const TierSpec &spec, Zswap *zswap);

    /** Append a deep tier, owning it. @return its stack index. */
    std::size_t add_tier(const TierSpec &spec,
                         std::unique_ptr<FarTier> tier);

    /** Append a borrowed deep tier (test rigs). */
    std::size_t add_tier(const TierSpec &spec, FarTier *tier);

    /** Tiers in the stack, including the base. 0 before set_base(). */
    std::size_t size() const { return entries_.size(); }

    /** Deep tiers only (indices >= 1). */
    std::size_t
    deep_size() const
    {
        return entries_.empty() ? 0 : entries_.size() - 1;
    }

    FarTier &
    tier(std::size_t index)
    {
        return *entry(index).tier;
    }
    const FarTier &
    tier(std::size_t index) const
    {
        return *entry(index).tier;
    }

    Entry &entry(std::size_t index);
    const Entry &entry(std::size_t index) const;

    /** The base tier, with its concrete type. */
    Zswap &zswap();
    const Zswap &zswap() const;

    /**
     * Index of the shallowest tier of @p kind, or size() when no tier
     * of that kind exists. Fault events target this tier.
     */
    std::size_t find(TierKind kind) const;

    /** Pages stored across every deep tier (indices >= 1). */
    std::uint64_t deep_used_pages() const;

    /** Forward check_invariants to tiers that define one is left to
     *  the owner; the stack itself checks its wiring. */
    void check_invariants() const;

  private:
    std::vector<Entry> entries_;
    Zswap *zswap_ = nullptr;
};

/**
 * One row of a DemotionPlan: pages whose age (in multiples of the
 * job's threshold) falls inside [band_lo, band_hi) are offered to
 * tier_index. Rows are consulted in order; the last row is always the
 * zswap catch-all.
 */
struct DemotionRoute
{
    std::size_t tier_index;
    double band_lo;
    double band_hi;  ///< 0 = unbounded above
};

/**
 * The routing decision for one control period, shared by every job's
 * reclaim pass within the period (budgets are machine-wide, exactly
 * like the single breaker budget was before the stack existed).
 */
struct DemotionPlan
{
    /** A per-job route with its bands resolved to age buckets. */
    struct ResolvedRoute
    {
        std::size_t tier_index;
        AgeBucket lo;
        AgeBucket hi;      ///< exclusive; only valid when bounded
        bool bounded;
    };

    TierStack *stack = nullptr;

    /** Deepest-first routes, ending with the zswap catch-all. */
    std::vector<DemotionRoute> routes;

    /** Remaining store allowance per tier index (kUnlimitedBudget =
     *  no cap; never decremented). */
    std::vector<std::uint64_t> budgets;

    /** Pages stored per tier index this period (for tier metrics). */
    std::vector<std::uint64_t> stored;

    /** Scratch reused across jobs by Kreclaimd::reclaim_cold. */
    std::vector<ResolvedRoute> resolved;

    bool empty() const { return stack == nullptr || routes.empty(); }

    void clear()
    {
        stack = nullptr;
        routes.clear();
        budgets.clear();
        stored.clear();
        resolved.clear();
    }
};

/**
 * The routing policy: each deep tier claims its configured age band,
 * deepest tier first; a tier whose breaker is open hands its band to
 * the next-shallower allowed tier (ultimately zswap, which is always
 * allowed). Budgets come from each tier's breaker (trial trickle when
 * half-open, unlimited when closed or breaker-less).
 */
class BandRoutingPolicy
{
  public:
    /**
     * Fill @p out (clearing any previous content) for one control
     * period: routes deepest-first, ending with a route to tier 0
     * covering [1, inf) so every cold page has a destination.
     */
    void plan(TierStack &stack, DemotionPlan &out) const;
};

}  // namespace sdfm

#endif  // SDFM_MEM_TIER_STACK_H

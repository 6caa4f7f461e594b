/**
 * @file
 * Remote-memory far tier: swapping cold pages to other machines'
 * unused memory over the network (memory disaggregation,
 * Section 2.1).
 *
 * The paper lists three reasons this stayed out of their production
 * deployment, all modelled here:
 *   - failure-domain expansion: a donor machine's failure loses every
 *     page stored under its lease, killing the owning jobs
 *     (fail_donor());
 *   - encryption: pages must be encrypted before leaving the machine,
 *     adding CPU cycles to every demotion and promotion;
 *   - tail latency: network round-trips are both slower and
 *     heavier-tailed than local decompression.
 */

#ifndef SDFM_MEM_REMOTE_TIER_H
#define SDFM_MEM_REMOTE_TIER_H

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "mem/far_tier.h"
#include "util/rng.h"

namespace sdfm {

/** Remote-memory parameters. */
struct RemoteTierParams
{
    /** Mean network read (promotion) latency in microseconds. */
    double read_latency_us = 12.0;

    /** Lognormal latency jitter sigma (network tails are heavy). */
    double jitter_sigma = 0.6;

    /** CPU cycles to encrypt or decrypt one page (AES-ish). */
    double crypto_cycles_per_page = 6000.0;

    /**
     * Bounded retries for a promotion read when the network path is
     * degraded (set_transient_read_failure > 0). Each attempt past
     * the first pays retry_backoff_base_us * 2^min(attempt-1, 6) on
     * top of the usual network latency -- capped exponential
     * backoff.
     */
    std::uint32_t max_read_retries = 3;
    double retry_backoff_base_us = 50.0;
};

/** Remote-tier counters. */
struct RemoteTierStats
{
    std::uint64_t stores = 0;
    std::uint64_t promotions = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t donor_failures = 0;
    std::uint64_t pages_lost = 0;  ///< pages under failed leases
    double read_latency_us_sum = 0.0;
    double crypto_cycles = 0.0;

    // Degraded-path counters (all zero while the tier is healthy).
    std::uint64_t read_failures = 0;   ///< individual failed attempts
    std::uint64_t read_retries = 0;    ///< attempts past the first
    std::uint64_t reads_exhausted = 0; ///< all retries failed
};

/**
 * The remote-memory tier for one machine. Its capacity is a set of
 * lease slots, each a share of one donor machine's DRAM: inside a
 * cluster the MemoryBroker grants and revokes them, and a standalone
 * machine's owner grants them directly (grant_lease). A page lives
 * under exactly one lease, so a donor crash loses that lease's pages.
 */
class RemoteTier : public FarTier
{
  public:
    RemoteTier(const RemoteTierParams &params, std::uint64_t rng_seed);

    TierKind kind() const override { return TierKind::kRemote; }

    /** Donor failures lose hosted pages wholesale (Section 2.1). */
    bool can_lose_pages() const override { return true; }

    bool has_space() const override;
    bool store(Memcg &cg, PageId p) override;
    void load(Memcg &cg, PageId p) override;
    void drop(Memcg &cg, PageId p) override;
    void drop_all(Memcg &cg) override;
    std::uint64_t used_pages() const override { return used_pages_; }
    std::uint64_t
    capacity_pages() const override
    {
        return slot_capacity_total_;
    }

    /**
     * The donor behind @p lease_id crashes: every page stored under
     * the lease is lost and the slot is gone. The owning jobs cannot
     * recover those pages and must be killed -- the failure-domain
     * expansion of Section 2.1. The lease id is recorded for broker
     * reconciliation (take_dead_leases). No-op for an unknown id.
     *
     * @return The distinct jobs that lost pages (the caller evicts
     *         them and reschedules).
     */
    std::vector<JobId> fail_donor(std::uint32_t lease_id);

    /**
     * Fail a random live lease as if its donor crashed, drawing the
     * victim from @p rng over the sorted lease ids. Empty (and no RNG
     * draw) when no leases are held.
     */
    std::vector<JobId> fail_random_lease(Rng &rng);

    /** Install a granted lease as an empty capacity slot. */
    void grant_lease(std::uint32_t lease_id, std::uint64_t pages);

    /** Stop placing new pages into a lease (revocation received). */
    void begin_drain(std::uint32_t lease_id);

    /** Pages currently stored under a lease. */
    std::uint64_t lease_used(std::uint32_t lease_id) const;

    /** Remove a fully drained lease slot (lease_used() must be 0). */
    void finish_lease(std::uint32_t lease_id);

    /**
     * The lease's pages are gone (grace expiry): drop every placement
     * it holds and remove the slot. Like fail_donor, the data is
     * unrecoverable and the owning jobs must be killed, but the
     * broker initiated it, so nothing is recorded for reconciliation.
     *
     * @return The distinct jobs that lost pages.
     */
    std::vector<JobId> fail_lease(std::uint32_t lease_id);

    /**
     * Pages under @p lease_id in ascending placement-key order, at
     * most @p limit -- the grace-window drain scan.
     */
    std::vector<std::pair<Memcg *, PageId>>
    lease_page_refs(std::uint32_t lease_id, std::uint64_t limit) const;

    /**
     * Lease ids destroyed machine-side (donor crashes) since the last
     * call; the broker consumes these to mark the leases revoked and
     * return the donor pages.
     */
    std::vector<std::uint32_t> take_dead_leases();

    /** Peek the pending dead-lease list without consuming it (broker
     *  checkpoint cross-validation). */
    const std::vector<std::uint32_t> &dead_leases() const
    {
        return dead_leases_;
    }

    /** Free (non-draining) slot capacity remaining, in pages. */
    std::uint64_t free_slot_pages() const;

    /** Live lease slots in ascending id order: (id, capacity,
     *  draining). */
    struct LeaseSlotView
    {
        std::uint32_t id;
        std::uint64_t capacity;
        std::uint64_t used;
        bool draining;
    };
    std::vector<LeaseSlotView> lease_slots() const;

    /**
     * Fault plane: probability that one promotion read attempt fails
     * (network degradation). While positive, load() runs a bounded
     * retry loop with exponential backoff; 0 restores the healthy
     * fast path (no extra RNG draws, bit-identical trajectories).
     */
    void set_transient_read_failure(double prob)
    {
        transient_read_failure_prob_ = prob;
    }
    double transient_read_failure() const
    {
        return transient_read_failure_prob_;
    }

    const RemoteTierParams &params() const { return params_; }
    const RemoteTierStats &stats() const { return stats_; }

    /**
     * Checkpointable: snapshots counters, the degradation knob, the
     * RNG, the lease slots with their round-robin cursor, the pending
     * dead-lease list, and every placement as (job id, page, lease)
     * in ascending key order. Placements hold raw memcg pointers, so
     * ckpt_load() only parses; ckpt_resolve() rebuilds the map once
     * the machine's jobs exist again.
     */
    void ckpt_save(Serializer &s) const override;
    bool ckpt_load(Deserializer &d) override;
    bool ckpt_resolve(const std::map<JobId, Memcg *> &jobs) override;

  private:
    struct Placement
    {
        Memcg *cg;
        PageId page;
        std::uint32_t lease;
    };

    static std::uint64_t key(const Memcg &cg, PageId p);

    /** Drop every placement under @p lease_id (pages lost); returns
     *  the distinct owning jobs. */
    std::vector<JobId> lose_lease_pages(std::uint32_t lease_id);

    /** Pick the lease slot for the next store: the lowest-id
     *  non-draining slot with space at or after the cursor, wrapping
     *  -- deterministic round-robin across leases. Returns the slot
     *  id, or ~0u when nothing has space. */
    std::uint32_t pick_store_slot();

    // sdfm-state: config(fixed at construction; checkpoints compare
    // config fingerprints rather than carrying it on the wire)
    RemoteTierParams params_;
    RemoteTierStats stats_;
    std::uint64_t used_pages_ = 0;
    std::unordered_map<std::uint64_t, Placement> placements_;
    Rng rng_;
    double transient_read_failure_prob_ = 0.0;

    /** One granted lease's capacity slot. Ordered map: iteration and
     *  victim selection stay deterministic without key extraction. */
    struct LeaseSlot
    {
        std::uint64_t capacity = 0;
        std::uint64_t used = 0;
        bool draining = false;
    };
    std::map<std::uint32_t, LeaseSlot> lease_slots_;
    // sdfm-state: derived(running sum over the serialized lease
    // slots, recomputed by ckpt_load)
    std::uint64_t slot_capacity_total_ = 0;
    std::uint32_t slot_cursor_ = 0;  ///< round-robin over lease ids
    std::vector<std::uint32_t> dead_leases_;  ///< pending reconciliation

    /** Parsed-but-unresolved placements between ckpt_load() and
     *  ckpt_resolve(): (job id, page, lease). */
    struct PendingPlacement
    {
        JobId job;
        PageId page;
        std::uint32_t lease;
    };
    // sdfm-state: derived(transient load-to-resolve staging, drained
    // by ckpt_resolve; always empty in a saved state)
    std::vector<PendingPlacement> pending_placements_;
};

}  // namespace sdfm

#endif  // SDFM_MEM_REMOTE_TIER_H

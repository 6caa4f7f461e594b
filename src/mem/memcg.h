/**
 * @file
 * Memory cgroup: the per-job unit of isolation and accounting
 * (Section 5.1). Owns the job's page metadata, the two per-job
 * histograms kstaled maintains (cold-age and promotion), the
 * agent-controlled zswap state (threshold, enablement, soft limit),
 * and the per-job far-memory counters the evaluation reads.
 */

#ifndef SDFM_MEM_MEMCG_H
#define SDFM_MEM_MEMCG_H

#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "mem/page.h"
#include "mem/page_table.h"
#include "util/age_histogram.h"
#include "util/logging.h"
#include "util/sim_time.h"
#include "zsmalloc/zsmalloc.h"

namespace sdfm {

class Zswap;
class FarTier;
class TierStack;

/** Cumulative per-job far-memory counters. */
struct MemcgStats
{
    std::uint64_t zswap_stores = 0;       ///< pages compressed & kept
    std::uint64_t zswap_rejects = 0;      ///< payload > 2990 B
    std::uint64_t zswap_promotions = 0;   ///< pages decompressed on access
    double compress_cycles = 0.0;         ///< incl. rejected attempts
    double decompress_cycles = 0.0;
    double app_cycles = 0.0;              ///< job CPU (for normalization)
    std::uint64_t compressed_bytes_stored = 0;  ///< running sum of payloads
    double decompress_latency_us_sum = 0.0;     ///< for Figure 9b
    double direct_stall_cycles = 0.0;     ///< reactive-path alloc stalls
    std::uint64_t far_refaults = 0;    ///< corrupted/ECC-failed entries
                                       ///< re-faulted from backing store
    double refault_stall_cycles = 0.0; ///< stalls from those re-faults

    // Deep-tier (NVM/remote) counters, aggregated across every tier
    // below zswap; zero when no deep tier is configured. The nvm_
    // prefix is historical -- these fields predate the N-tier stack
    // and their names are baked into checkpoint payloads and the
    // agent's SLI snapshots.
    std::uint64_t nvm_stores = 0;
    std::uint64_t nvm_promotions = 0;
    double nvm_read_latency_us_sum = 0.0;
    double nvm_stall_cycles = 0.0;
};

/**
 * Serialize/restore every MemcgStats field in declaration order.
 * Shared between Memcg's own checkpoint and the node agent's SLI
 * snapshots (which are whole copies of this struct).
 */
void ckpt_save_memcg_stats(Serializer &s, const MemcgStats &stats);
bool ckpt_load_memcg_stats(Deserializer &d, MemcgStats &stats);

/** Pages per transparent huge page (2 MiB / 4 KiB). */
inline constexpr std::uint32_t kHugeRegionPages = 512;

// One PageTable summary region covers exactly one potential huge
// mapping, so kstaled's hierarchical walk resolves huge regions and
// summary regions in the same loop.
static_assert(kHugeRegionPages == kPageRegionPages);

/** Per-job memory cgroup. */
class Memcg : public Checkpointable
{
  public:
    /**
     * @param id Fleet-unique job id.
     * @param num_pages Size of the job's address space in pages.
     * @param content_seed Seed for deterministic page contents.
     * @param mix Content-class mix for fresh pages.
     * @param start_time Job start (for the agent's S-second delay).
     */
    Memcg(JobId id, std::uint32_t num_pages, std::uint64_t content_seed,
          const ContentMix &mix, SimTime start_time);

    JobId id() const { return id_; }
    std::uint32_t num_pages() const { return pages_.size(); }
    SimTime start_time() const { return start_time_; }
    std::uint64_t content_seed() const { return content_seed_; }

    // The per-page accessors are the hottest calls in the simulator
    // (kstaled scans and kreclaimd walks visit every page of every
    // job each control period), so they are defined inline here. The
    // metadata itself lives in a struct-of-arrays PageTable; loops
    // that want word-at-a-time access take pages() directly.

    /** The page metadata table (kstaled/kreclaimd fast paths). */
    PageTable &pages() { return pages_; }
    const PageTable &pages() const { return pages_; }

    std::uint8_t page_age(PageId p) const { return pages_.age(p); }
    void set_page_age(PageId p, std::uint8_t a) { pages_.set_age(p, a); }
    bool page_test(PageId p, PageFlag f) const { return pages_.test(p, f); }
    void page_set(PageId p, PageFlag f) { pages_.set(p, f); }
    void page_clear(PageId p, PageFlag f) { pages_.clear(p, f); }
    std::uint8_t page_flags(PageId p) const { return pages_.flags(p); }
    ContentClass page_content(PageId p) const { return pages_.content(p); }
    std::uint16_t page_version(PageId p) const
    {
        return pages_.version(p);
    }

    /** Content seed of a page's current contents. */
    std::uint64_t content_seed_of(PageId p) const;

    /**
     * Application access to a page. Sets the accessed (and on write,
     * dirty) bit; a page resident in far memory (zswap or any deep
     * tier of the stack) is promoted first -- the far-memory fault
     * path.
     *
     * @return true iff the access promoted a page out of far memory.
     */
    bool
    touch(PageId p, bool is_write, TierStack &tiers)
    {
        if (pages_.in_far_memory(p))
            return touch_far(p, is_write, tiers);
        pages_.set(p, kPageAccessed);
        if (is_write) {
            pages_.set(p, kPageDirty);
            pages_.bump_version(p);  // contents changed; seed rotates
        }
        return false;
    }

    /**
     * Zswap-only convenience overload for rigs without a TierStack
     * (unit tests, direct reclaim). The page must not live in a deep
     * tier.
     */
    bool
    touch(PageId p, bool is_write, Zswap &zswap)
    {
        if (pages_.in_far_memory(p))
            return touch_far_zswap(p, is_write, zswap);
        pages_.set(p, kPageAccessed);
        if (is_write) {
            pages_.set(p, kPageDirty);
            pages_.bump_version(p);  // contents changed; seed rotates
        }
        return false;
    }

    /** Mark/unmark a page unevictable (mlocked). */
    void set_unevictable(PageId p, bool unevictable);

    // -- transparent huge pages --------------------------------------
    //
    // A huge-backed region has ONE page-table entry: one accessed bit
    // for 512 pages, and its pages cannot go to far memory until the
    // mapping is split. The paper's accessed-bit technique "covers
    // both huge and regular pages" (Section 7) -- kstaled tracks
    // region-grain recency and kreclaimd splits cold regions before
    // compressing them.

    /** Map the region containing pages [first, first+512) as huge.
     *  @p first must be region-aligned and in range. */
    void map_huge_region(PageId first);

    /** Split a huge region back to 4 KiB mappings. */
    void split_huge_region(std::uint32_t region);

    /** Whether a region is currently huge-mapped. */
    bool
    region_is_huge(std::uint32_t region) const
    {
        SDFM_ASSERT(region < region_huge_.size());
        return region_huge_[region];
    }

    /** Fast path for the scan/reclaim loops: skip per-region lookups
     *  entirely when no region is huge-mapped. */
    bool has_huge_regions() const { return huge_count_ > 0; }

    /** Region index of a page. */
    static std::uint32_t
    region_of(PageId p)
    {
        return p / kHugeRegionPages;
    }

    /** Number of regions covering the address space. */
    std::uint32_t num_regions() const
    {
        return (num_pages() + kHugeRegionPages - 1) / kHugeRegionPages;
    }

    /** Count of currently huge-mapped regions. */
    std::uint32_t huge_regions() const { return huge_count_; }

    /** Pages currently resident uncompressed in DRAM. */
    std::uint64_t resident_pages() const { return resident_pages_; }

    /** Pages currently stored compressed in zswap. */
    std::uint64_t zswap_pages() const { return zswap_pages_; }

    /** Pages currently stored in deep tiers (every stack index >= 1). */
    std::uint64_t tier_pages() const { return tier_pages_; }

    /**
     * Adjust deep-tier residency counters (called by the tier on
     * store/load). @p tier_index is the storing tier's position in
     * its TierStack (>= 1); it becomes the page's far slot.
     */
    void note_stored_in_tier(PageId p, std::uint8_t tier_index);
    void note_loaded_from_tier(PageId p);

    /** Stack index of the deep tier holding page @p p, which must
     *  have kPageInFarTier set. */
    std::uint8_t
    tier_of(PageId p) const
    {
        SDFM_ASSERT(pages_.test(p, kPageInFarTier));
        return static_cast<std::uint8_t>(far_slot_[p]);
    }

    /** Pages currently in the deep tier at @p tier_index. */
    std::vector<PageId> tier_page_ids(std::uint8_t tier_index) const;

    /**
     * Accumulate this cgroup's deep-tier residency into @p counts,
     * indexed by stack position. For machine-level cross-checks
     * against each tier's own used_pages().
     *
     * @return false when a page's tier index is out of @p counts's
     *         range (a corrupt restore or a stack mismatch).
     */
    bool add_tier_page_counts(std::vector<std::uint64_t> &counts) const;

    /**
     * Cold-age histogram: pages by current age, rebuilt by each
     * kstaled scan (Section 4.4).
     */
    const AgeHistogram &cold_hist() const { return cold_hist_; }
    AgeHistogram &mutable_cold_hist() { return cold_hist_; }

    /**
     * Promotion histogram: cumulative count of re-accesses by the age
     * the page had reached when re-accessed (Section 4.3). The agent
     * diffs snapshots to get per-minute rates.
     */
    const AgeHistogram &promo_hist() const { return promo_hist_; }
    AgeHistogram &mutable_promo_hist() { return promo_hist_; }

    /**
     * Working set size in pages: pages accessed within the minimum
     * cold-age threshold (age bucket 0 after a scan). Section 4.2.
     */
    std::uint64_t wss_pages() const { return cold_hist_.count_below(1); }

    /** Cold pages under the minimum threshold (age >= 120 s). */
    std::uint64_t cold_pages_min_threshold() const
    {
        return cold_hist_.count_at_least(1);
    }

    /** Cold pages under an arbitrary threshold bucket. */
    std::uint64_t
    cold_pages(AgeBucket threshold) const
    {
        return cold_hist_.count_at_least(threshold);
    }

    // -- agent-controlled state ------------------------------------

    /** Cold-age threshold in buckets; 0 disables reclaim. */
    AgeBucket reclaim_threshold() const { return reclaim_threshold_; }
    void set_reclaim_threshold(AgeBucket t) { reclaim_threshold_ = t; }

    /** zswap on/off (off during the first S seconds, and at limit). */
    bool zswap_enabled() const { return zswap_enabled_; }
    void set_zswap_enabled(bool enabled) { zswap_enabled_ = enabled; }

    /** Soft limit in pages: direct reclaim will not go below this. */
    std::uint64_t soft_limit_pages() const { return soft_limit_pages_; }
    void set_soft_limit_pages(std::uint64_t p) { soft_limit_pages_ = p; }

    /** Whether the job is best-effort (evictable under pressure). */
    bool best_effort() const { return best_effort_; }
    void set_best_effort(bool be) { best_effort_ = be; }

    // -- bookkeeping used by Zswap ---------------------------------

    /** zswap handle of page @p p, which must have kPageInZswap set. */
    ZsHandle
    zswap_handle(PageId p) const
    {
        SDFM_ASSERT(pages_.test(p, kPageInZswap));
        return far_slot_[p];
    }

    /** Record the handle of a page about to enter zswap. */
    void set_zswap_handle(PageId p, ZsHandle h);

    /** Pages currently in zswap, in page order (for teardown). */
    std::vector<PageId> zswap_page_ids() const;

    /** Adjust residency counters (called by Zswap on store/load). */
    void note_stored_in_zswap(PageId p);
    void note_loaded_from_zswap(PageId p);

    MemcgStats &stats() { return stats_; }
    const MemcgStats &stats() const { return stats_; }

    /**
     * Whole-cgroup consistency check (SDFM_INVARIANT tier): residency
     * counters vs per-page flags, far slots vs flags, cold-age
     * histogram coverage, huge-region accounting, and the
     * incompressible-mark contract. A no-op unless the build defines
     * SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

    /**
     * Order-sensitive digest over every trajectory-relevant field:
     * page metadata, residency counters, histograms, and the
     * agent-controlled knobs. Serial and parallel stepping of the
     * same fleet must agree on it (see tests/invariant_test.cc).
     */
    std::uint64_t state_digest() const;

    /**
     * Checkpointable: snapshots the complete cgroup (identity,
     * per-page metadata, zswap handles and deep-tier indices >= 2 as
     * (page, value) pairs in page order, both histograms, residency
     * counters, agent knobs, huge-region bitmap, and cumulative
     * stats). ckpt_load() cross-checks the residency counters against
     * the restored page flags; the machine checks the handles.
     */
    void ckpt_save(Serializer &s) const override;
    bool ckpt_load(Deserializer &d) override;

  private:
    /** Out-of-line slow path of touch(): promote from the stack. */
    bool touch_far(PageId p, bool is_write, TierStack &tiers);

    /** Slow path of the zswap-only overload (asserts no deep tier). */
    bool touch_far_zswap(PageId p, bool is_write, Zswap &zswap);

    JobId id_;
    std::uint64_t content_seed_;
    SimTime start_time_;
    PageTable pages_;
    /**
     * Where each far page lives: its arena handle while kPageInZswap
     * is set, the holding tier's stack index while kPageInFarTier is
     * set, 0 while resident.
     */
    std::vector<std::uint32_t> far_slot_;
    AgeHistogram cold_hist_;
    AgeHistogram promo_hist_;
    std::uint64_t resident_pages_ = 0;
    std::uint64_t zswap_pages_ = 0;
    std::uint64_t tier_pages_ = 0;
    AgeBucket reclaim_threshold_ = 0;
    bool zswap_enabled_ = false;
    bool best_effort_ = false;
    std::uint64_t soft_limit_pages_ = 0;
    std::vector<bool> region_huge_;
    // sdfm-state: derived(recounted from the serialized region_huge_
    // bitmap by ckpt_load)
    std::uint32_t huge_count_ = 0;
    MemcgStats stats_;
};

}  // namespace sdfm

#endif  // SDFM_MEM_MEMCG_H

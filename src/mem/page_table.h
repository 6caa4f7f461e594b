/**
 * @file
 * Struct-of-arrays page metadata for one memcg.
 *
 * Per-page state is split by field: a contiguous 16-bit last-access
 * epoch array, a 16-bit version array, an 8-bit content-class array,
 * and one packed 64-bit bitset per PageFlag. The hot loops (kstaled's
 * scan, kreclaimd's plan walk) then work word-at-a-time: a fully-idle
 * 64-page word is skipped with one load, counters come from popcount,
 * and flag transitions touch one cache line per 64 pages instead of
 * one per page.
 *
 * Ages are not stored. The table keeps a scan epoch that every
 * kstaled scan advances by one, and each page keeps the epoch of the
 * scan that last found it accessed, so a page's 8-bit age is
 * min(255, epoch - last_access) -- aging every idle page is one
 * increment of the epoch, the generation-number idea of Linux's
 * multi-gen LRU. The arithmetic is modulo 2^16; a clamp sweep every
 * kClampPeriod scans pulls saturated pages' epochs up to 255 behind,
 * so no distance ever wraps. A ring of per-epoch page counts plus a
 * saturated bucket holds the age distribution, so the cold-age
 * histogram costs O(256) per scan rather than O(pages).
 *
 * On top of the flat arrays the table keeps per-region (512-page,
 * matching kHugeRegionPages) oldest/newest last-access epochs, so the
 * reclaim loop can skip entire young regions wholesale -- the
 * hierarchical profiling idea from Telescope's page-table-tree walk,
 * collapsed to two levels. Epoch bounds do not move as time passes,
 * so a scan leaves every region exact while touching only the
 * regions with accessed pages; point writes widen them and mark the
 * region for the next scan to tighten.
 *
 * Digest order and checkpoint wire bytes are per-page records of the
 * derived ages in page order (see state_digest() and ckpt_save());
 * a restore rebases the epoch to zero. tests/page_table_test.cc holds
 * every accessor, the digest fold and the wire bytes to a
 * one-record-per-page reference model.
 */

#ifndef SDFM_MEM_PAGE_TABLE_H
#define SDFM_MEM_PAGE_TABLE_H

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "compression/page_content.h"
#include "mem/page.h"
#include "util/age_histogram.h"
#include "util/logging.h"

namespace sdfm {

class StateDigest;

/**
 * Pages per summary region. Must equal kHugeRegionPages (memcg.h
 * static_asserts this) so one region summary also covers exactly one
 * potential huge mapping, and must be a multiple of 64 so regions
 * never share a bitset word.
 */
inline constexpr std::uint32_t kPageRegionPages = 512;

/** Per-page metadata for one address space. */
class PageTable
{
  public:
    PageTable() = default;
    explicit PageTable(std::uint32_t num_pages) { resize(num_pages); }

    /** Reset to @p num_pages zero-initialized pages (ckpt_load). */
    void resize(std::uint32_t num_pages);

    std::uint32_t size() const { return num_pages_; }

    // -- per-page accessors (the hottest calls in the simulator) -----

    /** Age of a last-access epoch @p distance scans old. */
    static std::uint8_t
    age_at(std::uint16_t distance)
    {
        return distance > 255 ? std::uint8_t{255}
                              : static_cast<std::uint8_t>(distance);
    }

    std::uint8_t
    age(PageId p) const
    {
        SDFM_ASSERT(p < num_pages_);
        return age_at(distance(last_[p]));
    }

    /**
     * Point write of a page's age: its epoch moves to @p a scans ago.
     * The owning region's bounds are widened (never recomputed) so
     * they stay conservative, and the region is marked for the next
     * scan to tighten. Does not advance the epoch.
     */
    void
    set_age(PageId p, std::uint8_t a)
    {
        SDFM_ASSERT(p < num_pages_);
        uncount(last_[p]);
        auto e = static_cast<std::uint16_t>(epoch_ - a);
        last_[p] = e;
        if (a < 255)
            ++ring_[e & 255];
        else
            ++saturated_;
        std::uint32_t r = p / kPageRegionPages;
        if (distance(e) > distance(region_oldest_[r]))
            region_oldest_[r] = e;
        if (distance(e) < distance(region_newest_[r]))
            region_newest_[r] = e;
        mark_stale(r);
    }

    std::uint16_t
    version(PageId p) const
    {
        SDFM_ASSERT(p < num_pages_);
        return version_[p];
    }

    /** Contents changed: rotate the page's content seed. */
    void
    bump_version(PageId p)
    {
        SDFM_ASSERT(p < num_pages_);
        ++version_[p];
    }

    ContentClass
    content(PageId p) const
    {
        SDFM_ASSERT(p < num_pages_);
        return static_cast<ContentClass>(content_[p]);
    }

    void
    set_content(PageId p, ContentClass c)
    {
        SDFM_ASSERT(p < num_pages_);
        content_[p] = static_cast<std::uint8_t>(c);
    }

    bool
    test(PageId p, PageFlag f) const
    {
        SDFM_ASSERT(p < num_pages_);
        return (bits(f)[word_of(p)] & bit_of(p)) != 0;
    }

    void
    set(PageId p, PageFlag f)
    {
        SDFM_ASSERT(p < num_pages_);
        bits(f)[word_of(p)] |= bit_of(p);
    }

    void
    clear(PageId p, PageFlag f)
    {
        SDFM_ASSERT(p < num_pages_);
        bits(f)[word_of(p)] &= ~bit_of(p);
    }

    /** All six flag bits of one page, gathered into PageFlag form. */
    std::uint8_t
    flags(PageId p) const
    {
        SDFM_ASSERT(p < num_pages_);
        std::size_t w = word_of(p);
        std::uint64_t m = bit_of(p);
        std::uint8_t f = 0;
        if (accessed_[w] & m)
            f |= kPageAccessed;
        if (dirty_[w] & m)
            f |= kPageDirty;
        if (unevictable_[w] & m)
            f |= kPageUnevictable;
        if (incompressible_[w] & m)
            f |= kPageIncompressible;
        if (in_zswap_[w] & m)
            f |= kPageInZswap;
        if (in_far_[w] & m)
            f |= kPageInFarTier;
        return f;
    }

    /** Resident in any far tier (zswap or deep)? The touch() fast
     *  path: two word loads. */
    bool
    in_far_memory(PageId p) const
    {
        SDFM_ASSERT(p < num_pages_);
        std::size_t w = word_of(p);
        return ((in_zswap_[w] | in_far_[w]) & bit_of(p)) != 0;
    }

    // -- word-level access (the scan/reclaim fast paths) -------------

    static std::size_t word_of(PageId p) { return p >> 6; }
    static std::uint64_t bit_of(PageId p) { return 1ULL << (p & 63); }

    /** Number of 64-bit words in each flag bitset. */
    std::size_t num_words() const { return accessed_.size(); }

    /** Ones for in-range pages of word @p w (the last word of a
     *  table whose size is not a multiple of 64 is partial). */
    std::uint64_t
    live_mask(std::size_t w) const
    {
        std::uint32_t base = static_cast<std::uint32_t>(w) * 64;
        SDFM_ASSERT(base < num_pages_);
        std::uint32_t rem = num_pages_ - base;
        return rem >= 64 ? ~0ULL : (1ULL << rem) - 1;
    }

    /** Call @p fn(p) for every page with flag @p f set, in page
     *  order. @p fn must not change that flag. */
    template <typename Fn>
    void
    for_each(PageFlag f, Fn &&fn) const
    {
        const std::vector<std::uint64_t> &words = bits(f);
        for (std::size_t w = 0; w < words.size(); ++w) {
            for (std::uint64_t m = words[w]; m != 0; m &= m - 1) {
                fn(static_cast<PageId>(w * 64) +
                   static_cast<PageId>(std::countr_zero(m)));
            }
        }
    }

    std::uint64_t *accessed_words() { return accessed_.data(); }
    std::uint64_t *dirty_words() { return dirty_.data(); }
    std::uint64_t *incompressible_words() { return incompressible_.data(); }
    const std::uint64_t *unevictable_words() const
    {
        return unevictable_.data();
    }
    const std::uint64_t *in_zswap_words() const { return in_zswap_.data(); }
    const std::uint64_t *in_far_words() const { return in_far_.data(); }

    // -- epoch plane (kstaled's scan, kreclaimd's walk) --------------

    /** Scans between clamp sweeps. A page's epoch then never falls
     *  more than 255 + kClampPeriod behind, short of the u16 wrap. */
    static constexpr std::uint32_t kClampPeriod = 1u << 15;

    /** The current scan epoch. */
    std::uint16_t epoch() const { return epoch_; }

    /** Per-page last-access epochs (kreclaimd's candidate filter). */
    const std::uint16_t *epoch_data() const { return last_.data(); }

    /**
     * Start a scan: every page ages by one. Moves the pages that
     * reach 255 into the saturated bucket and, once every
     * kClampPeriod scans, runs the clamp sweep.
     */
    void advance_epoch();

    /**
     * Record an access found by the scan that advance_epoch() just
     * started: the page's age drops to 0.
     *
     * @return The page's age before the scan, for the promotion
     *         histogram.
     */
    std::uint8_t
    stamp(PageId p)
    {
        SDFM_ASSERT(p < num_pages_);
        std::uint16_t old = last_[p];
        std::uint16_t d = distance(old);
        SDFM_ASSERT(d > 0);
        uncount(old);
        ++ring_[epoch_ & 255];
        last_[p] = epoch_;
        std::uint32_t r = p / kPageRegionPages;
        region_newest_[r] = epoch_;
        // The oldest epoch can only move if this page held it.
        if (old == region_oldest_[r])
            mark_stale(r);
        return age_at(static_cast<std::uint16_t>(d - 1));
    }

    /**
     * Finish a scan: tighten the bounds of every region that lost its
     * oldest page or took a point write, and rebuild @p cold from the
     * epoch ring.
     */
    void finish_scan(AgeHistogram &cold);

    // -- region summaries --------------------------------------------

    /** Regions covering the address space. */
    std::uint32_t
    num_summary_regions() const
    {
        return (num_pages_ + kPageRegionPages - 1) / kPageRegionPages;
    }

    /** Conservative lower bound on the region's page ages. */
    std::uint8_t
    region_min_age(std::uint32_t r) const
    {
        SDFM_ASSERT(r < region_newest_.size());
        return age_at(distance(region_newest_[r]));
    }

    /** Conservative upper bound on the region's page ages. */
    std::uint8_t
    region_max_age(std::uint32_t r) const
    {
        SDFM_ASSERT(r < region_oldest_.size());
        return age_at(distance(region_oldest_[r]));
    }

    /** Recompute every region's bounds from the epoch array. */
    void rebuild_region_summaries();

    // -- digest / checkpoint / invariants ----------------------------

    /**
     * Fold every page as (age<<32 | flags<<24 | version<<8 | content)
     * in page order, with each age derived from the epoch plane.
     */
    void state_digest(StateDigest &d) const;

    /**
     * Wire format: page count, then per page age u8, flags u8,
     * content u8, version u16. Ages are derived; the epoch itself is
     * not on the wire.
     */
    void ckpt_save(Serializer &s) const;

    /**
     * Restore from the wire, rebasing the epoch to zero. Rejects zero
     * pages, unknown flag bits, and out-of-range content classes.
     * @p flagged_zswap and @p flagged_tier return the restored
     * kPageInZswap / kPageInFarTier populations for the caller's
     * residency cross-checks.
     */
    bool ckpt_load(Deserializer &d, std::uint64_t &flagged_zswap,
                   std::uint64_t &flagged_tier);

    /**
     * Internal consistency (SDFM_INVARIANT tier): every array covers
     * the address space, bitset tail bits beyond the last page are
     * zero, every page's epoch lies within the clamp sweep's wrap
     * bound and inside its region's epoch bounds (exactly on them for
     * regions no point write has marked), and the epoch ring plus the
     * saturated bucket is the histogram of derived ages. A no-op
     * unless SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

  private:
    /** Scans since @p e, modulo 2^16 (exact within the wrap bound). */
    std::uint16_t
    distance(std::uint16_t e) const
    {
        return static_cast<std::uint16_t>(epoch_ - e);
    }

    /** Drop a page at epoch @p e from the ring or saturated bucket. */
    void
    uncount(std::uint16_t e)
    {
        if (distance(e) < 255)
            --ring_[e & 255];
        else
            --saturated_;
    }

    void
    mark_stale(std::uint32_t r)
    {
        stale_regions_[r >> 6] |= 1ULL << (r & 63);
    }

    /** Exact bounds of one region from the epoch array. */
    void rebuild_region(std::uint32_t r);

    /** Pull every saturated page's epoch up to exactly 255 behind. */
    void clamp_saturated();

    std::vector<std::uint64_t> &
    bits(PageFlag f)
    {
        switch (f) {
          case kPageAccessed:
            return accessed_;
          case kPageDirty:
            return dirty_;
          case kPageUnevictable:
            return unevictable_;
          case kPageIncompressible:
            return incompressible_;
          case kPageInZswap:
            return in_zswap_;
          case kPageInFarTier:
            return in_far_;
        }
        panic("bad PageFlag %d", static_cast<int>(f));
    }
    const std::vector<std::uint64_t> &
    bits(PageFlag f) const
    {
        return const_cast<PageTable *>(this)->bits(f);
    }

    std::uint32_t num_pages_ = 0;

    /**
     * The scan epoch; ages are distances from it.
     * sdfm-state: derived(only distances from it are state: the digest
     * and the wire carry the derived ages, and a restore rebases it to
     * zero)
     */
    std::uint16_t epoch_ = 0;
    /**
     * Per-page epoch of the last scan that found the page accessed.
     * sdfm-state: derived(digested and serialized as the 8-bit ages it
     * derives; a restore rebuilds it from those ages)
     */
    std::vector<std::uint16_t> last_;
    std::vector<std::uint16_t> version_;
    std::vector<std::uint8_t> content_;
    std::vector<std::uint64_t> accessed_;
    std::vector<std::uint64_t> dirty_;
    std::vector<std::uint64_t> unevictable_;
    std::vector<std::uint64_t> incompressible_;
    std::vector<std::uint64_t> in_zswap_;
    std::vector<std::uint64_t> in_far_;

    /**
     * Pages per last-access epoch for ages 0..254, indexed by
     * epoch & 255; the slot of ages that just reached 255 is folded
     * into saturated_ by advance_epoch() and stays zero.
     * sdfm-state: derived(counts of the per-page epochs; rebuilt with
     * them on restore)
     */
    std::array<std::uint32_t, 256> ring_{};
    // sdfm-state: derived(pages of age 255; see ring_)
    std::uint32_t saturated_ = 0;

    /**
     * Per-region epoch bounds: the epoch of the region's oldest page
     * and of its newest. Both are exact except in stale regions,
     * where point writes have only widened them.
     * sdfm-state: derived(tightened by every scan, widened by point
     * writes, rebuilt from the epoch array on restore; the ages they
     * bound are digested and serialized, so drift here cannot hide --
     * it only costs skipped-region opportunities)
     */
    std::vector<std::uint16_t> region_oldest_;
    // sdfm-state: derived(see region_oldest_)
    std::vector<std::uint16_t> region_newest_;
    /**
     * One bit per region whose bounds the next scan must recompute.
     * sdfm-state: derived(see region_oldest_; cleared by every scan
     * and rebuild)
     */
    std::vector<std::uint64_t> stale_regions_;
};

}  // namespace sdfm

#endif  // SDFM_MEM_PAGE_TABLE_H

/**
 * @file
 * Struct-of-arrays page metadata for one memcg.
 *
 * Per-page state is split by field: a contiguous 8-bit age array, a
 * 16-bit version array, an 8-bit content-class array, and one packed
 * 64-bit bitset per PageFlag. The hot loops (kstaled's scan,
 * kreclaimd's plan walk) then work word-at-a-time: a fully-idle
 * 64-page word is skipped with one load, counters come from popcount,
 * and flag transitions touch one cache line per 64 pages instead of
 * one per page.
 *
 * On top of the flat arrays the table keeps per-region (512-page,
 * matching kHugeRegionPages) min/max age summaries, so the scan and
 * reclaim loops can skip entire cold or quiescent regions wholesale
 * -- the hierarchical profiling idea from Telescope's page-table-tree
 * walk, collapsed to two levels. The summaries are conservative
 * bounds: scans set them exactly, point writes only widen them.
 *
 * Digest order and checkpoint wire bytes are per-page records in page
 * order (see state_digest() and ckpt_save()); tests/page_table_test.cc
 * holds every accessor, the digest fold and the wire bytes to a
 * one-record-per-page reference model.
 */

#ifndef SDFM_MEM_PAGE_TABLE_H
#define SDFM_MEM_PAGE_TABLE_H

#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "compression/page_content.h"
#include "mem/page.h"
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

    std::uint8_t
    age(PageId p) const
    {
        SDFM_ASSERT(p < num_pages_);
        return age_[p];
    }

    /**
     * Point write of a page's age. The owning region's summary is
     * widened (never recomputed) so the bounds stay conservative; the
     * next scan tightens them.
     */
    void
    set_age(PageId p, std::uint8_t a)
    {
        SDFM_ASSERT(p < num_pages_);
        age_[p] = a;
        std::uint32_t r = p / kPageRegionPages;
        if (a < region_min_age_[r])
            region_min_age_[r] = a;
        if (a > region_max_age_[r])
            region_max_age_[r] = a;
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

    std::uint8_t *age_data() { return age_.data(); }
    const std::uint8_t *age_data() const { return age_.data(); }
    std::uint64_t *accessed_words() { return accessed_.data(); }
    std::uint64_t *dirty_words() { return dirty_.data(); }
    std::uint64_t *incompressible_words() { return incompressible_.data(); }
    const std::uint64_t *unevictable_words() const
    {
        return unevictable_.data();
    }
    const std::uint64_t *in_zswap_words() const { return in_zswap_.data(); }
    const std::uint64_t *in_far_words() const { return in_far_.data(); }

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
        SDFM_ASSERT(r < region_min_age_.size());
        return region_min_age_[r];
    }

    /** Conservative upper bound on the region's page ages. */
    std::uint8_t
    region_max_age(std::uint32_t r) const
    {
        SDFM_ASSERT(r < region_max_age_.size());
        return region_max_age_[r];
    }

    /** Exact bounds, recorded by a scan that visited every page. */
    void
    set_region_summary(std::uint32_t r, std::uint8_t min_age,
                       std::uint8_t max_age)
    {
        SDFM_ASSERT(r < region_min_age_.size());
        region_min_age_[r] = min_age;
        region_max_age_[r] = max_age;
    }

    /** Recompute every region summary from the age array. */
    void rebuild_region_summaries();

    // -- digest / checkpoint / invariants ----------------------------

    /**
     * Fold every page as (age<<32 | flags<<24 | version<<8 | content)
     * in page order.
     */
    void state_digest(StateDigest &d) const;

    /**
     * Wire format: page count, then per page age u8, flags u8,
     * content u8, version u16.
     */
    void ckpt_save(Serializer &s) const;

    /**
     * Restore from the wire. Rejects zero pages, unknown flag bits,
     * and out-of-range content classes. @p flagged_zswap and
     * @p flagged_tier return the restored kPageInZswap /
     * kPageInFarTier populations for the caller's residency
     * cross-checks.
     */
    bool ckpt_load(Deserializer &d, std::uint64_t &flagged_zswap,
                   std::uint64_t &flagged_tier);

    /**
     * Internal consistency (SDFM_INVARIANT tier): every array covers
     * the address space, bitset tail bits beyond the last page are
     * zero, and every page's age lies inside its region summary. A
     * no-op unless SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

  private:
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

    std::vector<std::uint8_t> age_;
    std::vector<std::uint16_t> version_;
    std::vector<std::uint8_t> content_;
    std::vector<std::uint64_t> accessed_;
    std::vector<std::uint64_t> dirty_;
    std::vector<std::uint64_t> unevictable_;
    std::vector<std::uint64_t> incompressible_;
    std::vector<std::uint64_t> in_zswap_;
    std::vector<std::uint64_t> in_far_;

    /**
     * Per-region conservative [min, max] age bounds.
     * sdfm-state: derived(tightened to exact by every scan, widened
     * by point writes, rebuilt from the age array on restore; the
     * ages they summarize are digested and serialized, so drift here
     * cannot hide -- it only costs skipped-region opportunities)
     */
    std::vector<std::uint8_t> region_min_age_;
    // sdfm-state: derived(see region_min_age_)
    std::vector<std::uint8_t> region_max_age_;
};

}  // namespace sdfm

#endif  // SDFM_MEM_PAGE_TABLE_H

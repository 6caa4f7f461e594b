#include "mem/page_table.h"

#include "util/digest.h"
#include "util/invariant.h"

namespace sdfm {

namespace {

/** All flag bits a page may legally carry on the checkpoint wire. */
constexpr std::uint8_t kKnownFlags =
    kPageAccessed | kPageDirty | kPageUnevictable | kPageIncompressible |
    kPageInZswap | kPageInFarTier;

}  // namespace

void
PageTable::resize(std::uint32_t num_pages)
{
    SDFM_ASSERT(num_pages > 0);
    num_pages_ = num_pages;
    std::size_t words = (static_cast<std::size_t>(num_pages) + 63) / 64;
    age_.assign(num_pages, 0);
    version_.assign(num_pages, 0);
    content_.assign(num_pages,
                    static_cast<std::uint8_t>(ContentClass::kStructured));
    accessed_.assign(words, 0);
    dirty_.assign(words, 0);
    unevictable_.assign(words, 0);
    incompressible_.assign(words, 0);
    in_zswap_.assign(words, 0);
    in_far_.assign(words, 0);
    region_min_age_.assign(num_summary_regions(), 0);
    region_max_age_.assign(num_summary_regions(), 0);
}

void
PageTable::rebuild_region_summaries()
{
    std::uint32_t regions = num_summary_regions();
    for (std::uint32_t r = 0; r < regions; ++r) {
        PageId first = r * kPageRegionPages;
        PageId end = first + kPageRegionPages < num_pages_
                         ? first + kPageRegionPages
                         : num_pages_;
        std::uint8_t mn = 255;
        std::uint8_t mx = 0;
        for (PageId p = first; p < end; ++p) {
            if (age_[p] < mn)
                mn = age_[p];
            if (age_[p] > mx)
                mx = age_[p];
        }
        region_min_age_[r] = mn;
        region_max_age_[r] = mx;
    }
}

void
PageTable::state_digest(StateDigest &d) const
{
    for (PageId p = 0; p < num_pages_; ++p) {
        std::size_t w = word_of(p);
        std::uint64_t m = bit_of(p);
        std::uint64_t f = 0;
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
        d.mix(static_cast<std::uint64_t>(age_[p]) << 32 | f << 24 |
              static_cast<std::uint64_t>(version_[p]) << 8 |
              static_cast<std::uint64_t>(content_[p]));
    }
}

void
PageTable::ckpt_save(Serializer &s) const
{
    s.put_u64(num_pages_);
    for (PageId p = 0; p < num_pages_; ++p) {
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
        s.put_u8(age_[p]);
        s.put_u8(f);
        s.put_u8(content_[p]);
        s.put_u16(version_[p]);
    }
}

bool
PageTable::ckpt_load(Deserializer &d, std::uint64_t &flagged_zswap,
                     std::uint64_t &flagged_tier)
{
    std::size_t num = d.get_size(0xffffffffu, 5);
    if (!d.ok() || num == 0)
        return false;
    resize(static_cast<std::uint32_t>(num));
    flagged_zswap = 0;
    flagged_tier = 0;
    for (PageId p = 0; p < num_pages_; ++p) {
        std::uint8_t age = d.get_u8();
        std::uint8_t f = d.get_u8();
        std::uint8_t content = d.get_u8();
        std::uint16_t version = d.get_u16();
        if ((f & ~kKnownFlags) != 0)
            return false;
        if (content >=
            static_cast<std::uint8_t>(ContentClass::kNumClasses)) {
            return false;
        }
        if (f & kPageInZswap)
            ++flagged_zswap;
        if (f & kPageInFarTier)
            ++flagged_tier;
        std::size_t w = word_of(p);
        std::uint64_t m = bit_of(p);
        age_[p] = age;
        version_[p] = version;
        content_[p] = content;
        if (f & kPageAccessed)
            accessed_[w] |= m;
        if (f & kPageDirty)
            dirty_[w] |= m;
        if (f & kPageUnevictable)
            unevictable_[w] |= m;
        if (f & kPageIncompressible)
            incompressible_[w] |= m;
        if (f & kPageInZswap)
            in_zswap_[w] |= m;
        if (f & kPageInFarTier)
            in_far_[w] |= m;
    }
    rebuild_region_summaries();
    return d.ok();
}

void
PageTable::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;

    SDFM_INVARIANT(age_.size() == num_pages_ &&
                       version_.size() == num_pages_ &&
                       content_.size() == num_pages_,
                   "every per-page array covers the address space");
    std::size_t words = (static_cast<std::size_t>(num_pages_) + 63) / 64;
    SDFM_INVARIANT(accessed_.size() == words && dirty_.size() == words &&
                       unevictable_.size() == words &&
                       incompressible_.size() == words &&
                       in_zswap_.size() == words &&
                       in_far_.size() == words,
                   "every flag bitset covers the address space");
    // Bits past the last page must stay zero: the word-at-a-time scan
    // and reclaim paths treat them as real pages otherwise.
    std::uint64_t tail = ~live_mask(words - 1);
    SDFM_INVARIANT((accessed_.back() & tail) == 0 &&
                       (dirty_.back() & tail) == 0 &&
                       (unevictable_.back() & tail) == 0 &&
                       (incompressible_.back() & tail) == 0 &&
                       (in_zswap_.back() & tail) == 0 &&
                       (in_far_.back() & tail) == 0,
                   "bitset tail bits beyond the last page are zero");
    SDFM_INVARIANT(region_min_age_.size() == num_summary_regions() &&
                       region_max_age_.size() == num_summary_regions(),
                   "region summaries cover the address space");
    for (PageId p = 0; p < num_pages_; ++p) {
        std::uint32_t r = p / kPageRegionPages;
        SDFM_INVARIANT(region_min_age_[r] <= age_[p] &&
                           age_[p] <= region_max_age_[r],
                       "every page age lies inside its region summary");
    }
}

}  // namespace sdfm

#include "mem/page_table.h"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "util/digest.h"
#include "util/invariant.h"

namespace sdfm {

namespace {

/** All flag bits a page may legally carry on the checkpoint wire. */
constexpr std::uint8_t kKnownFlags =
    kPageAccessed | kPageDirty | kPageUnevictable | kPageIncompressible |
    kPageInZswap | kPageInFarTier;

/** Bytes of one page's wire record: age, flags, content, version. */
constexpr std::size_t kCkptRecordBytes = 5;

}  // namespace

void
PageTable::resize(std::uint32_t num_pages)
{
    SDFM_ASSERT(num_pages > 0);
    num_pages_ = num_pages;
    std::size_t words = (static_cast<std::size_t>(num_pages) + 63) / 64;
    epoch_ = 0;
    last_.assign(num_pages, 0);
    ring_.fill(0);
    ring_[0] = num_pages;
    saturated_ = 0;
    version_.assign(num_pages, 0);
    content_.assign(num_pages,
                    static_cast<std::uint8_t>(ContentClass::kStructured));
    accessed_.assign(words, 0);
    dirty_.assign(words, 0);
    unevictable_.assign(words, 0);
    incompressible_.assign(words, 0);
    in_zswap_.assign(words, 0);
    in_far_.assign(words, 0);
    std::uint32_t regions = num_summary_regions();
    region_oldest_.assign(regions, 0);
    region_newest_.assign(regions, 0);
    stale_regions_.assign((regions + 63) / 64, 0);
}

void
PageTable::rebuild_region(std::uint32_t r)
{
    PageId first = r * kPageRegionPages;
    PageId end = first + kPageRegionPages < num_pages_
                     ? first + kPageRegionPages
                     : num_pages_;
    std::uint16_t oldest = 0;
    std::uint16_t newest = 0xffff;
    for (PageId p = first; p < end; ++p) {
        std::uint16_t d = distance(last_[p]);
        oldest = d > oldest ? d : oldest;
        newest = d < newest ? d : newest;
    }
    region_oldest_[r] = static_cast<std::uint16_t>(epoch_ - oldest);
    region_newest_[r] = static_cast<std::uint16_t>(epoch_ - newest);
}

void
PageTable::rebuild_region_summaries()
{
    std::uint32_t regions = num_summary_regions();
    for (std::uint32_t r = 0; r < regions; ++r)
        rebuild_region(r);
    std::fill(stale_regions_.begin(), stale_regions_.end(), 0);
}

void
PageTable::clamp_saturated()
{
    auto floor = static_cast<std::uint16_t>(epoch_ - 255);
    for (std::uint16_t &e : last_) {
        if (distance(e) > 255)
            e = floor;
    }
    rebuild_region_summaries();
}

void
PageTable::advance_epoch()
{
    ++epoch_;
    // Pages last accessed 255 scans ago just saturated; their slot is
    // the one the next epoch's stamps would alias.
    std::uint32_t &reached = ring_[(epoch_ + 1) & 255];
    saturated_ += reached;
    reached = 0;
    if (epoch_ % kClampPeriod == 0)
        clamp_saturated();
}

void
PageTable::finish_scan(AgeHistogram &cold)
{
    for (std::size_t i = 0; i < stale_regions_.size(); ++i) {
        for (std::uint64_t m = stale_regions_[i]; m != 0; m &= m - 1) {
            rebuild_region(static_cast<std::uint32_t>(
                i * 64 + static_cast<std::size_t>(std::countr_zero(m))));
        }
        stale_regions_[i] = 0;
    }
    cold.clear();
    for (std::uint32_t a = 0; a < 255; ++a) {
        std::uint32_t count = ring_[(epoch_ - a) & 255];
        if (count != 0)
            cold.add(static_cast<AgeBucket>(a), count);
    }
    if (saturated_ != 0)
        cold.add(255, saturated_);
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
        d.mix(static_cast<std::uint64_t>(age(p)) << 32 | f << 24 |
              static_cast<std::uint64_t>(version_[p]) << 8 |
              static_cast<std::uint64_t>(content_[p]));
    }
}

void
PageTable::ckpt_save(Serializer &s) const
{
    s.put_u64(num_pages_);
    std::uint8_t *out = s.claim(kCkptRecordBytes * std::size_t{num_pages_});
    for (PageId p = 0; p < num_pages_; ++p, out += kCkptRecordBytes) {
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
        out[0] = age(p);
        out[1] = f;
        out[2] = content_[p];
        store_le(out + 3, version_[p]);
    }
}

bool
PageTable::ckpt_load(Deserializer &d, std::uint64_t &flagged_zswap,
                     std::uint64_t &flagged_tier)
{
    std::size_t num = d.get_size(0xffffffffu, kCkptRecordBytes);
    if (!d.ok() || num == 0)
        return false;
    const std::uint8_t *in = d.consume(kCkptRecordBytes * num);
    resize(static_cast<std::uint32_t>(num));
    ring_.fill(0);
    flagged_zswap = 0;
    flagged_tier = 0;
    for (PageId p = 0; p < num_pages_; ++p, in += kCkptRecordBytes) {
        std::uint8_t age = in[0];
        std::uint8_t f = in[1];
        std::uint8_t content = in[2];
        std::uint16_t version = load_le<std::uint16_t>(in + 3);
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
        // Rebase: the restored table starts at epoch 0.
        last_[p] = static_cast<std::uint16_t>(-age);
        if (age < 255)
            ++ring_[last_[p] & 255];
        else
            ++saturated_;
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

    SDFM_INVARIANT(last_.size() == num_pages_ &&
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
    const std::uint32_t regions = num_summary_regions();
    SDFM_INVARIANT(region_oldest_.size() == regions &&
                       region_newest_.size() == regions &&
                       stale_regions_.size() == (regions + 63) / 64,
                   "region summaries cover the address space");

    // The clamp sweep runs whenever the epoch crosses a multiple of
    // kClampPeriod, and restores and resizes start at epoch 0, so no
    // page can have idled more than 255 scans past the last sweep.
    const std::uint32_t wrap_bound = 255 + epoch_ % kClampPeriod;
    std::array<std::uint64_t, kAgeBuckets> ages{};
    for (std::uint32_t r = 0; r < regions; ++r) {
        PageId first = r * kPageRegionPages;
        PageId end = first + kPageRegionPages < num_pages_
                         ? first + kPageRegionPages
                         : num_pages_;
        std::uint16_t oldest = distance(region_oldest_[r]);
        std::uint16_t newest = distance(region_newest_[r]);
        std::uint16_t max_d = 0;
        std::uint16_t min_d = 0xffff;
        for (PageId p = first; p < end; ++p) {
            std::uint16_t d = distance(last_[p]);
            SDFM_INVARIANT(d <= wrap_bound,
                           "every page epoch lies within the wrap bound");
            SDFM_INVARIANT(newest <= d && d <= oldest,
                           "region epoch bounds contain every page epoch");
            SDFM_INVARIANT(region_min_age(r) <= age(p) &&
                               age(p) <= region_max_age(r),
                           "every page age lies inside its region summary");
            max_d = d > max_d ? d : max_d;
            min_d = d < min_d ? d : min_d;
            ++ages[age(p)];
        }
        bool stale = (stale_regions_[r >> 6] >> (r & 63)) & 1;
        SDFM_INVARIANT(stale || (oldest == max_d && newest == min_d),
                       "unmarked region epoch bounds are exact");
    }
    SDFM_INVARIANT(ring_[(epoch_ + 1) & 255] == 0,
                   "the just-saturated ring slot is empty");
    for (std::uint32_t a = 0; a < 255; ++a) {
        SDFM_INVARIANT(ring_[(epoch_ - a) & 255] == ages[a],
                       "the epoch ring counts every derived age");
    }
    SDFM_INVARIANT(saturated_ == ages[255],
                   "the saturated bucket counts every age-255 page");
}

}  // namespace sdfm

#include "mem/memcg.h"

#include <limits>

#include "mem/far_tier.h"
#include "mem/tier_stack.h"
#include "mem/zswap.h"
#include "util/digest.h"
#include "util/invariant.h"
#include "util/logging.h"

namespace sdfm {

namespace {

/** Bytes of one (u32 page, u64 handle) zswap record on the wire. */
constexpr std::size_t kHandleRecordBytes = 12;

}  // namespace

Memcg::Memcg(JobId id, std::uint32_t num_pages, std::uint64_t content_seed,
             const ContentMix &mix, SimTime start_time)
    : id_(id), content_seed_(content_seed), start_time_(start_time),
      pages_(num_pages), far_slot_(num_pages, 0)
{
    for (PageId p = 0; p < num_pages; ++p) {
        pages_.set_content(
            p,
            mix.pick(content_seed ^ (static_cast<std::uint64_t>(p) << 20)));
    }
    resident_pages_ = num_pages;
    region_huge_.assign((num_pages + kHugeRegionPages - 1) /
                            kHugeRegionPages,
                        false);
    // Before the first scan every page counts as just-accessed.
    cold_hist_.add(0, num_pages);
}

void
Memcg::map_huge_region(PageId first)
{
    SDFM_ASSERT(first % kHugeRegionPages == 0);
    SDFM_ASSERT(first + kHugeRegionPages <= num_pages());
    std::uint32_t region = region_of(first);
    SDFM_ASSERT(!region_huge_[region]);
    for (PageId p = first; p < first + kHugeRegionPages; ++p)
        SDFM_ASSERT(!pages_.in_far_memory(p));
    region_huge_[region] = true;
    ++huge_count_;
}

void
Memcg::split_huge_region(std::uint32_t region)
{
    SDFM_ASSERT(region < region_huge_.size());
    SDFM_ASSERT(region_huge_[region]);
    region_huge_[region] = false;
    SDFM_ASSERT(huge_count_ > 0);
    --huge_count_;
}

std::uint64_t
Memcg::content_seed_of(PageId p) const
{
    return page_content_seed(content_seed_, p, pages_.version(p));
}

bool
Memcg::touch_far(PageId p, bool is_write, TierStack &tiers)
{
    if (pages_.test(p, kPageInZswap)) {
        tiers.zswap().load(*this, p);
    } else {
        std::uint8_t index = tier_of(p);
        SDFM_ASSERT(index < tiers.size());
        tiers.tier(index).load(*this, p);
    }
    pages_.set(p, kPageAccessed);
    if (is_write) {
        pages_.set(p, kPageDirty);
        pages_.bump_version(p);  // contents changed; seed rotates
    }
    return true;
}

bool
Memcg::touch_far_zswap(PageId p, bool is_write, Zswap &zswap)
{
    SDFM_ASSERT(pages_.test(p, kPageInZswap));
    zswap.load(*this, p);
    pages_.set(p, kPageAccessed);
    if (is_write) {
        pages_.set(p, kPageDirty);
        pages_.bump_version(p);  // contents changed; seed rotates
    }
    return true;
}

void
Memcg::set_unevictable(PageId p, bool unevictable)
{
    SDFM_ASSERT(!pages_.test(p, kPageInZswap));
    if (unevictable)
        pages_.set(p, kPageUnevictable);
    else
        pages_.clear(p, kPageUnevictable);
}

void
Memcg::set_zswap_handle(PageId p, ZsHandle h)
{
    SDFM_ASSERT(h != 0);
    SDFM_ASSERT(!pages_.in_far_memory(p));
    far_slot_[p] = h;
}

std::vector<PageId>
Memcg::zswap_page_ids() const
{
    std::vector<PageId> ids;
    ids.reserve(zswap_pages_);
    pages_.for_each(kPageInZswap, [&](PageId p) { ids.push_back(p); });
    return ids;
}

void
Memcg::note_stored_in_zswap(PageId p)
{
    SDFM_ASSERT(!pages_.test(p, kPageInZswap));
    pages_.set(p, kPageInZswap);
    SDFM_ASSERT(resident_pages_ > 0);
    --resident_pages_;
    ++zswap_pages_;
}

void
Memcg::note_loaded_from_zswap(PageId p)
{
    SDFM_ASSERT(pages_.test(p, kPageInZswap));
    pages_.clear(p, kPageInZswap);
    far_slot_[p] = 0;
    SDFM_ASSERT(zswap_pages_ > 0);
    --zswap_pages_;
    ++resident_pages_;
}

void
Memcg::note_stored_in_tier(PageId p, std::uint8_t tier_index)
{
    SDFM_ASSERT(tier_index >= 1);
    SDFM_ASSERT(!pages_.in_far_memory(p));
    pages_.set(p, kPageInFarTier);
    SDFM_ASSERT(resident_pages_ > 0);
    --resident_pages_;
    ++tier_pages_;
    far_slot_[p] = tier_index;
}

void
Memcg::note_loaded_from_tier(PageId p)
{
    SDFM_ASSERT(pages_.test(p, kPageInFarTier));
    pages_.clear(p, kPageInFarTier);
    far_slot_[p] = 0;
    SDFM_ASSERT(tier_pages_ > 0);
    --tier_pages_;
    ++resident_pages_;
}

void
Memcg::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;

    pages_.check_invariants();
    SDFM_INVARIANT(far_slot_.size() == pages_.size(),
                   "the far slots cover the address space");
    std::uint64_t in_zswap = 0;
    std::uint64_t in_tier = 0;
    for (PageId p = 0; p < num_pages(); ++p) {
        const std::uint8_t flags = pages_.flags(p);
        if (flags & kPageInZswap) {
            ++in_zswap;
            SDFM_INVARIANT((flags & kPageInFarTier) == 0,
                           "a page lives in at most one far tier");
            SDFM_INVARIANT((flags & kPageUnevictable) == 0,
                           "unevictable pages never reach far memory");
            SDFM_INVARIANT((flags & kPageIncompressible) == 0,
                           "incompressible-marked pages are never "
                           "stored in zswap");
            SDFM_INVARIANT(far_slot_[p] != 0,
                           "every zswap-resident page has a handle");
        } else if (flags & kPageInFarTier) {
            ++in_tier;
            SDFM_INVARIANT((flags & kPageUnevictable) == 0,
                           "unevictable pages never reach far memory");
            SDFM_INVARIANT(far_slot_[p] >= 1 && far_slot_[p] <= 255,
                           "deep-tier residency is at index 1..255");
        } else {
            SDFM_INVARIANT(far_slot_[p] == 0,
                           "resident pages have an empty far slot");
        }
        if (region_huge_.size() > region_of(p) &&
            region_huge_[region_of(p)]) {
            SDFM_INVARIANT((flags & (kPageInZswap | kPageInFarTier)) == 0,
                           "huge-mapped pages stay resident until the "
                           "region is split");
        }
    }
    SDFM_INVARIANT(in_zswap == zswap_pages_,
                   "zswap residency counter matches page flags");
    SDFM_INVARIANT(in_tier == tier_pages_,
                   "deep-tier residency counter matches page flags");
    SDFM_INVARIANT(resident_pages_ + zswap_pages_ + tier_pages_ ==
                       num_pages(),
                   "every page is resident or in exactly one far tier");

    std::uint64_t huge = 0;
    for (bool h : region_huge_)
        huge += h ? 1 : 0;
    SDFM_INVARIANT(huge == huge_count_,
                   "huge-region counter matches the region bitmap");

    // The cold-age histogram always covers the whole address space:
    // the constructor seeds bucket 0 with every page and each kstaled
    // scan rebuilds it from all page ages.
    SDFM_INVARIANT(cold_hist_.total() == num_pages(),
                   "cold-age histogram covers every page");
}

std::uint64_t
Memcg::state_digest() const
{
    StateDigest d;
    d.mix(id_);
    d.mix(content_seed_);
    d.mix(static_cast<std::uint64_t>(start_time_));
    d.mix(resident_pages_);
    d.mix(zswap_pages_);
    d.mix(tier_pages_);
    d.mix(reclaim_threshold_);
    d.mix(static_cast<std::uint64_t>(zswap_enabled_) << 2 |
          static_cast<std::uint64_t>(best_effort_) << 1 |
          static_cast<std::uint64_t>(huge_count_ > 0));
    d.mix(soft_limit_pages_);
    d.mix(huge_count_);
    // Huge-region bitmap: *which* regions are huge drives split cost
    // and reclaim eligibility, not just the count mixed above.
    for (std::size_t r = 0; r < region_huge_.size(); ++r) {
        if (region_huge_[r])
            d.mix(static_cast<std::uint64_t>(r));
    }
    pages_.state_digest(d);
    // Deep-tier indices beyond 1, in page order (one-tier stacks mix
    // nothing here).
    pages_.for_each(kPageInFarTier, [&](PageId p) {
        if (far_slot_[p] > 1)
            d.mix(static_cast<std::uint64_t>(p) << 8 | far_slot_[p]);
    });
    for (std::size_t b = 0; b < kAgeBuckets; ++b) {
        d.mix(cold_hist_.at(static_cast<AgeBucket>(b)));
        d.mix(promo_hist_.at(static_cast<AgeBucket>(b)));
    }
    d.mix(stats_.zswap_stores);
    d.mix(stats_.zswap_rejects);
    d.mix(stats_.zswap_promotions);
    d.mix(stats_.compressed_bytes_stored);
    d.mix(stats_.far_refaults);
    d.mix(stats_.nvm_stores);
    d.mix(stats_.nvm_promotions);
    return d.value();
}

void
Memcg::ckpt_save(Serializer &s) const
{
    s.put_u64(id_);
    s.put_u64(content_seed_);
    s.put_i64(start_time_);
    // Wire bytes are identical to the historical inline loop: page
    // count, then per-page (age, flags, content, version) records.
    pages_.ckpt_save(s);

    s.put_u64(zswap_pages_);
    std::uint8_t *out = s.claim(kHandleRecordBytes * zswap_pages_);
    const std::uint8_t *end = out + kHandleRecordBytes * zswap_pages_;
    pages_.for_each(kPageInZswap, [&](PageId p) {
        SDFM_ASSERT(out != end);
        store_le(out, p);
        store_le(out + 4, std::uint64_t{far_slot_[p]});
        out += kHandleRecordBytes;
    });
    SDFM_ASSERT(out == end);

    s.put_age_histogram(cold_hist_);
    s.put_age_histogram(promo_hist_);
    s.put_u64(resident_pages_);
    s.put_u64(zswap_pages_);
    s.put_u64(tier_pages_);
    s.put_u8(reclaim_threshold_);
    s.put_bool(zswap_enabled_);
    s.put_bool(best_effort_);
    s.put_u64(soft_limit_pages_);
    s.put_u64(region_huge_.size());
    for (std::size_t r = 0; r < region_huge_.size(); ++r)
        s.put_bool(region_huge_[r]);

    // Deep-tier indices beyond 1, as (page, index) pairs in page
    // order; flagged pages absent from the list are at index 1.
    std::vector<PageId> deep;
    pages_.for_each(kPageInFarTier, [&](PageId p) {
        if (far_slot_[p] > 1)
            deep.push_back(p);
    });
    s.put_u64(deep.size());
    for (PageId p : deep) {
        s.put_u32(p);
        s.put_u8(static_cast<std::uint8_t>(far_slot_[p]));
    }

    ckpt_save_memcg_stats(s, stats_);
}

void
ckpt_save_memcg_stats(Serializer &s, const MemcgStats &stats)
{
    s.put_u64(stats.zswap_stores);
    s.put_u64(stats.zswap_rejects);
    s.put_u64(stats.zswap_promotions);
    s.put_double(stats.compress_cycles);
    s.put_double(stats.decompress_cycles);
    s.put_double(stats.app_cycles);
    s.put_u64(stats.compressed_bytes_stored);
    s.put_double(stats.decompress_latency_us_sum);
    s.put_double(stats.direct_stall_cycles);
    s.put_u64(stats.far_refaults);
    s.put_double(stats.refault_stall_cycles);
    s.put_u64(stats.nvm_stores);
    s.put_u64(stats.nvm_promotions);
    s.put_double(stats.nvm_read_latency_us_sum);
    s.put_double(stats.nvm_stall_cycles);
}

bool
ckpt_load_memcg_stats(Deserializer &d, MemcgStats &stats)
{
    stats.zswap_stores = d.get_u64();
    stats.zswap_rejects = d.get_u64();
    stats.zswap_promotions = d.get_u64();
    stats.compress_cycles = d.get_double();
    stats.decompress_cycles = d.get_double();
    stats.app_cycles = d.get_double();
    stats.compressed_bytes_stored = d.get_u64();
    stats.decompress_latency_us_sum = d.get_double();
    stats.direct_stall_cycles = d.get_double();
    stats.far_refaults = d.get_u64();
    stats.refault_stall_cycles = d.get_double();
    stats.nvm_stores = d.get_u64();
    stats.nvm_promotions = d.get_u64();
    stats.nvm_read_latency_us_sum = d.get_double();
    stats.nvm_stall_cycles = d.get_double();
    return d.ok();
}

bool
Memcg::ckpt_load(Deserializer &d)
{
    id_ = d.get_u64();
    content_seed_ = d.get_u64();
    start_time_ = d.get_i64();
    std::uint64_t flagged_zswap = 0;
    std::uint64_t flagged_tier = 0;
    if (!pages_.ckpt_load(d, flagged_zswap, flagged_tier))
        return false;
    std::size_t num = pages_.size();

    far_slot_.assign(num, 0);
    std::size_t num_handles = d.get_size(num, kHandleRecordBytes);
    if (!d.ok() || num_handles != flagged_zswap)
        return false;
    const std::uint8_t *in = d.consume(kHandleRecordBytes * num_handles);
    PageId prev_page = 0;
    for (std::size_t i = 0; i < num_handles; ++i, in += kHandleRecordBytes) {
        PageId p = load_le<std::uint32_t>(in);
        std::uint64_t h = load_le<std::uint64_t>(in + 4);
        if (h == 0 || h > std::numeric_limits<ZsHandle>::max() ||
            p >= num || (i > 0 && p <= prev_page)) {
            return false;
        }
        if (!pages_.test(p, kPageInZswap))
            return false;
        prev_page = p;
        far_slot_[p] = static_cast<ZsHandle>(h);
    }

    d.get_age_histogram(cold_hist_);
    d.get_age_histogram(promo_hist_);
    resident_pages_ = d.get_u64();
    zswap_pages_ = d.get_u64();
    tier_pages_ = d.get_u64();
    reclaim_threshold_ = d.get_u8();
    zswap_enabled_ = d.get_bool();
    best_effort_ = d.get_bool();
    soft_limit_pages_ = d.get_u64();
    std::size_t num_regions =
        (num + kHugeRegionPages - 1) / kHugeRegionPages;
    std::size_t regions = d.get_size(num_regions);
    if (!d.ok() || regions != num_regions)
        return false;
    region_huge_.assign(regions, false);
    huge_count_ = 0;
    for (std::size_t r = 0; r < regions; ++r) {
        region_huge_[r] = d.get_bool();
        if (region_huge_[r])
            ++huge_count_;
    }

    // Deep-tier indices: listed pages at index >= 2, every other
    // flagged page at index 1.
    pages_.for_each(kPageInFarTier, [&](PageId p) { far_slot_[p] = 1; });
    std::size_t num_deep = d.get_size(flagged_tier, 5);
    if (!d.ok())
        return false;
    PageId prev_deep = 0;
    for (std::size_t i = 0; i < num_deep; ++i) {
        PageId p = d.get_u32();
        std::uint8_t index = d.get_u8();
        if (!d.ok() || p >= num || index < 2 ||
            (i > 0 && p <= prev_deep)) {
            return false;
        }
        if (!pages_.test(p, kPageInFarTier))
            return false;
        far_slot_[p] = index;
        prev_deep = p;
    }

    if (!ckpt_load_memcg_stats(d, stats_))
        return false;

    // Residency counters must reconcile with the restored page flags
    // (the handle list already covers exactly the zswap-flagged pages).
    if (zswap_pages_ != flagged_zswap || tier_pages_ != flagged_tier ||
        resident_pages_ + zswap_pages_ + tier_pages_ != num) {
        return false;
    }
    return true;
}

std::vector<PageId>
Memcg::tier_page_ids(std::uint8_t tier_index) const
{
    std::vector<PageId> ids;
    pages_.for_each(kPageInFarTier, [&](PageId p) {
        if (far_slot_[p] == tier_index)
            ids.push_back(p);
    });
    return ids;
}

bool
Memcg::add_tier_page_counts(std::vector<std::uint64_t> &counts) const
{
    bool in_range = true;
    pages_.for_each(kPageInFarTier, [&](PageId p) {
        if (far_slot_[p] < counts.size())
            counts[far_slot_[p]] += 1;
        else
            in_range = false;
    });
    return in_range;
}

}  // namespace sdfm

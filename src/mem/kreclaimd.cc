#include "mem/kreclaimd.h"

#include <algorithm>
#include <bit>
#include <vector>

namespace sdfm {

namespace {

/** Flags that disqualify a page from demotion to any tier. */
constexpr std::uint8_t kNotDemotable =
    kPageInZswap | kPageInFarTier | kPageUnevictable | kPageAccessed;

}  // namespace

Kreclaimd::Kreclaimd(const KreclaimdParams &params) : params_(params)
{
}

void
KreclaimdStats::ckpt_save(Serializer &s) const
{
    s.put_u64(passes);
    s.put_u64(direct_passes);
    s.put_u64(pages_walked);
    s.put_u64(pages_stored);
    s.put_u64(pages_to_tier);
    s.put_u64(pages_rejected);
    s.put_u64(huge_splits);
    pass_cycles.ckpt_save(s);
}

bool
KreclaimdStats::ckpt_load(Deserializer &d)
{
    passes = d.get_u64();
    direct_passes = d.get_u64();
    pages_walked = d.get_u64();
    pages_stored = d.get_u64();
    pages_to_tier = d.get_u64();
    pages_rejected = d.get_u64();
    huge_splits = d.get_u64();
    return pass_cycles.ckpt_load(d);
}

ReclaimResult
Kreclaimd::reclaim_cold(Memcg &cg, DemotionPlan &plan) const
{
    ReclaimResult result;
    AgeBucket threshold = cg.reclaim_threshold();
    if (!cg.zswap_enabled() || threshold == 0 || plan.empty())
        return result;
    result.walked = true;

    // Cold huge regions must be split before their pages can go to
    // far memory (one PTE cannot be partially swapped). All 512 pages
    // share the region age, so the check is cheap.
    std::uint32_t num_regions =
        cg.has_huge_regions() ? cg.num_regions() : 0;
    for (std::uint32_t region = 0; region < num_regions; ++region) {
        if (!cg.region_is_huge(region))
            continue;
        PageId first = region * kHugeRegionPages;
        if (cg.page_age(first) >= threshold &&
            !cg.page_test(first, kPageAccessed)) {
            cg.split_huge_region(region);
            ++result.huge_splits;
            result.walk_cycles += params_.split_cycles;
        }
    }

    // Resolve the plan's threshold-relative bands against this job's
    // live threshold T: [band_lo * T, band_hi * T), truncated to age
    // buckets and saturated at the 8-bit age ceiling. The scratch
    // vector lives in the plan so repeated per-job passes do not
    // allocate.
    TierStack &stack = *plan.stack;
    SDFM_ASSERT(stack.size() <= 32);  // attempted-tier bitmask width
    plan.resolved.clear();
    double t = static_cast<double>(threshold);
    for (const DemotionRoute &route : plan.routes) {
        DemotionPlan::ResolvedRoute rr;
        rr.tier_index = route.tier_index;
        double lo = t * route.band_lo;
        AgeBucket lo_bucket =
            lo > 255.0 ? 255 : static_cast<AgeBucket>(lo);
        rr.lo = std::max(lo_bucket, threshold);
        rr.bounded = route.band_hi != 0.0;
        rr.hi = 0;
        if (rr.bounded) {
            double hi = t * route.band_hi;
            rr.hi = hi > 255.0 ? 255 : static_cast<AgeBucket>(hi);
        }
        plan.resolved.push_back(rr);
    }

    // When every route's tier rejects incompressible pages, a page
    // carrying the mark cannot be stored anywhere and its attempt has
    // no side effects -- skip such pages up front. In a mostly-cold
    // steady state these otherwise dominate the walk: every rejected
    // page stays resident above threshold and would be re-examined on
    // every pass.
    bool all_reject_incompressible = true;
    for (const DemotionPlan::ResolvedRoute &rr : plan.resolved) {
        if (!stack.tier(rr.tier_index).rejects_incompressible())
            all_reject_incompressible = false;
    }

    // First matching route wins (deepest tier first). A tier that is
    // full falls through to the next route; a tier that rejects for
    // content (zswap) ends the page's pass, since the page is now
    // marked incompressible.
    auto attempt_routes = [&](PageId p, std::uint8_t page_age) {
        std::uint32_t attempted = 0;
        for (const DemotionPlan::ResolvedRoute &rr : plan.resolved) {
            if (page_age < rr.lo || (rr.bounded && page_age >= rr.hi))
                continue;
            std::uint32_t bit = 1u << rr.tier_index;
            if ((attempted & bit) != 0)
                continue;
            if (plan.budgets[rr.tier_index] == 0)
                continue;
            FarTier &tier = stack.tier(rr.tier_index);
            if (tier.rejects_incompressible() &&
                cg.page_test(p, kPageIncompressible)) {
                continue;  // it would reject the page again
            }
            attempted |= bit;
            if (tier.store(cg, p)) {
                ++result.pages_stored;
                ++plan.stored[rr.tier_index];
                if (rr.tier_index != 0) {
                    ++result.pages_to_tier;
                    if (plan.budgets[rr.tier_index] != kUnlimitedBudget)
                        --plan.budgets[rr.tier_index];
                }
                break;
            }
            if (tier.rejects_incompressible()) {
                ++result.pages_rejected;
                break;  // marked incompressible; retry after a write
            }
        }
    };

    // Hierarchical walk: a region whose (conservative) max age is
    // below the threshold cannot hold a demotable page -- skip it
    // after accounting its walk. Within a live region, candidate
    // pages come from one bitset word op: demotable means none of the
    // disqualifying flags, so candidates are the zero bits of their
    // union. Store side effects only touch the current page's bits,
    // so a word's candidate mask stays valid while its later bits are
    // processed. A candidate is old enough when its last-access epoch
    // lies at least T scans behind the table's epoch.
    const std::uint32_t n = cg.num_pages();
    const bool has_huge = cg.has_huge_regions();
    PageTable &pt = cg.pages();
    const std::uint16_t *last = pt.epoch_data();
    const std::uint16_t epoch = pt.epoch();
    const std::uint64_t *zswap_w = pt.in_zswap_words();
    const std::uint64_t *far_w = pt.in_far_words();
    const std::uint64_t *unev_w = pt.unevictable_words();
    const std::uint64_t *acc_w = pt.accessed_words();
    const std::uint64_t *incompr_w =
        all_reject_incompressible ? pt.incompressible_words() : nullptr;
    const std::uint32_t regions = pt.num_summary_regions();
    for (std::uint32_t r = 0; r < regions; ++r) {
        if (has_huge && cg.region_is_huge(r))
            continue;  // not demotable until split
        const PageId first = r * kPageRegionPages;
        const PageId end =
            first + kPageRegionPages < n ? first + kPageRegionPages : n;
        result.pages_walked += end - first;
        if (pt.region_max_age(r) < threshold)
            continue;  // no page in the region is old enough
        const std::size_t w0 = PageTable::word_of(first);
        const std::size_t w1 = (static_cast<std::size_t>(end) + 63) / 64;
        for (std::size_t w = w0; w < w1; ++w) {
            std::uint64_t skip =
                zswap_w[w] | far_w[w] | unev_w[w] | acc_w[w];
            if (incompr_w != nullptr)
                skip |= incompr_w[w];
            std::uint64_t cand = ~skip & pt.live_mask(w);
            while (cand != 0) {
                int b = std::countr_zero(cand);
                cand &= cand - 1;
                PageId p = static_cast<PageId>(w * 64) +
                           static_cast<PageId>(b);
                auto idle = static_cast<std::uint16_t>(epoch - last[p]);
                if (idle < threshold)
                    continue;
                attempt_routes(p, PageTable::age_at(idle));
            }
        }
    }
    result.walk_cycles +=
        params_.cycles_per_page * static_cast<double>(result.pages_walked);
    return result;
}

ReclaimResult
Kreclaimd::reclaim_cold(Memcg &cg, Zswap &zswap) const
{
    TierStack stack;
    TierSpec base;
    base.label = "zswap";
    stack.set_base(base, &zswap);
    DemotionPlan plan;
    BandRoutingPolicy().plan(stack, plan);
    return reclaim_cold(cg, plan);
}

ReclaimResult
Kreclaimd::direct_reclaim(Memcg &cg, Zswap &zswap,
                          std::uint64_t target_pages) const
{
    ReclaimResult result;
    if (target_pages == 0)
        return result;
    result.walked = true;

    // Collect eligible pages, oldest first (the LRU tail).
    std::uint32_t n = cg.num_pages();
    const bool has_huge = cg.has_huge_regions();
    const PageTable &pt = cg.pages();
    std::vector<PageId> order;
    order.reserve(n);
    for (PageId p = 0; p < n; ++p) {
        ++result.pages_walked;
        if (has_huge && cg.region_is_huge(Memcg::region_of(p)))
            continue;  // direct reclaim does not split huge mappings
        if ((pt.flags(p) & (kNotDemotable | kPageIncompressible)) == 0)
            order.push_back(p);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](PageId a, PageId b) {
                         return pt.age(a) > pt.age(b);
                     });

    for (PageId p : order) {
        if (result.pages_stored >= target_pages)
            break;
        if (cg.resident_pages() <= cg.soft_limit_pages())
            break;  // never reclaim below the protected working set
        if (zswap.store(cg, p))
            ++result.pages_stored;
        else
            ++result.pages_rejected;
    }
    result.walk_cycles =
        params_.cycles_per_page * static_cast<double>(result.pages_walked);
    return result;
}

}  // namespace sdfm

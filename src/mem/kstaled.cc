#include "mem/kstaled.h"

#include <array>
#include <bit>

#include "util/invariant.h"

namespace sdfm {

Kstaled::Kstaled(const KstaledParams &params) : params_(params)
{
}

void
KstaledStats::ckpt_save(Serializer &s) const
{
    s.put_u64(scans);
    s.put_u64(pages_scanned);
    s.put_u64(pages_accessed);
    scan_cycles.ckpt_save(s);
}

bool
KstaledStats::ckpt_load(Deserializer &d)
{
    scans = d.get_u64();
    pages_scanned = d.get_u64();
    pages_accessed = d.get_u64();
    return scan_cycles.ckpt_load(d);
}

ScanResult
Kstaled::scan(Memcg &cg, std::uint32_t phase) const
{
    ScanResult result;
    std::uint32_t stride = params_.scan_stride == 0 ? 1
                                                    : params_.scan_stride;
    if (stride == 1)
        scan_soa(cg, result);
    else
        scan_reference(cg, stride, phase, result);

    SDFM_INVARIANT(result.accessed_pages <= result.pages_scanned,
                   "accessed pages are a subset of scanned pages");
    // Ages are 8-bit and saturate at 255, so the rebuilt cold-age
    // histogram must cover the whole address space, no page escaping
    // past the last bucket.
    SDFM_INVARIANT(cg.cold_hist().total() == cg.num_pages(),
                   "post-scan cold-age histogram covers every page");
    result.cpu_cycles =
        params_.cycles_per_page * static_cast<double>(result.pages_scanned);
    return result;
}

void
Kstaled::scan_soa(Memcg &cg, ScanResult &result) const
{
    PageTable &pt = cg.pages();
    std::uint64_t *acc = pt.accessed_words();
    std::uint64_t *dirty = pt.dirty_words();
    std::uint64_t *incompr = pt.incompressible_words();

    // Every page ages by one; only the accessed ones are written.
    // Promotion counts are accumulated locally and folded into the
    // histogram once per scan.
    pt.advance_epoch();
    std::array<std::uint64_t, kAgeBuckets> promo_counts{};
    result.pages_scanned += pt.size();

    if (cg.has_huge_regions()) {
        for (std::uint32_t r = 0; r < cg.num_regions(); ++r) {
            if (!cg.region_is_huge(r))
                continue;
            // One PTE covers the whole region: one scanned page, one
            // accessed bit, and every page shares the region's fate.
            // Its accessed words are cleared here, so the word loop
            // below never sees them.
            const PageId first = r * kHugeRegionPages;
            const std::size_t w0 = PageTable::word_of(first);
            const std::size_t w1 = w0 + kHugeRegionPages / 64;
            result.pages_scanned -= kHugeRegionPages - 1;
            std::uint64_t acc_or = 0;
            std::uint64_t dirty_or = 0;
            for (std::size_t w = w0; w < w1; ++w) {
                acc_or |= acc[w];
                dirty_or |= dirty[w];
                acc[w] = 0;
            }
            if (acc_or != 0) {
                ++result.accessed_pages;
                for (PageId p = first; p < first + kHugeRegionPages; ++p)
                    ++promo_counts[pt.stamp(p)];
            }
            if (dirty_or != 0) {
                for (std::size_t w = w0; w < w1; ++w) {
                    incompr[w] = 0;
                    dirty[w] = 0;
                }
            }
        }
    }

    // One load per 64 pages; only set bits are visited. A dirty PTE
    // on an accessed page retires any stale incompressible verdict;
    // both bits drop together.
    const std::size_t words = pt.num_words();
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t aw = acc[w];
        if (aw == 0)
            continue;
        result.accessed_pages +=
            static_cast<std::uint64_t>(std::popcount(aw));
        const std::uint64_t cleared = aw & dirty[w];
        dirty[w] &= ~aw;
        incompr[w] &= ~cleared;
        acc[w] = 0;
        const auto base = static_cast<PageId>(w * 64);
        for (; aw != 0; aw &= aw - 1) {
            PageId p = base + static_cast<PageId>(std::countr_zero(aw));
            ++promo_counts[pt.stamp(p)];
        }
    }

    pt.finish_scan(cg.mutable_cold_hist());
    AgeHistogram &promo = cg.mutable_promo_hist();
    for (std::size_t b = 0; b < kAgeBuckets; ++b) {
        if (promo_counts[b] != 0)
            promo.add(static_cast<AgeBucket>(b), promo_counts[b]);
    }
}

void
Kstaled::scan_reference(Memcg &cg, std::uint32_t stride,
                        std::uint32_t phase, ScanResult &result) const
{
    PageTable &pt = cg.pages();
    AgeHistogram &promo = cg.mutable_promo_hist();
    AgeHistogram &cold = cg.mutable_cold_hist();
    cold.clear();
    std::uint32_t n = cg.num_pages();

    // Huge-mapped regions have one PTE: a single accessed bit covers
    // 512 pages. Reading it costs one PTE visit; all the region's
    // pages share its fate (reset together or age together) -- the
    // resolution loss that makes huge pages hard for cold detection.
    // Most jobs have no huge mappings, so the region lookups are
    // skipped wholesale in that case. The region is resolved in one
    // pass: test, age update, and both histograms together.
    const bool has_huge = cg.has_huge_regions();
    std::uint32_t num_regions = has_huge ? cg.num_regions() : 0;
    for (std::uint32_t region = 0; region < num_regions; ++region) {
        if (!cg.region_is_huge(region))
            continue;
        PageId first = region * kHugeRegionPages;
        PageId end = first + kHugeRegionPages;
        bool accessed = false;
        bool dirty = false;
        for (PageId p = first; p < end; ++p) {
            accessed |= pt.test(p, kPageAccessed);
            dirty |= pt.test(p, kPageDirty);
        }
        ++result.pages_scanned;  // one PTE walk for the whole region
        if (accessed)
            ++result.accessed_pages;
        for (PageId p = first; p < end; ++p) {
            std::uint8_t a = pt.age(p);
            if (accessed) {
                promo.add(a);
                a = 0;
                pt.set_age(p, a);
            } else if (a < 255) {
                ++a;
                pt.set_age(p, a);
            }
            cold.add(a);
            pt.clear(p, kPageAccessed);
            if (dirty) {
                pt.clear(p, kPageIncompressible);
                pt.clear(p, kPageDirty);
            }
        }
    }

    for (PageId p = 0; p < n; ++p) {
        if (has_huge && cg.region_is_huge(Memcg::region_of(p)))
            continue;  // handled above
        if (p % stride == phase % stride) {
            // This stripe's PTE walk: the expensive part kstaled pays
            // cycles for. The accessed bit is sticky between visits,
            // so striping coarsens recency rather than losing it.
            ++result.pages_scanned;
            if (pt.test(p, kPageAccessed)) {
                ++result.accessed_pages;
                // The age the page had reached when it was
                // re-accessed: a would-be promotion under any
                // threshold <= that age.
                promo.add(pt.age(p));
                pt.set_age(p, 0);
                pt.clear(p, kPageAccessed);
                if (pt.test(p, kPageDirty)) {
                    // Contents changed: a stale incompressible
                    // verdict no longer applies.
                    pt.clear(p, kPageIncompressible);
                    pt.clear(p, kPageDirty);
                }
            } else {
                // A visit covers `stride` scan periods of idleness.
                std::uint32_t aged = pt.age(p) + stride;
                pt.set_age(p, aged > 255
                                  ? std::uint8_t{255}
                                  : static_cast<std::uint8_t>(aged));
            }
        }
        cold.add(pt.age(p));
    }

    // Point writes through set_age() only widen region summaries;
    // re-tighten them so the reclaim fast path keeps its skips.
    pt.rebuild_region_summaries();
}

}  // namespace sdfm

#include "mem/kstaled.h"

#include <array>
#include <bit>
#include <cstring>

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
    const std::uint32_t n = pt.size();
    const bool has_huge = cg.has_huge_regions();
    std::uint8_t *age = pt.age_data();
    std::uint64_t *acc = pt.accessed_words();
    std::uint64_t *dirty = pt.dirty_words();
    std::uint64_t *incompr = pt.incompressible_words();

    // Bucket counts are accumulated locally (one inlined increment
    // per page) and folded into the histograms once per scan, rather
    // than calling AgeHistogram::add per page.
    std::array<std::uint64_t, kAgeBuckets> cold_counts{};
    std::array<std::uint64_t, kAgeBuckets> promo_counts{};

    // Age an idle (no accessed bit) run of pages. The demoted
    // majority of a mostly-cold fleet sits saturated at 255, where
    // aging writes nothing -- detect such pages eight at a time with
    // one wide load and count them in bulk. @p from is 8-aligned at
    // every call site (regions and words are multiples of 8 pages);
    // only the table's tail can produce a short run.
    auto age_idle_run = [&](PageId from, PageId to, std::uint8_t &mn,
                            std::uint8_t &mx) {
        PageId p = from;
        for (; p + 8 <= to; p += 8) {
            std::uint64_t a8;
            std::memcpy(&a8, age + p, 8);
            if (a8 == ~std::uint64_t{0}) {
                cold_counts[255] += 8;
                mx = 255;
                continue;
            }
            for (PageId q = p; q < p + 8; ++q) {
                std::uint8_t a = age[q];
                if (a < 255)
                    age[q] = ++a;
                ++cold_counts[a];
                if (a < mn)
                    mn = a;
                if (a > mx)
                    mx = a;
            }
        }
        for (; p < to; ++p) {
            std::uint8_t a = age[p];
            if (a < 255)
                age[p] = ++a;
            ++cold_counts[a];
            if (a < mn)
                mn = a;
            if (a > mx)
                mx = a;
        }
    };

    const std::uint32_t regions = pt.num_summary_regions();
    for (std::uint32_t r = 0; r < regions; ++r) {
        const PageId first = r * kPageRegionPages;
        const PageId end = first + kPageRegionPages < n
                               ? first + kPageRegionPages
                               : n;
        const std::size_t w0 = PageTable::word_of(first);
        const std::size_t w1 = (static_cast<std::size_t>(end) + 63) / 64;
        std::uint64_t acc_or = 0;
        for (std::size_t w = w0; w < w1; ++w)
            acc_or |= acc[w];

        if (has_huge && cg.region_is_huge(r)) {
            // One PTE covers the whole region: one scanned page, one
            // accessed bit, and every page shares the region's fate.
            ++result.pages_scanned;
            std::uint64_t dirty_or = 0;
            for (std::size_t w = w0; w < w1; ++w)
                dirty_or |= dirty[w];
            std::uint8_t mn;
            std::uint8_t mx;
            if (acc_or != 0) {
                ++result.accessed_pages;
                for (PageId p = first; p < end; ++p)
                    ++promo_counts[age[p]];
                std::memset(age + first, 0, end - first);
                cold_counts[0] += end - first;
                mn = 0;
                mx = 0;
            } else {
                mn = 255;
                mx = 0;
                for (PageId p = first; p < end; ++p) {
                    std::uint8_t a = age[p];
                    if (a < 255)
                        age[p] = ++a;
                    ++cold_counts[a];
                    if (a < mn)
                        mn = a;
                    if (a > mx)
                        mx = a;
                }
            }
            for (std::size_t w = w0; w < w1; ++w)
                acc[w] = 0;
            if (dirty_or != 0) {
                for (std::size_t w = w0; w < w1; ++w) {
                    incompr[w] = 0;
                    dirty[w] = 0;
                }
            }
            pt.set_region_summary(r, mn, mx);
            continue;
        }

        const std::uint32_t count = end - first;
        result.pages_scanned += count;

        if (acc_or == 0) {
            // Wholly idle region: every page just ages. When the
            // region is already saturated at 255 there is nothing to
            // write at all -- one bulk histogram count covers it.
            if (pt.region_min_age(r) == 255) {
                cold_counts[255] += count;
                continue;
            }
            std::uint8_t mn = 255;
            std::uint8_t mx = 0;
            age_idle_run(first, end, mn, mx);
            pt.set_region_summary(r, mn, mx);
            continue;
        }

        // Mixed region: word-at-a-time. Idle words take the aging
        // loop; words with accessed pages additionally clear flags
        // (dirty-and-accessed drops the incompressible verdict) and
        // split promotions from aging per bit.
        std::uint8_t mn = 255;
        std::uint8_t mx = 0;
        for (std::size_t w = w0; w < w1; ++w) {
            const PageId base = static_cast<PageId>(w * 64);
            const PageId wend = base + 64 < end ? base + 64 : end;
            const std::uint64_t aw = acc[w];
            if (aw == 0) {
                age_idle_run(base, wend, mn, mx);
                continue;
            }
            result.accessed_pages +=
                static_cast<std::uint64_t>(std::popcount(aw));
            // A dirty PTE on an accessed page retires any stale
            // incompressible verdict; both bits drop together.
            const std::uint64_t cleared = aw & dirty[w];
            dirty[w] &= ~aw;
            incompr[w] &= ~cleared;
            acc[w] = 0;
            for (PageId p = base; p < wend; ++p) {
                std::uint8_t a = age[p];
                if (aw & PageTable::bit_of(p)) {
                    ++promo_counts[a];
                    a = 0;
                } else if (a < 255) {
                    ++a;
                }
                age[p] = a;
                ++cold_counts[a];
                if (a < mn)
                    mn = a;
                if (a > mx)
                    mx = a;
            }
        }
        pt.set_region_summary(r, mn, mx);
    }

    AgeHistogram &cold = cg.mutable_cold_hist();
    AgeHistogram &promo = cg.mutable_promo_hist();
    cold.clear();
    for (std::size_t b = 0; b < kAgeBuckets; ++b) {
        if (cold_counts[b] != 0)
            cold.add(static_cast<AgeBucket>(b), cold_counts[b]);
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

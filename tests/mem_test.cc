/**
 * @file
 * Tests for the kernel substrate: memcg page-state transitions,
 * kstaled aging and histogram semantics (including the paper's
 * Section 4.3 worked example), kreclaimd eligibility and thresholds,
 * the zswap store/load/drop paths, and per-page oracles for the
 * word-level kstaled and kreclaimd walks.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "compression/compressor.h"
#include "mem/kreclaimd.h"
#include "mem/kstaled.h"
#include "mem/memcg.h"
#include "mem/tier_stack.h"
#include "mem/zswap.h"
#include "util/digest.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sdfm {
namespace {

/** Everything-compressible mix for deterministic reclaim tests. */
ContentMix
compressible_mix()
{
    return ContentMix(0.0, 0.0, 1.0, 0.0, 0.0);
}

ContentMix
incompressible_mix()
{
    return ContentMix(0.0, 0.0, 0.0, 0.0, 1.0);
}

struct Rig
{
    explicit Rig(std::uint32_t pages,
                 ContentMix mix = compressible_mix(),
                 CompressionMode mode = CompressionMode::kModeled)
        : compressor(make_compressor(mode)),
          zswap(compressor.get(), 1),
          cg(1, pages, 42, mix, 0)
    {
    }

    std::unique_ptr<Compressor> compressor;
    Zswap zswap;
    Memcg cg;
    Kstaled kstaled;
    Kreclaimd kreclaimd;
};

// --------------------------------------------------------------- memcg

TEST(MemcgTest, InitialState)
{
    Rig rig(100);
    EXPECT_EQ(rig.cg.resident_pages(), 100u);
    EXPECT_EQ(rig.cg.zswap_pages(), 0u);
    // Before the first scan, all pages count as working set.
    EXPECT_EQ(rig.cg.wss_pages(), 100u);
    EXPECT_EQ(rig.cg.cold_pages_min_threshold(), 0u);
}

TEST(MemcgTest, TouchSetsAccessedBit)
{
    Rig rig(10);
    rig.cg.touch(3, /*is_write=*/false, rig.zswap);
    EXPECT_TRUE(rig.cg.page_test(3, kPageAccessed));
    EXPECT_FALSE(rig.cg.page_test(3, kPageDirty));
}

TEST(MemcgTest, WriteSetsDirtyAndRotatesVersion)
{
    Rig rig(10);
    std::uint64_t seed_before = rig.cg.content_seed_of(3);
    rig.cg.touch(3, /*is_write=*/true, rig.zswap);
    EXPECT_TRUE(rig.cg.page_test(3, kPageDirty));
    EXPECT_NE(rig.cg.content_seed_of(3), seed_before);
}

TEST(MemcgTest, UnevictableFlag)
{
    Rig rig(10);
    rig.cg.set_unevictable(5, true);
    EXPECT_TRUE(rig.cg.page_test(5, kPageUnevictable));
    rig.cg.set_unevictable(5, false);
    EXPECT_FALSE(rig.cg.page_test(5, kPageUnevictable));
}

// ------------------------------------------------------------- kstaled

TEST(KstaledTest, UntouchedPagesAge)
{
    Rig rig(50);
    ScanResult scan = rig.kstaled.scan(rig.cg);
    EXPECT_EQ(scan.pages_scanned, 50u);
    EXPECT_EQ(scan.accessed_pages, 0u);
    for (PageId p = 0; p < 50; ++p)
        EXPECT_EQ(rig.cg.page_age(p), 1);
    EXPECT_EQ(rig.cg.cold_pages_min_threshold(), 50u);
    EXPECT_EQ(rig.cg.wss_pages(), 0u);
}

TEST(KstaledTest, AccessedPageResetsToZero)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);  // everyone at age 1
    rig.cg.touch(4, false, rig.zswap);
    ScanResult scan = rig.kstaled.scan(rig.cg);
    EXPECT_EQ(scan.accessed_pages, 1u);
    EXPECT_EQ(rig.cg.page_age(4), 0);
    EXPECT_FALSE(rig.cg.page_test(4, kPageAccessed));
    EXPECT_EQ(rig.cg.page_age(5), 2);
}

TEST(KstaledTest, AgeSaturatesAt255)
{
    Rig rig(1);
    for (int i = 0; i < 300; ++i)
        rig.kstaled.scan(rig.cg);
    EXPECT_EQ(rig.cg.page_age(0), 255);
}

TEST(KstaledTest, PromotionHistogramRecordsPreScanAge)
{
    Rig rig(1);
    // Age the page to 5 scan periods, then touch it.
    for (int i = 0; i < 5; ++i)
        rig.kstaled.scan(rig.cg);
    EXPECT_EQ(rig.cg.page_age(0), 5);
    rig.cg.touch(0, false, rig.zswap);
    rig.kstaled.scan(rig.cg);
    EXPECT_EQ(rig.cg.promo_hist().at(5), 1u);
    EXPECT_EQ(rig.cg.promo_hist().total(), 1u);
}

/**
 * The paper's Section 4.3 example: pages A and B last accessed 5 and
 * 10 minutes ago, both re-accessed 1 minute ago. The promotion
 * histogram must report 1 promotion under T = 8 min and 2 under
 * T = 2 min.
 */
TEST(KstaledTest, PaperWorkedExample)
{
    Rig rig(2);
    const PageId a = 0, b = 1;
    // Construct the example's state directly: A idle 5 minutes
    // (age 2 scan periods of 120 s), B idle 10 minutes (age 5), then
    // both re-accessed one minute ago.
    rig.cg.set_page_age(a, age_to_bucket(5 * 60));
    rig.cg.set_page_age(b, age_to_bucket(10 * 60));
    rig.cg.touch(a, false, rig.zswap);
    rig.cg.touch(b, false, rig.zswap);
    rig.kstaled.scan(rig.cg);  // records the pre-access ages
    // Under T = 8 min only B would have been a promotion; under
    // T = 2 min both would (1 and 2 promotions/min respectively in
    // the paper's phrasing).
    const AgeHistogram &promo = rig.cg.promo_hist();
    EXPECT_EQ(promo.count_at_least(age_to_bucket(8 * 60)), 1u);
    EXPECT_EQ(promo.count_at_least(age_to_bucket(2 * 60)), 2u);
}

TEST(KstaledTest, DirtyClearsIncompressibleMark)
{
    Rig rig(1);
    rig.cg.page_set(0, kPageIncompressible);
    rig.cg.touch(0, /*is_write=*/true, rig.zswap);
    rig.kstaled.scan(rig.cg);
    EXPECT_FALSE(rig.cg.page_test(0, kPageIncompressible));
    EXPECT_FALSE(rig.cg.page_test(0, kPageDirty));
}

TEST(KstaledTest, ReadDoesNotClearIncompressible)
{
    Rig rig(1);
    rig.cg.page_set(0, kPageIncompressible);
    rig.cg.touch(0, /*is_write=*/false, rig.zswap);
    rig.kstaled.scan(rig.cg);
    EXPECT_TRUE(rig.cg.page_test(0, kPageIncompressible));
}

TEST(KstaledTest, ColdHistogramRebuilt)
{
    Rig rig(4);
    rig.kstaled.scan(rig.cg);
    rig.cg.touch(0, false, rig.zswap);
    rig.kstaled.scan(rig.cg);
    const AgeHistogram &cold = rig.cg.cold_hist();
    EXPECT_EQ(cold.at(0), 1u);  // the touched page
    EXPECT_EQ(cold.at(2), 3u);  // the others aged twice
    EXPECT_EQ(cold.total(), 4u);
}

TEST(KstaledTest, ScanCpuCost)
{
    KstaledParams params;
    params.cycles_per_page = 100.0;
    Kstaled kstaled(params);
    Rig rig(1000);
    ScanResult scan = kstaled.scan(rig.cg);
    EXPECT_DOUBLE_EQ(scan.cpu_cycles, 100000.0);
}

TEST(KstaledStride, VisitsOneStripePerScan)
{
    KstaledParams params;
    params.scan_stride = 4;
    Kstaled kstaled(params);
    Rig rig(16);
    ScanResult scan = kstaled.scan(rig.cg, /*phase=*/0);
    EXPECT_EQ(scan.pages_scanned, 4u);
    // Visited pages aged by the stride; others untouched.
    EXPECT_EQ(rig.cg.page_age(0), 4);
    EXPECT_EQ(rig.cg.page_age(1), 0);
    EXPECT_EQ(rig.cg.page_age(4), 4);
}

TEST(KstaledStride, FullCoverageAfterStrideScans)
{
    KstaledParams params;
    params.scan_stride = 4;
    Kstaled kstaled(params);
    Rig rig(17);
    for (std::uint32_t phase = 0; phase < 4; ++phase)
        kstaled.scan(rig.cg, phase);
    for (PageId p = 0; p < 17; ++p)
        EXPECT_EQ(rig.cg.page_age(p), 4) << p;
}

TEST(KstaledStride, StickyAccessedBitPreservesRecency)
{
    KstaledParams params;
    params.scan_stride = 4;
    Kstaled kstaled(params);
    Rig rig(8);
    // Touch page 1 now; its stripe (phase 1) is visited next scan.
    rig.cg.touch(1, false, rig.zswap);
    kstaled.scan(rig.cg, 0);  // page 1 not visited; bit stays
    EXPECT_TRUE(rig.cg.page_test(1, kPageAccessed));
    ScanResult scan = kstaled.scan(rig.cg, 1);
    EXPECT_EQ(scan.accessed_pages, 1u);
    EXPECT_EQ(rig.cg.page_age(1), 0);
    EXPECT_FALSE(rig.cg.page_test(1, kPageAccessed));
}

TEST(KstaledStride, CpuScalesDownWithStride)
{
    Rig rig(1000);
    KstaledParams fine;
    KstaledParams coarse;
    coarse.scan_stride = 8;
    double fine_cycles = Kstaled(fine).scan(rig.cg, 0).cpu_cycles;
    double coarse_cycles = Kstaled(coarse).scan(rig.cg, 1).cpu_cycles;
    EXPECT_NEAR(coarse_cycles, fine_cycles / 8.0, fine_cycles * 0.01);
}

// --------------------------------------------------------------- zswap

TEST(ZswapTest, StoreAndLoadRoundTrip)
{
    Rig rig(10);
    EXPECT_TRUE(rig.zswap.store(rig.cg, 0));
    EXPECT_TRUE(rig.cg.page_test(0, kPageInZswap));
    EXPECT_EQ(rig.cg.resident_pages(), 9u);
    EXPECT_EQ(rig.cg.zswap_pages(), 1u);
    EXPECT_GT(rig.zswap.pool_bytes(), 0u);

    rig.zswap.load(rig.cg, 0);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
    EXPECT_EQ(rig.cg.resident_pages(), 10u);
    EXPECT_EQ(rig.cg.stats().zswap_promotions, 1u);
    EXPECT_GT(rig.cg.stats().decompress_cycles, 0.0);
    EXPECT_GT(rig.cg.stats().decompress_latency_us_sum, 0.0);
}

TEST(ZswapTest, TouchPromotesStoredPage)
{
    Rig rig(10);
    rig.zswap.store(rig.cg, 3);
    bool promoted = rig.cg.touch(3, false, rig.zswap);
    EXPECT_TRUE(promoted);
    EXPECT_FALSE(rig.cg.page_test(3, kPageInZswap));
    EXPECT_TRUE(rig.cg.page_test(3, kPageAccessed));
}

TEST(ZswapTest, IncompressiblePageRejectedAndMarked)
{
    Rig rig(10, incompressible_mix());
    EXPECT_FALSE(rig.zswap.store(rig.cg, 0));
    EXPECT_TRUE(rig.cg.page_test(0, kPageIncompressible));
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
    EXPECT_EQ(rig.cg.resident_pages(), 10u);
    EXPECT_EQ(rig.cg.stats().zswap_rejects, 1u);
    // Cycles were burned on the failed attempt.
    EXPECT_GT(rig.cg.stats().compress_cycles, 0.0);
}

TEST(ZswapTest, DropDiscardsWithoutDecompression)
{
    Rig rig(10);
    rig.zswap.store(rig.cg, 1);
    double cycles_before = rig.cg.stats().decompress_cycles;
    rig.zswap.drop(rig.cg, 1);
    EXPECT_EQ(rig.cg.stats().decompress_cycles, cycles_before);
    EXPECT_EQ(rig.cg.stats().zswap_promotions, 0u);
    EXPECT_EQ(rig.cg.resident_pages(), 10u);
    EXPECT_EQ(rig.zswap.pool_bytes(), 0u);
}

TEST(ZswapTest, DropAllOnTeardown)
{
    Rig rig(20);
    for (PageId p = 0; p < 20; p += 2)
        rig.zswap.store(rig.cg, p);
    EXPECT_EQ(rig.cg.zswap_pages(), 10u);
    rig.zswap.drop_all(rig.cg);
    EXPECT_EQ(rig.cg.zswap_pages(), 0u);
    EXPECT_EQ(rig.zswap.stored_pages(), 0u);
}

TEST(ZswapTest, CompressedBytesTracked)
{
    Rig rig(10);
    rig.zswap.store(rig.cg, 0);
    std::uint64_t bytes = rig.cg.stats().compressed_bytes_stored;
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, kMaxZswapPayload);
    rig.zswap.load(rig.cg, 0);
    EXPECT_EQ(rig.cg.stats().compressed_bytes_stored, 0u);
}

TEST(ZswapTest, RealCompressorEndToEnd)
{
    Rig rig(10, compressible_mix(), CompressionMode::kReal);
    EXPECT_TRUE(rig.zswap.store(rig.cg, 0));
    rig.zswap.load(rig.cg, 0);
    EXPECT_EQ(rig.cg.stats().zswap_promotions, 1u);
}

TEST(ZswapVerify, RoundTripVerifiedWithRealBackend)
{
    RealCompressor compressor;
    Zswap zswap(&compressor, 1, /*verify_roundtrip=*/true);
    Memcg cg(1, 50, 42, compressible_mix(), 0);
    for (PageId p = 0; p < 50; ++p)
        ASSERT_TRUE(zswap.store(cg, p));
    for (PageId p = 0; p < 50; ++p)
        zswap.load(cg, p);
    EXPECT_EQ(zswap.stats().verified_roundtrips, 50u);
}

TEST(ZswapVerify, VerifiesAcrossContentClasses)
{
    RealCompressor compressor;
    Zswap zswap(&compressor, 1, /*verify_roundtrip=*/true);
    // All compressible classes, incl. zero and text pages.
    Memcg cg(1, 300, 42, ContentMix(0.3, 0.3, 0.2, 0.2, 0.0), 0);
    for (PageId p = 0; p < 300; ++p)
        zswap.store(cg, p);
    for (PageId p = 0; p < 300; ++p) {
        if (cg.page_test(p, kPageInZswap))
            zswap.load(cg, p);
    }
    EXPECT_GT(zswap.stats().verified_roundtrips, 250u);
}

TEST(ZswapVerify, SurvivesWritesBetweenEpisodes)
{
    RealCompressor compressor;
    Zswap zswap(&compressor, 1, /*verify_roundtrip=*/true);
    Memcg cg(1, 10, 42, compressible_mix(), 0);
    zswap.store(cg, 0);
    cg.touch(0, /*is_write=*/true, zswap);  // promote + dirty
    // New contents; store and verify the fresh version round-trips.
    zswap.store(cg, 0);
    zswap.load(cg, 0);
    EXPECT_EQ(zswap.stats().verified_roundtrips, 2u);
}

TEST(ZswapVerify, ModeledBackendDisablesGracefully)
{
    set_log_quiet(true);
    ModeledCompressor compressor;
    Zswap zswap(&compressor, 1, /*verify_roundtrip=*/true);
    Memcg cg(1, 10, 42, compressible_mix(), 0);
    EXPECT_TRUE(zswap.store(cg, 0));
    zswap.load(cg, 0);  // must not crash
    EXPECT_EQ(zswap.stats().verified_roundtrips, 0u);
}

TEST(ZswapDeath, StoringZswapPageCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rig rig(10);
    rig.zswap.store(rig.cg, 0);
    EXPECT_DEATH(rig.zswap.store(rig.cg, 0), "assertion failed");
}

// ------------------------------------------------------------ kreclaimd

TEST(KreclaimdTest, DisabledWhenThresholdZero)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(0);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 0u);
}

TEST(KreclaimdTest, DisabledWhenZswapOff)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(false);
    rig.cg.set_reclaim_threshold(1);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 0u);
}

TEST(KreclaimdTest, ReclaimsOnlyPagesPastThreshold)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);  // all at age 1
    rig.cg.touch(0, false, rig.zswap);
    rig.kstaled.scan(rig.cg);  // page 0 at 0, others at 2
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(2);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 9u);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
}

TEST(KreclaimdTest, SkipsUnevictableAndIncompressible)
{
    Rig rig(10);
    rig.cg.set_unevictable(0, true);
    rig.cg.page_set(1, kPageIncompressible);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(1);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 8u);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
    EXPECT_FALSE(rig.cg.page_test(1, kPageInZswap));
}

TEST(KreclaimdTest, SkipsRecentlyAccessed)
{
    Rig rig(4);
    rig.kstaled.scan(rig.cg);
    rig.kstaled.scan(rig.cg);  // age 2
    // Touch page 0 after the scan: accessed bit set, stale age.
    rig.cg.touch(0, false, rig.zswap);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(1);
    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(result.pages_stored, 3u);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInZswap));
}

TEST(KreclaimdTest, DirectReclaimTakesOldestFirst)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);
    // Pages 0-4 touched -> young; 5-9 at age 2.
    for (PageId p = 0; p < 5; ++p)
        rig.cg.touch(p, false, rig.zswap);
    rig.kstaled.scan(rig.cg);
    ReclaimResult result =
        rig.kreclaimd.direct_reclaim(rig.cg, rig.zswap, 3);
    EXPECT_EQ(result.pages_stored, 3u);
    // The oldest (5-9) were taken, not the young ones.
    for (PageId p = 0; p < 5; ++p)
        EXPECT_FALSE(rig.cg.page_test(p, kPageInZswap));
}

TEST(KreclaimdTest, DirectReclaimRespectsSoftLimit)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_soft_limit_pages(8);
    ReclaimResult result =
        rig.kreclaimd.direct_reclaim(rig.cg, rig.zswap, 10);
    // Only 2 pages may leave DRAM before hitting the soft limit.
    EXPECT_EQ(result.pages_stored, 2u);
    EXPECT_EQ(rig.cg.resident_pages(), 8u);
}

TEST(KreclaimdTest, DirectReclaimZeroTarget)
{
    Rig rig(10);
    ReclaimResult result =
        rig.kreclaimd.direct_reclaim(rig.cg, rig.zswap, 0);
    EXPECT_EQ(result.pages_stored, 0u);
    EXPECT_EQ(result.pages_walked, 0u);
}

TEST(KreclaimdTest, ZswapPagesAgeAndStayStored)
{
    Rig rig(4);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(1);
    rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(rig.cg.zswap_pages(), 4u);
    // More scans: stored pages keep aging but stay stored, and the
    // cold histogram still counts them.
    rig.kstaled.scan(rig.cg);
    rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
    EXPECT_EQ(rig.cg.zswap_pages(), 4u);
    EXPECT_EQ(rig.cg.cold_pages_min_threshold(), 4u);
}

// ------------------------------------------- oracles for the word walks
//
// kstaled's stride-1 scan and kreclaimd's plan walk work a 64-page
// word and a 512-page region at a time. These tests hold them to
// per-page walks over randomized memcgs that contain every region
// shape the word-level code special-cases.

/** Six full summary regions, then a 100-page tail region whose last
 *  64-bit word is partial. */
constexpr std::uint32_t kOraclePages = 6 * kPageRegionPages + 100;

std::uint64_t
page_digest(const Memcg &cg)
{
    StateDigest d;
    cg.pages().state_digest(d);
    return d.value();
}

/** Every region summary equals the exact [min, max] of its ages. */
void
expect_exact_summaries(const PageTable &pt)
{
    for (std::uint32_t r = 0; r < pt.num_summary_regions(); ++r) {
        PageId first = r * kPageRegionPages;
        PageId end = std::min(first + kPageRegionPages, pt.size());
        std::uint8_t mn = 255;
        std::uint8_t mx = 0;
        for (PageId p = first; p < end; ++p) {
            mn = std::min(mn, pt.age(p));
            mx = std::max(mx, pt.age(p));
        }
        EXPECT_EQ(pt.region_min_age(r), mn) << "region " << r;
        EXPECT_EQ(pt.region_max_age(r), mx) << "region " << r;
    }
}

/**
 * Seeded scan input, one region of each shape:
 *   0, 6  mixed (6 is the partial tail): random ages and bits;
 *   1     idle, no page past 200 except the first 8 of each word,
 *         which sit at 255;
 *   2     saturated: every page idle at 255;
 *   3     mostly saturated, with young pages breaking the 255 runs
 *         and a few accessed pages;
 *   4     huge, one page accessed;
 *   5     huge, idle.
 * Summaries are then rebuilt exact, as a restore leaves them, so the
 * saturated region qualifies for the bulk skip.
 */
void
fill_scan_regions(Memcg &cg, std::uint64_t seed)
{
    Rng rng(seed);
    cg.map_huge_region(4 * kPageRegionPages);
    cg.map_huge_region(5 * kPageRegionPages);
    for (PageId p = 0; p < cg.num_pages(); ++p) {
        std::uint32_t r = Memcg::region_of(p);
        auto age = static_cast<std::uint8_t>(rng.next_below(256));
        double accessed = 0.0;
        if (r == 0 || r == 6)
            accessed = 0.3;
        if (r == 1 && p % 64 < 8)
            age = 255;
        else if (r == 1)
            age = static_cast<std::uint8_t>(age % 200);
        if (r == 2 || (r == 3 && rng.next_bool(0.9)))
            age = 255;
        if (r == 3)
            accessed = 0.02;
        if (r == 4 && p == 4 * kPageRegionPages + 77)
            accessed = 1.0;
        cg.set_page_age(p, age);
        if (rng.next_bool(accessed))
            cg.page_set(p, kPageAccessed);
        if (rng.next_bool(0.3))
            cg.page_set(p, kPageDirty);
        if (rng.next_bool(0.2))
            cg.page_set(p, kPageIncompressible);
    }
    cg.pages().rebuild_region_summaries();
}

TEST(WalkOracle, ScanSoaMatchesReferenceWalk)
{
    Kstaled kstaled;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Memcg fast(1, kOraclePages, 42, compressible_mix(), 0);
        Memcg ref(1, kOraclePages, 42, compressible_mix(), 0);
        fill_scan_regions(fast, seed);
        fill_scan_regions(ref, seed);
        Rng touches(seed + 100);
        for (int round = 0; round < 4; ++round) {
            ScanResult got = kstaled.scan(fast);  // stride 1: scan_soa
            ScanResult want;
            kstaled.scan_reference(ref, 1, 0, want);
            EXPECT_EQ(got.pages_scanned, want.pages_scanned);
            EXPECT_EQ(got.accessed_pages, want.accessed_pages);
            EXPECT_TRUE(fast.cold_hist() == ref.cold_hist());
            EXPECT_TRUE(fast.promo_hist() == ref.promo_hist());
            EXPECT_EQ(page_digest(fast), page_digest(ref))
                << "seed " << seed << " round " << round;
            expect_exact_summaries(fast.pages());
            expect_exact_summaries(ref.pages());

            // Fresh accesses before the next scan, and a point write
            // that widens the saturated region's summary down to 254.
            for (int i = 0; i < 300; ++i) {
                auto p = static_cast<PageId>(
                    touches.next_below(kOraclePages));
                bool write = touches.next_bool(0.3);
                for (Memcg *cg : {&fast, &ref}) {
                    cg->page_set(p, kPageAccessed);
                    if (write)
                        cg->page_set(p, kPageDirty);
                }
            }
            for (Memcg *cg : {&fast, &ref}) {
                for (PageId p = 2 * kPageRegionPages;
                     p < 3 * kPageRegionPages; ++p) {
                    cg->page_clear(p, kPageAccessed);
                }
                cg->set_page_age(2 * kPageRegionPages + 5, 254);
            }
        }
    }
}

/** The stride-1 scan and the reference walk agree on everything a
 *  scan produces: ages, both histograms, exact summaries, digest. */
void
expect_same_scan_state(const Memcg &fast, const Memcg &ref)
{
    for (PageId p = 0; p < fast.num_pages(); ++p)
        ASSERT_EQ(fast.page_age(p), ref.page_age(p)) << "page " << p;
    EXPECT_TRUE(fast.cold_hist() == ref.cold_hist());
    EXPECT_TRUE(fast.promo_hist() == ref.promo_hist());
    expect_exact_summaries(fast.pages());
    EXPECT_EQ(page_digest(fast), page_digest(ref));
    fast.pages().check_invariants();
}

// 2^16 + 1,024 scans of one region: past both clamp sweeps and the
// u16 wrap of the epoch. The region starts huge-mapped, with sparse
// accesses that reset every page at once, the last of them at scan
// 1,000. Split, it then takes sparse accesses in its first word and
// point writes in its second, so its other 384 pages idle from scan
// 1,000 to the end: 65,560 scans, more than a 16-bit epoch distance
// can express without the clamp, and the last check lands 24 scans
// past the point where their unclamped distance would wrap to zero.
// A late huge stretch without accesses ages every page as one.
TEST(KstaledEpoch, ScansPastTheEpochWrapMatchTheReferenceWalk)
{
    constexpr std::uint32_t kScans = (1u << 16) + 1024;
    constexpr std::uint32_t kLastHugeAccess = 1000;
    constexpr std::uint32_t kLateHuge = 66000;
    static_assert(kScans - kLastHugeAccess > (1u << 16));
    Kstaled kstaled;
    Memcg fast(1, kPageRegionPages, 42, compressible_mix(), 0);
    Memcg ref(1, kPageRegionPages, 42, compressible_mix(), 0);
    Rng rng(2024);
    std::uint32_t checked = 0;
    for (std::uint32_t scan = 1; scan <= kScans; ++scan) {
        bool huge = scan <= kLastHugeAccess ||
                    (scan > kLateHuge && scan <= kLateHuge + 300);
        for (Memcg *cg : {&fast, &ref}) {
            if (huge && !cg->region_is_huge(0))
                cg->map_huge_region(0);
            else if (!huge && cg->region_is_huge(0))
                cg->split_huge_region(0);
        }
        bool touch = scan <= kLastHugeAccess || !huge;
        if (touch && (rng.next_bool(0.1) || scan == kLastHugeAccess)) {
            int touches = 1 + static_cast<int>(rng.next_below(3));
            for (int i = 0; i < touches; ++i) {
                auto p = static_cast<PageId>(rng.next_below(64));
                bool write = rng.next_bool(0.3);
                for (Memcg *cg : {&fast, &ref}) {
                    cg->page_set(p, kPageAccessed);
                    if (write)
                        cg->page_set(p, kPageDirty);
                }
            }
        }
        if (scan % 97 == 0) {
            auto p = static_cast<PageId>(64 + rng.next_below(64));
            auto age = static_cast<std::uint8_t>(rng.next_below(256));
            fast.set_page_age(p, age);
            ref.set_page_age(p, age);
        }

        ScanResult got = kstaled.scan(fast);  // stride 1: scan_soa
        ScanResult want;
        kstaled.scan_reference(ref, 1, 0, want);
        ASSERT_EQ(got.pages_scanned, want.pages_scanned) << scan;
        ASSERT_EQ(got.accessed_pages, want.accessed_pages) << scan;

        std::uint32_t phase = scan % PageTable::kClampPeriod;
        bool near_clamp = phase <= 1 || phase == PageTable::kClampPeriod - 1;
        if (scan % 1024 == 0 || near_clamp) {
            SCOPED_TRACE(testing::Message() << "scan " << scan);
            expect_same_scan_state(fast, ref);
            ++checked;
        }
    }
    EXPECT_EQ(fast.page_age(kPageRegionPages - 1), 255);
    EXPECT_EQ(checked, kScans / 1024 + 5);  // and scans 1, 2^15±1, 2^16±1
}

// A point write that moves a page's age down and back up widens the
// region bounds both ways; the next scan must leave them exact, and
// an access in the region must not hide the stale bound.
TEST(KstaledEpoch, PointWritesDownAndBackUpLeaveExactSummaries)
{
    Kstaled kstaled;
    Memcg fast(1, 2 * kPageRegionPages, 42, compressible_mix(), 0);
    Memcg ref(1, 2 * kPageRegionPages, 42, compressible_mix(), 0);
    for (Memcg *cg : {&fast, &ref}) {
        for (PageId p = 0; p < cg->num_pages(); ++p)
            cg->set_page_age(p, static_cast<std::uint8_t>(50 + p % 100));
        cg->pages().rebuild_region_summaries();
    }
    for (int round = 0; round < 3; ++round) {
        for (Memcg *cg : {&fast, &ref}) {
            cg->set_page_age(7, 3);      // below the region minimum
            cg->set_page_age(7, 250);    // above the region maximum
            cg->set_page_age(7, 100);    // back inside
            cg->set_page_age(kPageRegionPages + 9, 0);
            cg->set_page_age(kPageRegionPages + 9, 120);
            if (round == 1)
                cg->page_set(kPageRegionPages + 49, kPageAccessed);
        }
        EXPECT_EQ(fast.pages().region_min_age(0), 3);
        EXPECT_EQ(fast.pages().region_max_age(0), 250);
        ScanResult want;
        kstaled.scan(fast);
        kstaled.scan_reference(ref, 1, 0, want);
        SCOPED_TRACE(testing::Message() << "round " << round);
        expect_same_scan_state(fast, ref);
        expect_exact_summaries(ref.pages());
    }
}

/** A deep tier that takes every page and records the order of the
 *  store attempts it sees. */
class RecordingTier : public FarTier
{
  public:
    TierKind kind() const override { return TierKind::kNvm; }
    bool has_space() const override { return true; }

    bool
    store(Memcg &, PageId p) override
    {
        attempts.push_back(p);
        return true;
    }

    void load(Memcg &, PageId) override {}
    void drop(Memcg &, PageId) override {}
    void drop_all(Memcg &) override {}
    std::uint64_t used_pages() const override { return attempts.size(); }

    std::uint64_t
    capacity_pages() const override
    {
        return std::numeric_limits<std::uint64_t>::max();
    }

    void ckpt_save(Serializer &) const override {}
    bool ckpt_load(Deserializer &) override { return true; }

    std::vector<PageId> attempts;
};

constexpr AgeBucket kOracleThreshold = 6;

/**
 * Seeded reclaim input at threshold kOracleThreshold (T), with every
 * disqualifying flag scattered over the pages and these regions:
 *   0, 1, 6  mixed (6 is the partial tail), ages in [0, 2T) or 255;
 *   2        every age below T except one page that a point write
 *            made older after the summaries were rebuilt;
 *   3        huge and cold at its first page: the pass splits it;
 *   4        huge and accessed at its first page: it stays mapped;
 *   5        every age exactly T.
 */
void
fill_reclaim_regions(Memcg &cg, std::uint64_t seed)
{
    constexpr AgeBucket t = kOracleThreshold;
    constexpr PageId kHugeCold = 3 * kPageRegionPages;
    constexpr PageId kHugeHot = 4 * kPageRegionPages;
    Rng rng(seed);
    cg.map_huge_region(kHugeCold);
    cg.map_huge_region(kHugeHot);
    for (PageId p = 0; p < cg.num_pages(); ++p) {
        std::uint32_t r = Memcg::region_of(p);
        auto age = static_cast<std::uint8_t>(rng.next_below(2 * t));
        if (rng.next_bool(0.1))
            age = 255;
        if (r == 2)
            age = static_cast<std::uint8_t>(rng.next_below(t));
        if (r == 5)
            age = t;
        cg.set_page_age(p, age);
        if (!cg.region_is_huge(r) && rng.next_bool(0.2))
            cg.page_set(p, rng.next_bool(0.5) ? kPageInZswap
                                              : kPageInFarTier);
        if (rng.next_bool(0.1))
            cg.page_set(p, kPageUnevictable);
        if (rng.next_bool(0.1))
            cg.page_set(p, kPageAccessed);
        if (rng.next_bool(0.15))
            cg.page_set(p, kPageIncompressible);
    }
    cg.set_page_age(kHugeCold, t);
    cg.page_clear(kHugeCold, kPageAccessed);
    cg.page_set(kHugeHot, kPageAccessed);
    cg.pages().rebuild_region_summaries();

    constexpr PageId kWidened = 2 * kPageRegionPages + 300;
    cg.set_page_age(kWidened, t + 3);
    for (PageFlag f : {kPageInZswap, kPageInFarTier, kPageUnevictable,
                       kPageAccessed, kPageIncompressible}) {
        cg.page_clear(kWidened, f);
    }
}

/**
 * The per-page reclaim walk: in page order, every page of age >= T
 * that is not in zswap or a deep tier, unevictable, or accessed, and
 * not in a huge region the pass leaves mapped (one whose first page is
 * accessed or younger than T). Incompressible-marked pages are skipped
 * only when every route's tier would reject them.
 */
std::vector<PageId>
oracle_reclaim_walk(const Memcg &cg, bool every_route_rejects_incompressible)
{
    AgeBucket t = cg.reclaim_threshold();
    std::uint8_t skip = kPageInZswap | kPageInFarTier | kPageUnevictable |
                        kPageAccessed;
    if (every_route_rejects_incompressible)
        skip |= kPageIncompressible;
    std::vector<PageId> pages;
    for (PageId p = 0; p < cg.num_pages(); ++p) {
        std::uint32_t r = Memcg::region_of(p);
        PageId first = r * kHugeRegionPages;
        bool stays_huge = cg.region_is_huge(r) &&
                          (cg.page_age(first) < t ||
                           cg.page_test(first, kPageAccessed));
        if (!stays_huge && (cg.page_flags(p) & skip) == 0 &&
            cg.page_age(p) >= t) {
            pages.push_back(p);
        }
    }
    return pages;
}

TEST(WalkOracle, ReclaimAttemptsThePerPageSelectionInOrder)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto compressor = make_compressor(CompressionMode::kModeled);
        Zswap zswap(compressor.get(), 1);
        RecordingTier recorder;
        TierStack stack;
        TierSpec base;
        base.label = "zswap";
        stack.set_base(base, &zswap);
        TierSpec deep;
        deep.label = "recorder";  // band [T, inf): sees every attempt
        stack.add_tier(deep, &recorder);

        Memcg cg(1, kOraclePages, 42, compressible_mix(), 0);
        cg.set_zswap_enabled(true);
        cg.set_reclaim_threshold(kOracleThreshold);
        fill_reclaim_regions(cg, seed);
        // The recorder accepts incompressible pages, so marked pages
        // stay candidates.
        std::vector<PageId> want = oracle_reclaim_walk(cg, false);

        DemotionPlan plan;
        BandRoutingPolicy().plan(stack, plan);
        ReclaimResult result = Kreclaimd().reclaim_cold(cg, plan);
        EXPECT_EQ(recorder.attempts, want) << "seed " << seed;
        EXPECT_EQ(result.pages_to_tier, want.size());
        EXPECT_EQ(result.huge_splits, 1u);
        EXPECT_EQ(result.pages_walked, kOraclePages - kPageRegionPages);
        EXPECT_EQ(zswap.stats().stores, 0u);
    }
}

TEST(WalkOracle, ZswapOnlyReclaimSkipsIncompressibleMarks)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        // Some contents compress, some do not: an attempt either
        // stores the page or marks it incompressible.
        Rig rig(kOraclePages, ContentMix(0.0, 0.0, 0.7, 0.0, 0.3));
        rig.cg.set_zswap_enabled(true);
        rig.cg.set_reclaim_threshold(kOracleThreshold);
        fill_reclaim_regions(rig.cg, seed);
        std::vector<std::uint8_t> before(kOraclePages);
        for (PageId p = 0; p < kOraclePages; ++p)
            before[p] = rig.cg.page_flags(p);
        std::vector<PageId> want = oracle_reclaim_walk(rig.cg, true);

        ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.zswap);
        std::vector<PageId> attempted;
        for (PageId p = 0; p < kOraclePages; ++p) {
            auto gained = static_cast<std::uint8_t>(
                rig.cg.page_flags(p) & ~before[p]);
            if ((gained & (kPageInZswap | kPageIncompressible)) != 0)
                attempted.push_back(p);
        }
        EXPECT_EQ(attempted, want) << "seed " << seed;
        EXPECT_EQ(result.pages_stored + result.pages_rejected, want.size());
        EXPECT_GT(result.pages_rejected, 0u);
    }
}

}  // namespace
}  // namespace sdfm

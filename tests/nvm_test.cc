/**
 * @file
 * Tests for the hardware (NVM) far-memory tier and the two-tier
 * routing policy -- the paper's future-work configuration.
 */

#include <gtest/gtest.h>

#include "mem/kreclaimd.h"
#include "mem/kstaled.h"
#include "mem/memcg.h"
#include "mem/nvm_tier.h"
#include "mem/tier_stack.h"
#include "mem/zswap.h"
#include "node/machine.h"
#include "workload/job.h"

namespace sdfm {
namespace {

NvmTierParams
small_nvm(std::uint64_t capacity)
{
    NvmTierParams params;
    params.capacity_pages = capacity;
    return params;
}

struct Rig
{
    explicit Rig(std::uint32_t pages, std::uint64_t nvm_capacity,
                 ContentMix mix = ContentMix(0.0, 0.0, 1.0, 0.0, 0.0))
        : compressor(make_compressor(CompressionMode::kModeled)),
          zswap(compressor.get(), 1), nvm(small_nvm(nvm_capacity), 2),
          cg(1, pages, 42, mix, 0)
    {
    }

    /**
     * Wire zswap + nvm into a stack with the given nvm age band
     * (multiples of the job threshold) and compute the demotion plan.
     */
    DemotionPlan &route_nvm(double band_lo, double band_hi)
    {
        TierSpec base;
        base.label = "zswap";
        stack.set_base(base, &zswap);
        TierSpec spec;
        spec.label = "nvm";
        spec.band_lo = band_lo;
        spec.band_hi = band_hi;
        stack.add_tier(spec, &nvm);
        BandRoutingPolicy().plan(stack, plan);
        return plan;
    }

    std::unique_ptr<Compressor> compressor;
    Zswap zswap;
    NvmTier nvm;
    Memcg cg;
    Kstaled kstaled;
    Kreclaimd kreclaimd;
    TierStack stack;
    DemotionPlan plan;
};

TEST(NvmTier, StoreLoadRoundTrip)
{
    Rig rig(10, 100);
    ASSERT_TRUE(rig.nvm.store(rig.cg, 0));
    EXPECT_TRUE(rig.cg.page_test(0, kPageInFarTier));
    EXPECT_EQ(rig.cg.resident_pages(), 9u);
    EXPECT_EQ(rig.cg.tier_pages(), 1u);
    EXPECT_EQ(rig.nvm.used_pages(), 1u);

    rig.nvm.load(rig.cg, 0);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInFarTier));
    EXPECT_EQ(rig.cg.resident_pages(), 10u);
    EXPECT_EQ(rig.cg.stats().nvm_promotions, 1u);
    EXPECT_GT(rig.cg.stats().nvm_read_latency_us_sum, 0.0);
    EXPECT_GT(rig.cg.stats().nvm_stall_cycles, 0.0);
}

TEST(NvmTier, FixedCapacityRejects)
{
    Rig rig(10, 2);
    EXPECT_TRUE(rig.nvm.store(rig.cg, 0));
    EXPECT_TRUE(rig.nvm.store(rig.cg, 1));
    EXPECT_FALSE(rig.nvm.has_space());
    EXPECT_FALSE(rig.nvm.store(rig.cg, 2));
    EXPECT_EQ(rig.nvm.stats().rejected_full, 1u);
    EXPECT_DOUBLE_EQ(rig.nvm.utilization(), 1.0);
}

TEST(NvmTier, TouchPromotesFromNvm)
{
    Rig rig(10, 100);
    rig.route_nvm(1.0, 10.0);
    rig.nvm.store(rig.cg, 3);
    bool promoted = rig.cg.touch(3, false, rig.stack);
    EXPECT_TRUE(promoted);
    EXPECT_FALSE(rig.cg.page_test(3, kPageInFarTier));
}

TEST(NvmTier, DropAllReleasesCapacity)
{
    Rig rig(20, 100);
    for (PageId p = 0; p < 20; p += 2)
        rig.nvm.store(rig.cg, p);
    EXPECT_EQ(rig.nvm.used_pages(), 10u);
    rig.nvm.drop_all(rig.cg);
    EXPECT_EQ(rig.nvm.used_pages(), 0u);
    EXPECT_EQ(rig.cg.tier_pages(), 0u);
}

TEST(NvmTier, AcceptsIncompressiblePages)
{
    // No compression happens on the hardware tier: pages zswap must
    // reject are first-class citizens here.
    Rig rig(10, 100, ContentMix(0.0, 0.0, 0.0, 0.0, 1.0));
    rig.cg.page_set(0, kPageIncompressible);
    EXPECT_TRUE(rig.nvm.store(rig.cg, 0));
}

TEST(TwoTierRouting, ModeratelyColdToNvmDeepColdToZswap)
{
    Rig rig(10, 100);
    rig.kstaled.scan(rig.cg);  // all pages at age 1
    // Pages 0-4 get deep-cold ages by hand.
    for (PageId p = 0; p < 5; ++p)
        rig.cg.set_page_age(p, 50);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(1);
    ReclaimResult result =
        rig.kreclaimd.reclaim_cold(rig.cg, rig.route_nvm(1.0, 10.0));
    EXPECT_EQ(result.pages_stored, 10u);
    EXPECT_EQ(result.pages_to_tier, 5u);  // the age-1 pages
    for (PageId p = 0; p < 5; ++p)
        EXPECT_TRUE(rig.cg.page_test(p, kPageInZswap)) << p;
    for (PageId p = 5; p < 10; ++p)
        EXPECT_TRUE(rig.cg.page_test(p, kPageInFarTier)) << p;
}

TEST(TwoTierRouting, NvmOverflowFallsBackToZswap)
{
    Rig rig(10, 3);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(1);
    ReclaimResult result =
        rig.kreclaimd.reclaim_cold(rig.cg, rig.route_nvm(1.0, 10.0));
    EXPECT_EQ(result.pages_to_tier, 3u);
    EXPECT_EQ(result.pages_stored, 10u);  // overflow went to zswap
    EXPECT_EQ(rig.cg.zswap_pages(), 7u);
}

TEST(TwoTierRouting, EmptyBandDisablesTier)
{
    Rig rig(10, 100);
    rig.kstaled.scan(rig.cg);
    rig.cg.set_zswap_enabled(true);
    rig.cg.set_reclaim_threshold(1);
    // [T, T) is empty: every cold page goes to the zswap catch-all.
    ReclaimResult result =
        rig.kreclaimd.reclaim_cold(rig.cg, rig.route_nvm(1.0, 1.0));
    EXPECT_EQ(result.pages_to_tier, 0u);
    EXPECT_EQ(rig.cg.zswap_pages(), 10u);
}

TEST(TwoTierMachine, EndToEnd)
{
    MachineConfig config;
    config.dram_pages = 128ull * kMiB / kPageSize;
    config.compression = CompressionMode::kModeled;
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = 512;  // small: force overflow into zswap
    nvm.band_hi = 4.0;
    config.tiers = {nvm};
    Machine machine(0, config, 3);
    ASSERT_LT(machine.tiers().find(TierKind::kNvm),
              machine.tiers().size());
    machine.add_job(std::make_unique<Job>(1, profile_by_name("kv_cache"),
                                          7, 0));
    machine.add_job(std::make_unique<Job>(2, profile_by_name("logs"),
                                          8, 0));
    for (SimTime now = 0; now < 2 * kHour; now += kMinute)
        machine.step(now);
    EXPECT_GT(machine.tier_stored_pages(), 0u);
    EXPECT_GT(machine.zswap_stored_pages(), 0u);
    EXPECT_EQ(machine.far_memory_pages(),
              machine.tier_stored_pages() +
                  machine.zswap_stored_pages());
    EXPECT_GT(machine.cold_memory_coverage(), 0.05);
    // NVM promotions happened and were fast (sub-2us means).
    std::uint64_t nvm_promotions = 0;
    double latency_sum = 0.0;
    for (const auto &job : machine.jobs()) {
        nvm_promotions += job->memcg().stats().nvm_promotions;
        latency_sum += job->memcg().stats().nvm_read_latency_us_sum;
    }
    if (nvm_promotions > 0) {
        EXPECT_LT(latency_sum / static_cast<double>(nvm_promotions),
                  2.0);
    }
    // Teardown releases NVM capacity.
    machine.remove_job(1);
    machine.remove_job(2);
    EXPECT_EQ(machine.tier_stored_pages(), 0u);
}

TEST(TwoTierMachine, DisabledByDefault)
{
    MachineConfig config;
    Machine machine(0, config, 3);
    EXPECT_EQ(machine.tiers().deep_size(), 0u);
    EXPECT_EQ(machine.tier_stored_pages(), 0u);
}

}  // namespace
}  // namespace sdfm

/**
 * @file
 * Tests for the N-tier TierStack: a three-tier DRAM -> NVM -> remote
 * -> zswap chain exercising band routing, breaker fallback to a
 * shallower tier, whole-stack checkpoint round-trips, and donor
 * failure at stack depth 3.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ckpt/checkpoint.h"
#include "mem/kreclaimd.h"
#include "mem/kstaled.h"
#include "mem/memcg.h"
#include "mem/nvm_tier.h"
#include "mem/remote_tier.h"
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

RemoteTierParams
small_remote(std::uint64_t capacity)
{
    RemoteTierParams params;
    params.capacity_pages = capacity;
    return params;
}

/**
 * A borrowed three-tier stack: zswap at index 0, NVM claiming ages in
 * [T, 4T), remote memory claiming [4T, 16T), everything colder falls
 * through to the zswap catch-all. The remote tier carries a
 * hair-trigger breaker so fallback is one record_failure() away.
 */
struct Rig
{
    explicit Rig(std::uint32_t pages,
                 ContentMix mix = ContentMix(0.0, 0.0, 1.0, 0.0, 0.0))
        : compressor(make_compressor(CompressionMode::kModeled)),
          zswap(compressor.get(), 1), nvm(small_nvm(1 << 16), 2),
          remote(small_remote(1 << 16), 3), cg(1, pages, 42, mix, 0)
    {
        TierSpec base;
        base.label = "zswap";
        stack.set_base(base, &zswap);
        TierSpec nvm_spec;
        nvm_spec.label = "nvm";
        nvm_spec.band_lo = 1.0;
        nvm_spec.band_hi = 4.0;
        stack.add_tier(nvm_spec, &nvm);
        TierSpec remote_spec;
        remote_spec.label = "remote";
        remote_spec.band_lo = 4.0;
        remote_spec.band_hi = 16.0;
        remote_spec.breaker_enabled = true;
        remote_spec.breaker.failure_threshold = 1;
        stack.add_tier(remote_spec, &remote);
        cg.set_zswap_enabled(true);
        cg.set_reclaim_threshold(1);
    }

    DemotionPlan &
    route()
    {
        BandRoutingPolicy().plan(stack, plan);
        return plan;
    }

    std::unique_ptr<Compressor> compressor;
    Zswap zswap;
    NvmTier nvm;
    RemoteTier remote;
    Memcg cg;
    Kstaled kstaled;
    Kreclaimd kreclaimd;
    TierStack stack;
    DemotionPlan plan;
};

MachineConfig
three_tier_config()
{
    MachineConfig config;
    config.dram_pages = 16 * 1024;
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = 1 << 16;
    nvm.band_lo = 1.0;
    nvm.band_hi = 2.0;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.remote.capacity_pages = 1 << 18;
    remote.band_lo = 2.0;
    remote.band_hi = 0.0;  // unbounded: remote takes the deep cold
    remote.breaker_enabled = true;
    config.tiers = {nvm, remote};
    return config;
}

TEST(ThreeTierStack, WiringAndLookup)
{
    Rig rig(4);
    EXPECT_EQ(rig.stack.size(), 3u);
    EXPECT_EQ(rig.stack.deep_size(), 2u);
    EXPECT_EQ(rig.stack.find(TierKind::kNvm), 1u);
    EXPECT_EQ(rig.stack.find(TierKind::kRemote), 2u);
    EXPECT_EQ(&rig.stack.tier(0), &rig.zswap);
    EXPECT_EQ(rig.stack.tier(1).stack_index(), 1u);
    EXPECT_EQ(rig.stack.tier(2).stack_index(), 2u);
}

TEST(ThreeTierStack, BandsRouteByDepthOfCold)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);  // all pages at age 1: the NVM band
    for (PageId p = 0; p < 3; ++p)
        rig.cg.set_page_age(p, 8);  // remote band [4T, 16T)
    for (PageId p = 3; p < 5; ++p)
        rig.cg.set_page_age(p, 50);  // past every band: zswap catch-all

    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.route());
    EXPECT_EQ(result.pages_stored, 10u);
    EXPECT_EQ(result.pages_to_tier, 8u);
    EXPECT_EQ(rig.nvm.used_pages(), 5u);
    EXPECT_EQ(rig.remote.used_pages(), 3u);
    EXPECT_EQ(rig.cg.zswap_pages(), 2u);
    EXPECT_EQ(rig.plan.stored[1], 5u);
    EXPECT_EQ(rig.plan.stored[2], 3u);
    for (PageId p = 3; p < 5; ++p)
        EXPECT_TRUE(rig.cg.page_test(p, kPageInZswap)) << p;
    for (PageId p = 5; p < 10; ++p)
        EXPECT_TRUE(rig.cg.page_test(p, kPageInFarTier)) << p;
}

TEST(ThreeTierStack, OpenBreakerHandsBandToShallowerTier)
{
    Rig rig(10);
    rig.kstaled.scan(rig.cg);
    for (PageId p = 0; p < 10; ++p)
        rig.cg.set_page_age(p, 8);  // everything in the remote band

    // Trip the remote breaker (failure_threshold = 1) before planning.
    EXPECT_TRUE(rig.stack.entry(2).breaker.record_failure());
    ASSERT_EQ(rig.stack.entry(2).breaker.state(), BreakerState::kOpen);

    ReclaimResult result = rig.kreclaimd.reclaim_cold(rig.cg, rig.route());
    EXPECT_EQ(result.pages_stored, 10u);
    EXPECT_EQ(rig.remote.used_pages(), 0u);
    EXPECT_EQ(rig.nvm.used_pages(), 10u);  // the band fell one tier up
}

TEST(ThreeTierStack, MachineDigestMixesEveryDeepTier)
{
    MachineConfig config = three_tier_config();
    Machine machine(0, config, 3);
    ASSERT_EQ(machine.tiers().deep_size(), 2u);
    std::uint64_t before = machine.state_digest();

    // A page landing in the deepest tier must perturb the digest.
    machine.add_job(std::make_unique<Job>(1, profile_by_name("kv_cache"),
                                          7, 0));
    Job *job = machine.find_job(1);
    ASSERT_NE(job, nullptr);
    std::size_t ri = machine.tiers().find(TierKind::kRemote);
    ASSERT_LT(ri, machine.tiers().size());
    ASSERT_TRUE(machine.tiers().tier(ri).store(job->memcg(), 0));
    EXPECT_NE(machine.state_digest(), before);
}

TEST(ThreeTierMachine, EndToEndFillsBothDeepTiers)
{
    MachineConfig config = three_tier_config();
    config.compression = CompressionMode::kModeled;
    Machine machine(0, config, 3);
    machine.add_job(std::make_unique<Job>(1, profile_by_name("kv_cache"),
                                          7, 0));
    machine.add_job(std::make_unique<Job>(2, profile_by_name("logs"),
                                          8, 0));
    SimTime now = 0;
    for (; now < kHour; now += kMinute)
        machine.step(now);

    // Proactive reclaim demotes pages right as they cross the
    // threshold T, so in steady state nothing ages into the deep
    // remote band [2T, inf). Age a block of pages by hand -- the
    // backlog a reclaim outage would leave behind -- and the next
    // step must route it to the deepest matching tier.
    Job *job = machine.find_job(1);
    ASSERT_NE(job, nullptr);
    PageId aged = static_cast<PageId>(
        std::min<std::uint64_t>(job->memcg().num_pages(), 512));
    Memcg &aged_cg = job->memcg();
    for (PageId p = 0; p < aged; ++p) {
        if (!aged_cg.page_test(p, kPageInZswap) &&
            !aged_cg.page_test(p, kPageInFarTier)) {
            aged_cg.set_page_age(p, 60);
        }
    }
    for (; now < 2 * kHour; now += kMinute)
        machine.step(now);

    std::size_t ni = machine.tiers().find(TierKind::kNvm);
    std::size_t ri = machine.tiers().find(TierKind::kRemote);
    ASSERT_LT(ni, machine.tiers().size());
    ASSERT_LT(ri, machine.tiers().size());
    EXPECT_GT(machine.tiers().tier(ni).used_pages(), 0u);
    EXPECT_GT(machine.tiers().tier(ri).used_pages(), 0u);
    EXPECT_EQ(machine.tier_stored_pages(),
              machine.tiers().tier(ni).used_pages() +
                  machine.tiers().tier(ri).used_pages());
    EXPECT_EQ(machine.far_memory_pages(),
              machine.zswap_stored_pages() + machine.tier_stored_pages());

    // Explicit stacks export per-tier telemetry under tier.<label>.*.
    MetricsSnapshot snap = machine.telemetry_snapshot();
    EXPECT_GT(snap.counters.at("tier.nvm.demotions"), 0u);
    EXPECT_GT(snap.counters.at("tier.remote.demotions"), 0u);
    EXPECT_GT(snap.gauges.at("tier.remote.stored_pages"), 0.0);

    machine.remove_job(1);
    machine.remove_job(2);
    EXPECT_EQ(machine.tier_stored_pages(), 0u);
}

TEST(ThreeTierMachine, CheckpointRoundTripTrajectoryEqual)
{
    MachineConfig config = three_tier_config();
    Machine a(0, config, 11);
    a.add_job(std::make_unique<Job>(1, profile_by_name("kv_cache"), 100,
                                    0));
    a.add_job(std::make_unique<Job>(2, profile_by_name("web_frontend"),
                                    101, 0));
    a.add_job(std::make_unique<Job>(3, profile_by_name("logs"), 102, 0));
    SimTime now = 0;
    for (int i = 0; i < 25; ++i, now += config.control_period)
        a.step(now);

    Serializer s;
    a.ckpt_save(s);
    Machine b(0, config, 11);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d.at_end());
    EXPECT_EQ(a.state_digest(), b.state_digest());

    // Every tier's occupancy survived, not just the shallow ones.
    for (std::size_t i = 1; i < a.tiers().size(); ++i) {
        EXPECT_EQ(a.tiers().tier(i).used_pages(),
                  b.tiers().tier(i).used_pages())
            << "tier " << i;
    }

    for (int i = 0; i < 15; ++i, now += config.control_period) {
        a.step(now);
        b.step(now);
        ASSERT_EQ(a.state_digest(), b.state_digest())
            << "diverged " << i << " steps after restore";
    }
    MetricsSnapshot sa = a.telemetry_snapshot();
    MetricsSnapshot sb = b.telemetry_snapshot();
    EXPECT_EQ(sa.counters, sb.counters);
    EXPECT_EQ(sa.gauges, sb.gauges);
    EXPECT_TRUE(sa.histograms == sb.histograms);
}

TEST(ThreeTierMachine, DonorFailureAtDepthThreeKillsOwningJob)
{
    MachineConfig config = three_tier_config();
    Machine machine(0, config, 7);
    machine.add_job(std::make_unique<Job>(1, profile_by_name("kv_cache"),
                                          9, 0));
    Job *job = machine.find_job(1);
    ASSERT_NE(job, nullptr);

    std::size_t ri = machine.tiers().find(TierKind::kRemote);
    ASSERT_EQ(ri, 2u);  // depth 3: DRAM -> zswap -> nvm -> remote
    RemoteTier *remote =
        static_cast<RemoteTier *>(&machine.tiers().tier(ri));
    for (PageId p = 0; p < 10; ++p)
        ASSERT_TRUE(remote->store(job->memcg(), p));
    ASSERT_EQ(remote->used_pages(), 10u);

    // Round-robin placement puts pages on donor 0; its failure loses
    // them and kills the owning job, which drops the survivors too.
    std::vector<JobId> victims = machine.fail_donor(0);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], 1u);
    EXPECT_EQ(machine.find_job(1), nullptr);
    EXPECT_EQ(remote->used_pages(), 0u);
    EXPECT_GE(remote->stats().pages_lost, 1u);
    EXPECT_EQ(remote->stats().donor_failures, 1u);

    // The machine stays consistent and steppable afterwards.
    machine.step(0);
    EXPECT_EQ(machine.tier_stored_pages(), 0u);
}

}  // namespace
}  // namespace sdfm

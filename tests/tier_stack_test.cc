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
#include "core/far_memory_system.h"
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
          remote(RemoteTierParams(), 3), cg(1, pages, 42, mix, 0)
    {
        remote.grant_lease(0, 1 << 16);
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
    remote.band_lo = 2.0;
    remote.band_hi = 0.0;  // unbounded: remote takes the deep cold
    remote.breaker_enabled = true;
    config.tiers = {nvm, remote};
    return config;
}

/** What a standalone machine's remote tier gets in place of a broker:
 *  one lease 0 of 2^18 pages. */
void
grant_remote(Machine &machine)
{
    ASSERT_NE(machine.remote_tier(), nullptr);
    machine.remote_tier()->grant_lease(0, 1 << 18);
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
    grant_remote(machine);
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
    grant_remote(machine);
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

    // Every deep tier exports telemetry under tier.<label>.*.
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
    grant_remote(a);
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
    grant_remote(machine);
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

    // The pages sit under lease 0; its donor's failure loses them and
    // kills the owning job.
    std::vector<JobId> victims = machine.fail_donor(0);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], 1u);
    EXPECT_EQ(machine.find_job(1), nullptr);
    EXPECT_EQ(remote->used_pages(), 0u);
    EXPECT_EQ(remote->stats().pages_lost, 10u);
    EXPECT_EQ(remote->stats().donor_failures, 1u);

    // The machine stays consistent and steppable afterwards.
    machine.step(0);
    EXPECT_EQ(machine.tier_stored_pages(), 0u);
}

// ---------------------------------------------------------------------
// Single-tier configs: pinned digests
// ---------------------------------------------------------------------

/** A machine with an NVM tier in the band [T, 4T) under a breaker,
 *  with media errors and latency spikes tripping it. */
MachineConfig
breaker_nvm_machine()
{
    MachineConfig config;
    config.dram_pages = 32 * 1024;
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.label = "nvm";
    nvm.nvm.capacity_pages = 2048;
    nvm.band_lo = 1.0;
    nvm.band_hi = 4.0;
    nvm.breaker_enabled = true;
    config.tiers = {nvm};
    config.fault.enabled = true;
    config.fault.nvm_media_error_prob = 0.1;
    config.fault.nvm_latency_spike_prob = 0.05;
    return config;
}

/** abl_pooling's lease fleet: one lease-backed remote tier in the
 *  band [T, 4T) under a breaker, with donor crashes. */
FleetConfig
lease_fleet()
{
    FleetConfig config;
    config.seed = 57;
    config.num_clusters = 1;
    config.cluster.mix = typical_fleet_mix();
    config.cluster.num_machines = 8;
    config.cluster.machine.dram_pages = 64 * 1024;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.label = "remote";
    remote.band_lo = 1.0;
    remote.band_hi = 4.0;
    remote.breaker_enabled = true;
    config.cluster.machine.tiers = {remote};
    config.cluster.machine.fault.enabled = true;
    config.cluster.machine.fault.donor_failure_prob = 0.005;
    MemPoolParams &pool = config.cluster.pool;
    pool.enabled = true;
    pool.lease_pages = 2048;
    pool.max_leases_per_borrower = 4;
    pool.lease_term_periods = 30;
    pool.grace_periods = 3;
    pool.drain_pages_per_period = 1024;
    pool.donor_reserve_frac = 0.08;
    return config;
}

// The digests after populate and after N steps of both configs. They
// were captured on the build that still derived these one-tier stacks
// from MachineConfig's single-tier NVM, remote and tier-breaker
// fields; the explicit stacks must reproduce them.
TEST(SingleTierConfig, MatchesPinnedDigests)
{
    Machine machine(0, breaker_nvm_machine(), 5);
    machine.add_job(std::make_unique<Job>(1, profile_by_name("kv_cache"),
                                          21, 0));
    machine.add_job(std::make_unique<Job>(2, profile_by_name("logs"),
                                          22, 0));
    machine.add_job(std::make_unique<Job>(
        3, profile_by_name("web_frontend"), 23, 0));
    EXPECT_EQ(machine.state_digest(), 0xc628247c24ccfd01ULL);
    for (SimTime now = 0; now < 2 * kHour; now += kMinute)
        machine.step(now);
    EXPECT_GT(machine.tier_breaker().stats().opens, 0u);
    EXPECT_EQ(machine.state_digest(), 0x79d167461dd5ae5aULL);

    FarMemorySystem fleet(lease_fleet());
    fleet.populate();
    EXPECT_EQ(fleet.state_digest(), 0x2380b095d5527c6dULL);
    for (int i = 0; i < 60; ++i)
        fleet.step();
    EXPECT_GT(fleet.fault_report().pool_leases_granted, 0u);
    EXPECT_EQ(fleet.state_digest(), 0x0e30a2d07707fc5aULL);
}

}  // namespace
}  // namespace sdfm

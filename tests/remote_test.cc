/**
 * @file
 * Tests for the remote-memory tier: lease-slot placement, crypto and
 * latency accounting, donor-failure data loss (Section 2.1's
 * failure-domain expansion), and machine-level integration.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/remote_tier.h"
#include "node/machine.h"
#include "workload/job.h"

namespace sdfm {
namespace {

/** A remote tier holding @p leases lease slots (ids 0..leases-1) that
 *  share @p capacity pages evenly -- one slot per donor machine. */
struct Rig
{
    explicit Rig(std::uint32_t pages, std::uint64_t capacity,
                 std::uint32_t leases = 4,
                 RemoteTierParams params = RemoteTierParams())
        : compressor(make_compressor(CompressionMode::kModeled)),
          zswap(compressor.get(), 1), remote(params, 2),
          cg(1, pages, 42, ContentMix::typical(), 0)
    {
        for (std::uint32_t id = 0; id < leases; ++id)
            remote.grant_lease(id, capacity / leases);
    }

    std::unique_ptr<Compressor> compressor;
    Zswap zswap;
    RemoteTier remote;
    Memcg cg;
};

TEST(RemoteTier, StoreLoadRoundTrip)
{
    Rig rig(10, 100);
    ASSERT_TRUE(rig.remote.store(rig.cg, 0));
    EXPECT_TRUE(rig.cg.page_test(0, kPageInFarTier));
    EXPECT_EQ(rig.remote.used_pages(), 1u);
    // Encryption cycles charged on the way out.
    EXPECT_GT(rig.cg.stats().compress_cycles, 0.0);

    rig.remote.load(rig.cg, 0);
    EXPECT_FALSE(rig.cg.page_test(0, kPageInFarTier));
    EXPECT_EQ(rig.remote.used_pages(), 0u);
    EXPECT_EQ(rig.cg.stats().nvm_promotions, 1u);
    // Decryption cycles charged on the way back.
    EXPECT_GT(rig.cg.stats().decompress_cycles, 0.0);
    EXPECT_GT(rig.cg.stats().nvm_read_latency_us_sum, 0.0);
}

TEST(RemoteTier, CapacityBound)
{
    Rig rig(10, 3, /*leases=*/1);
    EXPECT_TRUE(rig.remote.store(rig.cg, 0));
    EXPECT_TRUE(rig.remote.store(rig.cg, 1));
    EXPECT_TRUE(rig.remote.store(rig.cg, 2));
    EXPECT_FALSE(rig.remote.store(rig.cg, 3));
    EXPECT_EQ(rig.remote.stats().rejected_full, 1u);
}

TEST(RemoteTier, RoundRobinSpreadsAcrossDonors)
{
    Rig rig(40, 100, /*leases=*/4);
    for (PageId p = 0; p < 40; ++p)
        ASSERT_TRUE(rig.remote.store(rig.cg, p));
    for (std::uint32_t lease = 0; lease < 4; ++lease)
        EXPECT_EQ(rig.remote.lease_used(lease), 10u);
}

TEST(RemoteTier, DonorFailureLosesPagesAndNamesVictims)
{
    Rig rig(40, 100, 4);
    for (PageId p = 0; p < 40; ++p)
        rig.remote.store(rig.cg, p);
    std::vector<JobId> victims = rig.remote.fail_donor(2);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], rig.cg.id());
    EXPECT_EQ(rig.remote.stats().pages_lost, 10u);
    EXPECT_EQ(rig.remote.used_pages(), 30u);
    // The lease is gone with its donor, and queued for the broker.
    EXPECT_EQ(rig.remote.capacity_pages(), 75u);
    EXPECT_EQ(rig.remote.dead_leases(), std::vector<std::uint32_t>{2});
    // Other donors' pages survive.
    EXPECT_EQ(rig.remote.lease_used(1), 10u);
}

TEST(RemoteTier, FailureOfEmptyDonorHarmless)
{
    Rig rig(10, 100, 4);
    EXPECT_TRUE(rig.remote.fail_donor(3).empty());
    EXPECT_EQ(rig.remote.stats().pages_lost, 0u);
}

TEST(RemoteTier, DropAllClearsPlacements)
{
    Rig rig(20, 100, 4);
    for (PageId p = 0; p < 20; ++p)
        rig.remote.store(rig.cg, p);
    rig.remote.drop_all(rig.cg);
    EXPECT_EQ(rig.remote.used_pages(), 0u);
    for (std::uint32_t lease = 0; lease < 4; ++lease)
        EXPECT_EQ(rig.remote.lease_used(lease), 0u);
}

// Every read attempt fails: the retry loop runs to max_read_retries,
// each retry's backoff doubling up to 64x its base. Without the cap,
// the backoff sum is 2^63 times the base by retry 64 and the shift is
// undefined past it.
TEST(RemoteTier, ReadRetryBackoffStaysCappedPastSixtyFourRetries)
{
    RemoteTierParams params;
    params.max_read_retries = 100;
    params.jitter_sigma = 0.0;  // every round trip is read_latency_us
    Rig rig(1, 1, 1, params);
    rig.remote.set_transient_read_failure(1.0);
    ASSERT_TRUE(rig.remote.store(rig.cg, 0));
    rig.remote.load(rig.cg, 0);
    EXPECT_EQ(rig.remote.stats().read_retries, 100u);
    EXPECT_EQ(rig.remote.stats().reads_exhausted, 1u);
    // 1 + 2 + ... + 32 for retries 1-6, then 64 for each of 94 more.
    double backoff_units = 63.0 + 94.0 * 64.0;
    EXPECT_DOUBLE_EQ(rig.cg.stats().nvm_read_latency_us_sum,
                     101.0 * params.read_latency_us +
                         backoff_units * params.retry_backoff_base_us);
}

TEST(RemoteTier, HeavierLatencyTailThanNvm)
{
    RemoteTier remote(RemoteTierParams(), 7);
    remote.grant_lease(0, 10000);
    NvmTierParams nvm_params;
    nvm_params.capacity_pages = 10000;
    NvmTier nvm(nvm_params, 7);

    Memcg cg_a(1, 5000, 42, ContentMix::typical(), 0);
    Memcg cg_b(2, 5000, 42, ContentMix::typical(), 0);
    for (PageId p = 0; p < 5000; ++p) {
        remote.store(cg_a, p);
        nvm.store(cg_b, p);
        remote.load(cg_a, p);
        nvm.load(cg_b, p);
    }
    double remote_mean = cg_a.stats().nvm_read_latency_us_sum / 5000.0;
    double nvm_mean = cg_b.stats().nvm_read_latency_us_sum / 5000.0;
    EXPECT_GT(remote_mean, 4.0 * nvm_mean);
}

TEST(RemoteMachine, DonorFailureKillsAndReports)
{
    MachineConfig config;
    config.dram_pages = 128ull * kMiB / kPageSize;
    config.compression = CompressionMode::kModeled;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.band_hi = 4.0;
    config.tiers = {remote};
    config.fault.enabled = true;
    config.fault.donor_failure_prob = 0.05;
    Machine machine(0, config, 3);
    ASSERT_NE(machine.remote_tier(), nullptr);
    // Eight donors; a crashed one is replaced by a fresh lease.
    std::uint32_t next_lease = 0;
    for (; next_lease < 8; ++next_lease)
        machine.remote_tier()->grant_lease(next_lease, 1 << 17);
    machine.add_job(std::make_unique<Job>(1, profile_by_name("logs"), 7,
                                          0));
    machine.add_job(std::make_unique<Job>(2, profile_by_name("kv_cache"),
                                          8, 0));
    std::uint64_t failures = 0, evicted = 0;
    for (SimTime now = 0; now < 3 * kHour; now += kMinute) {
        MachineStepResult result = machine.step(now);
        failures += result.donor_failures;
        evicted += result.evicted.size();
        std::size_t crashed =
            machine.remote_tier()->take_dead_leases().size();
        for (; crashed > 0; --crashed)
            machine.remote_tier()->grant_lease(next_lease++, 1 << 17);
    }
    EXPECT_GT(failures, 0u);
    // At least one failure hit a donor holding pages, killing jobs.
    EXPECT_GT(evicted, 0u);
}

}  // namespace
}  // namespace sdfm

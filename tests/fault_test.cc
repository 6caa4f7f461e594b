/**
 * @file
 * Tests for the fault-injection framework and the graceful-degradation
 * machinery it exercises: circuit-breaker transitions, injector
 * determinism, checksum-detected zswap corruption, tier degradation
 * with retry/backoff, NVM media faults, agent crash/restart warmup
 * re-entry, donor-failure kill/reschedule, and the fleet-level fault
 * report.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/far_memory_system.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "mem/nvm_tier.h"
#include "mem/remote_tier.h"
#include "mem/zswap.h"
#include "node/machine.h"
#include "workload/job.h"

namespace sdfm {
namespace {

// ---------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------

TEST(CircuitBreaker, TripsAfterConsecutiveFailures)
{
    CircuitBreaker breaker;  // failure_threshold = 3
    EXPECT_FALSE(breaker.record_failure());
    EXPECT_FALSE(breaker.record_failure());
    breaker.record_success();  // resets the consecutive count
    EXPECT_FALSE(breaker.record_failure());
    EXPECT_FALSE(breaker.record_failure());
    EXPECT_TRUE(breaker.record_failure());
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_FALSE(breaker.allow());
    EXPECT_EQ(breaker.trial_budget(), 0u);
    EXPECT_EQ(breaker.stats().opens, 1u);
}

TEST(CircuitBreaker, HalfOpenProbeRecovers)
{
    CircuitBreakerParams params;
    params.failure_threshold = 1;
    params.open_periods = 2;
    CircuitBreaker breaker(params);
    EXPECT_TRUE(breaker.record_failure());
    breaker.tick();
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    breaker.tick();
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_EQ(breaker.trial_budget(), params.half_open_trials);
    breaker.record_success();
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    EXPECT_EQ(breaker.stats().closes, 1u);
}

TEST(CircuitBreaker, ReopenGrowsHoldOffExponentially)
{
    CircuitBreakerParams params;
    params.failure_threshold = 1;
    params.open_periods = 2;
    params.backoff_factor = 2.0;
    params.max_open_periods = 5;
    CircuitBreaker breaker(params);

    EXPECT_TRUE(breaker.record_failure());  // open, hold-off 2
    breaker.tick();
    breaker.tick();
    ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_TRUE(breaker.record_failure());  // reopen, hold-off 4
    EXPECT_EQ(breaker.stats().reopens, 1u);
    for (int i = 0; i < 3; ++i) {
        breaker.tick();
        EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    }
    breaker.tick();
    ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_TRUE(breaker.record_failure());  // reopen, hold-off min(8,5)=5
    for (int i = 0; i < 4; ++i) {
        breaker.tick();
        EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    }
    breaker.tick();
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    // Recovery forgets the accumulated backoff.
    breaker.record_success();
    EXPECT_TRUE(breaker.record_failure());  // open again, hold-off 2
    breaker.tick();
    breaker.tick();
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, RecordsIgnoredWhileOpen)
{
    CircuitBreakerParams params;
    params.failure_threshold = 1;
    CircuitBreaker breaker(params);
    EXPECT_TRUE(breaker.record_failure());
    breaker.record_success();
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_FALSE(breaker.record_failure());
    EXPECT_EQ(breaker.stats().opens, 1u);
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

FaultConfig
probabilistic_config()
{
    FaultConfig config;
    config.enabled = true;
    config.donor_failure_prob = 0.2;
    config.zswap_corruption_prob = 0.3;
    config.agent_crash_prob = 0.1;
    return config;
}

std::vector<FaultKind>
kinds_over(FaultInjector &injector, int steps)
{
    std::vector<FaultKind> kinds;
    for (int i = 0; i < steps; ++i) {
        SimTime begin = i * kMinute;
        for (const FaultEvent &event :
             injector.step(begin, begin + kMinute))
            kinds.push_back(event.kind);
    }
    return kinds;
}

TEST(FaultInjector, DisabledProducesNothing)
{
    FaultConfig config = probabilistic_config();
    config.enabled = false;
    FaultInjector injector(config, 7);
    EXPECT_TRUE(kinds_over(injector, 100).empty());
    EXPECT_EQ(injector.stats().injected_total, 0u);
}

TEST(FaultInjector, SameSeedSameSchedule)
{
    FaultInjector a(probabilistic_config(), 7);
    FaultInjector b(probabilistic_config(), 7);
    std::vector<FaultKind> ka = kinds_over(a, 300);
    std::vector<FaultKind> kb = kinds_over(b, 300);
    EXPECT_FALSE(ka.empty());
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(a.stats().injected_total, b.stats().injected_total);
}

TEST(FaultInjector, DifferentSeedDifferentSchedule)
{
    FaultInjector a(probabilistic_config(), 7);
    FaultInjector b(probabilistic_config(), 8);
    EXPECT_NE(kinds_over(a, 300), kinds_over(b, 300));
}

TEST(FaultInjector, ScheduledEventsFireOnceInTheirWindow)
{
    FaultConfig config;
    config.enabled = true;
    config.schedule.push_back(
        {500 * kMinute, {FaultKind::kAgentCrash, 1, 0}});
    config.schedule.push_back(
        {30, {FaultKind::kZswapCorruption, 2, 0}});  // before 1st window
    config.schedule.push_back(
        {90, {FaultKind::kDonorFailure, 1, 0}});
    FaultInjector injector(config, 1);

    // First window starts late; the t=30 event still fires in it.
    std::vector<FaultEvent> first = injector.step(kMinute, 2 * kMinute);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].kind, FaultKind::kZswapCorruption);
    EXPECT_EQ(first[0].magnitude, 2u);
    EXPECT_EQ(first[1].kind, FaultKind::kDonorFailure);

    for (int i = 2; i < 500; ++i) {
        EXPECT_TRUE(
            injector.step(i * kMinute, (i + 1) * kMinute).empty());
    }
    std::vector<FaultEvent> last =
        injector.step(500 * kMinute, 501 * kMinute);
    ASSERT_EQ(last.size(), 1u);
    EXPECT_EQ(last[0].kind, FaultKind::kAgentCrash);
    EXPECT_EQ(injector.stats().injected_total, 3u);
    EXPECT_EQ(injector.stats().agent_crashes, 1u);
}

// ---------------------------------------------------------------------
// Zswap corruption + checksum recovery
// ---------------------------------------------------------------------

struct ZswapRig
{
    explicit ZswapRig(std::uint32_t pages)
        : compressor(make_compressor(CompressionMode::kModeled)),
          zswap(compressor.get(), 1),
          cg(1, pages, 42, ContentMix::typical(), 0)
    {
    }

    std::unique_ptr<Compressor> compressor;
    Zswap zswap;
    Memcg cg;
};

TEST(ZswapCorruption, ChecksumCatchesCorruptionAndRefaults)
{
    ZswapRig rig(32);
    std::uint64_t stored = 0;
    for (PageId p = 0; p < 32; ++p) {
        if (rig.zswap.store(rig.cg, p))
            ++stored;
    }
    ASSERT_GT(stored, 0u);

    Rng rng(99);
    ASSERT_TRUE(rig.zswap.corrupt_entry(rng));
    EXPECT_EQ(rig.zswap.stats().corruptions_injected, 1u);

    // Promote everything: exactly one entry fails its checksum, the
    // page re-faults from backing store, and no load aborts.
    for (PageId p = 0; p < 32; ++p) {
        if (rig.cg.page_flags(p) & kPageInZswap)
            rig.zswap.load(rig.cg, p);
    }
    EXPECT_EQ(rig.zswap.stats().poisoned_entries, 1u);
    EXPECT_EQ(rig.cg.stats().far_refaults, 1u);
    EXPECT_GT(rig.cg.stats().refault_stall_cycles, 0.0);
    EXPECT_EQ(rig.cg.zswap_pages(), 0u);
    EXPECT_EQ(rig.cg.stats().zswap_promotions, stored);
}

TEST(ZswapCorruption, CorruptOnEmptyStoreIsHarmless)
{
    ZswapRig rig(4);
    Rng rng(5);
    EXPECT_FALSE(rig.zswap.corrupt_entry(rng));
    EXPECT_EQ(rig.zswap.stats().corruptions_injected, 0u);
}

// ---------------------------------------------------------------------
// Remote-tier retry/backoff
// ---------------------------------------------------------------------

TEST(RemoteRetry, DegradedReadsRetryWithBackoffAndExhaust)
{
    RemoteTierParams params;
    RemoteTier remote(params, 3);
    remote.grant_lease(0, 100);
    Memcg cg(1, 50, 42, ContentMix::typical(), 0);
    for (PageId p = 0; p < 50; ++p)
        ASSERT_TRUE(remote.store(cg, p));

    remote.set_transient_read_failure(1.0);
    double healthy_latency = cg.stats().nvm_read_latency_us_sum;
    for (PageId p = 0; p < 50; ++p)
        remote.load(cg, p);
    // Every read burned all retries, then completed anyway: the step
    // loop never aborts on a degraded tier.
    EXPECT_EQ(remote.stats().read_retries,
              50u * params.max_read_retries);
    EXPECT_EQ(remote.stats().reads_exhausted, 50u);
    EXPECT_EQ(remote.stats().read_failures,
              50u * (params.max_read_retries + 1));
    EXPECT_EQ(cg.stats().nvm_promotions, 50u);
    EXPECT_GT(cg.stats().nvm_read_latency_us_sum,
              healthy_latency + 50.0 * params.retry_backoff_base_us);

    // Healthy path draws no extra randomness and never retries.
    RemoteTier healthy(params, 3);
    healthy.grant_lease(0, 100);
    Memcg cg2(2, 10, 42, ContentMix::typical(), 0);
    for (PageId p = 0; p < 10; ++p) {
        ASSERT_TRUE(healthy.store(cg2, p));
        healthy.load(cg2, p);
    }
    EXPECT_EQ(healthy.stats().read_retries, 0u);
    EXPECT_EQ(healthy.stats().read_failures, 0u);
}

// ---------------------------------------------------------------------
// NVM fault hooks
// ---------------------------------------------------------------------

TEST(NvmFaults, MediaErrorRefaultsFromBackingStore)
{
    NvmTierParams params;
    params.capacity_pages = 10;
    NvmTier nvm(params, 3);
    Memcg cg(1, 10, 42, ContentMix::typical(), 0);
    ASSERT_TRUE(nvm.store(cg, 0));
    ASSERT_TRUE(nvm.store(cg, 1));
    nvm.inject_media_errors(1);
    nvm.load(cg, 0);  // consumes the pending error
    nvm.load(cg, 1);  // healthy
    EXPECT_EQ(nvm.stats().media_errors, 1u);
    EXPECT_EQ(cg.stats().far_refaults, 1u);
    EXPECT_GT(cg.stats().refault_stall_cycles, 0.0);
    EXPECT_EQ(cg.stats().nvm_promotions, 2u);
}

TEST(NvmFaults, LatencyMultiplierScalesReads)
{
    NvmTierParams params;
    params.capacity_pages = 100;
    NvmTier slow(params, 3);
    NvmTier fast(params, 3);  // same seed: identical jitter draws
    slow.set_latency_multiplier(8.0);
    Memcg cg_slow(1, 50, 42, ContentMix::typical(), 0);
    Memcg cg_fast(2, 50, 42, ContentMix::typical(), 0);
    for (PageId p = 0; p < 50; ++p) {
        ASSERT_TRUE(slow.store(cg_slow, p));
        ASSERT_TRUE(fast.store(cg_fast, p));
        slow.load(cg_slow, p);
        fast.load(cg_fast, p);
    }
    EXPECT_DOUBLE_EQ(cg_slow.stats().nvm_read_latency_us_sum,
                     8.0 * cg_fast.stats().nvm_read_latency_us_sum);
}

TEST(NvmFaults, LoseCapacityReportsOverflow)
{
    NvmTierParams params;
    params.capacity_pages = 100;
    NvmTier nvm(params, 3);
    Memcg cg(1, 100, 42, ContentMix::typical(), 0);
    for (PageId p = 0; p < 80; ++p)
        ASSERT_TRUE(nvm.store(cg, p));
    std::uint64_t overflow = nvm.lose_capacity(0.5);
    EXPECT_EQ(nvm.capacity_pages(), 50u);
    EXPECT_EQ(overflow, 30u);
    EXPECT_EQ(nvm.stats().capacity_lost_pages, 50u);
    EXPECT_FALSE(nvm.has_space());
}

// ---------------------------------------------------------------------
// Machine-level fault plane
// ---------------------------------------------------------------------

MachineConfig
static_machine_config()
{
    MachineConfig config;
    config.dram_pages = 128ull * kMiB / kPageSize;
    config.policy = FarMemoryPolicy::kStatic;
    config.static_threshold = 2;
    config.slo.enable_delay = 0;
    return config;
}

/** One deep tier of @p kind claiming the ages in [T, 4T). */
TierConfig
deep_tier(TierKind kind)
{
    TierConfig tier;
    tier.kind = kind;
    tier.band_hi = 4.0;
    return tier;
}

TEST(FaultMachine, CorruptionScheduleSurvivesStepLoop)
{
    MachineConfig config = static_machine_config();
    config.fault.enabled = true;
    config.fault.zswap_corruption_prob = 0.5;
    config.fault.corruption_batch = 8;
    Machine machine(0, config, 11);
    machine.add_job(
        std::make_unique<Job>(1, profile_by_name("logs"), 7, 0));
    machine.add_job(
        std::make_unique<Job>(2, profile_by_name("web_frontend"), 8, 0));

    for (SimTime now = 0; now < 3 * kHour; now += kMinute)
        machine.step(now);

    EXPECT_GT(machine.fault_injector().stats().zswap_corruptions, 0u);
    EXPECT_GT(machine.zswap().stats().corruptions_injected, 0u);
    // Corrupted entries were promoted at some point and recovered via
    // re-fault -- visible in the exported counter, and nothing
    // aborted the step loop to get here.
    EXPECT_GT(machine.zswap().stats().poisoned_entries, 0u);
    EXPECT_EQ(
        machine.telemetry_snapshot().counter_or_zero(
            "zswap.poisoned_entries"),
        machine.zswap().stats().poisoned_entries);
}

TEST(FaultMachine, RemoteDegradeDrivesRetriesAndTierBreaker)
{
    MachineConfig config = static_machine_config();
    config.tiers = {deep_tier(TierKind::kRemote)};
    config.tiers[0].breaker_enabled = true;
    config.fault.enabled = true;
    config.fault.remote_read_failure_prob = 1.0;
    config.fault.degrade_duration = 20 * kMinute;
    config.fault.schedule.push_back(
        {10 * kMinute, {FaultKind::kRemoteDegrade, 1, 20 * kMinute}});
    Machine machine(0, config, 13);
    machine.remote_tier()->grant_lease(0, 1 << 20);
    machine.add_job(
        std::make_unique<Job>(1, profile_by_name("logs"), 7, 0));
    machine.add_job(
        std::make_unique<Job>(2, profile_by_name("kv_cache"), 8, 0));

    for (SimTime now = 0; now < 2 * kHour; now += kMinute)
        machine.step(now);

    std::size_t ri = machine.tiers().find(TierKind::kRemote);
    ASSERT_LT(ri, machine.tiers().size());
    RemoteTier *remote =
        static_cast<RemoteTier *>(&machine.tiers().tier(ri));
    // The degrade window produced failed reads, bounded retries, and
    // exhausted reads that still completed.
    EXPECT_GT(remote->stats().read_retries, 0u);
    EXPECT_GT(remote->stats().reads_exhausted, 0u);
    // The tier breaker opened during the window and recovered after
    // it ended (the degradation expired well before the run did).
    EXPECT_GE(machine.tier_breaker().stats().opens, 1u);
    EXPECT_GE(machine.tier_breaker().stats().closes, 1u);
    EXPECT_EQ(machine.tier_breaker().state(), BreakerState::kClosed);
    EXPECT_DOUBLE_EQ(remote->transient_read_failure(), 0.0);
    // Recovery is visible in the metrics plane.
    MetricsSnapshot snap = machine.telemetry_snapshot();
    EXPECT_GT(snap.counter_or_zero("fault.remote_read_retries"), 0u);
    EXPECT_GT(snap.counter_or_zero("fault.tier_breaker_opens"), 0u);
}

TEST(FaultMachine, NvmCapacityLossSpillsToZswap)
{
    MachineConfig config = static_machine_config();
    // Small enough that the tier is full when the loss hits, so the
    // surviving capacity cannot hold the resident tier pages.
    config.tiers = {deep_tier(TierKind::kNvm)};
    config.tiers[0].nvm.capacity_pages = 8192;
    config.fault.enabled = true;
    config.fault.capacity_loss_frac = 0.95;
    config.fault.schedule.push_back(
        {30 * kMinute, {FaultKind::kNvmCapacityLoss, 1, 0}});
    Machine machine(0, config, 17);
    machine.add_job(
        std::make_unique<Job>(1, profile_by_name("logs"), 7, 0));

    for (SimTime now = 0; now < kHour; now += kMinute)
        machine.step(now);

    MetricsSnapshot snap = machine.telemetry_snapshot();
    EXPECT_GT(snap.counter_or_zero("fault.nvm_capacity_lost_pages"), 0u);
    EXPECT_GT(snap.counter_or_zero("fault.nvm_spillover_pages"), 0u);
    std::size_t ni = machine.tiers().find(TierKind::kNvm);
    ASSERT_LT(ni, machine.tiers().size());
    NvmTier *nvm = static_cast<NvmTier *>(&machine.tiers().tier(ni));
    EXPECT_LT(nvm->capacity_pages(), 8192u);
    // The spilled pages are in zswap, not lost.
    EXPECT_GT(machine.zswap_stored_pages(), 0u);
}

TEST(FaultMachine, AgentCrashReentersWarmup)
{
    MachineConfig config = static_machine_config();
    config.slo.enable_delay = 10 * kMinute;
    Machine machine(0, config, 19);
    Job &job = machine.add_job(
        std::make_unique<Job>(1, profile_by_name("logs"), 7, 0));

    SimTime now = 0;
    for (; now < 20 * kMinute; now += kMinute)
        machine.step(now);
    ASSERT_EQ(job.memcg().reclaim_threshold(), config.static_threshold);

    machine.crash_agent(now);
    EXPECT_EQ(machine.agent().stats().restarts, 1u);
    EXPECT_EQ(job.memcg().reclaim_threshold(), 0u);
    EXPECT_FALSE(job.memcg().zswap_enabled());

    // Still inside the re-entered S-second warmup: threshold stays 0.
    SimTime restart = now;
    for (; now < restart + config.slo.enable_delay - kMinute;
         now += kMinute) {
        machine.step(now);
        EXPECT_EQ(job.memcg().reclaim_threshold(), 0u);
    }
    // Once the warmup elapses, reclaim resumes.
    for (; now < restart + config.slo.enable_delay + 2 * kMinute;
         now += kMinute)
        machine.step(now);
    EXPECT_EQ(job.memcg().reclaim_threshold(), config.static_threshold);
}

TEST(FaultMachine, ScheduledAgentCrashCountsInTelemetry)
{
    MachineConfig config = static_machine_config();
    config.fault.enabled = true;
    config.fault.schedule.push_back(
        {15 * kMinute, {FaultKind::kAgentCrash, 1, 0}});
    Machine machine(0, config, 23);
    machine.add_job(
        std::make_unique<Job>(1, profile_by_name("logs"), 7, 0));
    for (SimTime now = 0; now < kHour; now += kMinute)
        machine.step(now);
    EXPECT_EQ(machine.fault_injector().stats().agent_crashes, 1u);
    EXPECT_EQ(machine.agent().stats().restarts, 1u);
    EXPECT_EQ(machine.telemetry_snapshot().counter_or_zero(
                  "agent.restarts"),
              1u);
}

// ---------------------------------------------------------------------
// Per-job SLO breaker
// ---------------------------------------------------------------------

TEST(SloBreaker, DisablesZswapAfterConsecutiveBreaches)
{
    NodeAgentConfig config;
    config.policy = FarMemoryPolicy::kStatic;
    config.static_threshold = 4;
    config.slo.enable_delay = 0;
    config.slo_breaker_enabled = true;
    config.slo_breaker.failure_threshold = 3;
    config.slo_breaker.open_periods = 4;
    NodeAgent agent(config);

    Memcg cg(1, 1000, 42, ContentMix::typical(), 0);
    cg.mutable_cold_hist().add(0, 1000);  // WSS = 1000 pages
    agent.register_job(cg);
    std::vector<Memcg *> jobs = {&cg};

    // Three consecutive periods far above the 0.2%/min SLO trip the
    // breaker; zswap is then forced off despite the static policy.
    SimTime now = kMinute;
    for (int round = 0; round < 3; ++round, now += kMinute) {
        cg.stats().zswap_promotions += 100;  // 10% of WSS per minute
        agent.control(now, jobs, 1.0);
    }
    EXPECT_EQ(agent.stats().slo_breaker_trips, 1u);
    EXPECT_EQ(cg.reclaim_threshold(), 0u);
    EXPECT_FALSE(cg.zswap_enabled());

    // The breaker holds zswap off while open (the trip round itself
    // counts as the first open period), then a healthy half-open
    // probe restores the static threshold and closes the breaker.
    for (int round = 0; round < 2; ++round, now += kMinute) {
        agent.control(now, jobs, 1.0);
        EXPECT_EQ(cg.reclaim_threshold(), 0u);
    }
    agent.control(now, jobs, 1.0);  // half-open probe re-admits zswap
    EXPECT_EQ(cg.reclaim_threshold(), config.static_threshold);
    EXPECT_TRUE(cg.zswap_enabled());
    agent.control(now + kMinute, jobs, 1.0);  // probe succeeded: closed
    EXPECT_EQ(cg.reclaim_threshold(), config.static_threshold);
}

TEST(SloBreaker, CrashRestartResetsConsecutiveBreachCount)
{
    NodeAgentConfig config;
    config.policy = FarMemoryPolicy::kStatic;
    config.static_threshold = 4;
    config.slo.enable_delay = 0;
    config.slo_breaker_enabled = true;
    config.slo_breaker.failure_threshold = 3;
    config.slo_breaker.open_periods = 4;
    NodeAgent agent(config);

    Memcg cg(1, 1000, 42, ContentMix::typical(), 0);
    cg.mutable_cold_hist().add(0, 1000);  // WSS = 1000 pages
    agent.register_job(cg);
    std::vector<Memcg *> jobs = {&cg};

    // Two breach periods: one short of the threshold of three.
    SimTime now = kMinute;
    for (int round = 0; round < 2; ++round, now += kMinute) {
        cg.stats().zswap_promotions += 100;  // 10% of WSS per minute
        agent.control(now, jobs, 1.0);
    }
    EXPECT_EQ(agent.stats().slo_breaker_trips, 0u);

    // An agent crash loses the in-memory breach count: the restarted
    // agent starts every job's breaker from a clean closed state.
    agent.crash_restart(now, jobs);
    const CircuitBreaker *breaker = agent.slo_breaker_of(1);
    ASSERT_NE(breaker, nullptr);
    EXPECT_EQ(breaker->state(), BreakerState::kClosed);
    EXPECT_EQ(breaker->stats().opens, 0u);

    // Two more breaches after the restart: four consecutive breaches
    // spanned the crash, which would have tripped a surviving counter
    // -- the reset means the breaker must still be closed.
    for (int round = 0; round < 2; ++round, now += kMinute) {
        cg.stats().zswap_promotions += 100;
        agent.control(now, jobs, 1.0);
    }
    EXPECT_EQ(agent.stats().slo_breaker_trips, 0u);
    EXPECT_EQ(agent.slo_breaker_of(1)->state(), BreakerState::kClosed);

    // A third post-crash breach completes a fresh run of three and
    // trips normally, proving the reset didn't disable the breaker.
    cg.stats().zswap_promotions += 100;
    agent.control(now, jobs, 1.0);
    EXPECT_EQ(agent.stats().slo_breaker_trips, 1u);
    EXPECT_EQ(agent.slo_breaker_of(1)->state(), BreakerState::kOpen);
    EXPECT_FALSE(cg.zswap_enabled());
}

TEST(SloBreaker, ConfigDeploymentResetsConsecutiveBreachCount)
{
    NodeAgentConfig config;
    config.policy = FarMemoryPolicy::kStatic;
    config.static_threshold = 4;
    config.slo.enable_delay = 0;
    config.slo_breaker_enabled = true;
    config.slo_breaker.failure_threshold = 3;
    config.slo_breaker.open_periods = 4;
    NodeAgent agent(config);

    Memcg cg(1, 1000, 42, ContentMix::typical(), 0);
    cg.mutable_cold_hist().add(0, 1000);  // WSS = 1000 pages
    agent.register_job(cg);
    std::vector<Memcg *> jobs = {&cg};

    // Two breach periods under the old tunables: one short of the
    // threshold of three.
    SimTime now = kMinute;
    for (int round = 0; round < 2; ++round, now += kMinute) {
        cg.stats().zswap_promotions += 100;  // 10% of WSS per minute
        agent.control(now, jobs, 1.0);
    }
    EXPECT_EQ(agent.stats().slo_breaker_trips, 0u);

    // A new config deploys (autotuner / rollout path). Breaches
    // accumulated under the old tunables must not count toward
    // tripping under the new ones: one more breach is a fresh streak
    // of one, not the completion of a streak of three.
    SloConfig slo = config.slo;
    slo.percentile_k = 95.0;
    agent.deploy_slo(now, slo, /*epoch=*/1, /*conservative=*/false,
                     jobs);
    EXPECT_EQ(agent.config_epoch(), 1u);

    cg.stats().zswap_promotions += 100;
    agent.control(now, jobs, 1.0);
    now += kMinute;
    EXPECT_EQ(agent.stats().slo_breaker_trips, 0u);
    EXPECT_EQ(agent.slo_breaker_of(1)->state(), BreakerState::kClosed);

    // Two more breaches complete a fresh run of three under the new
    // config and trip normally -- the reset didn't disable the
    // breaker.
    for (int round = 0; round < 2; ++round, now += kMinute) {
        cg.stats().zswap_promotions += 100;
        agent.control(now, jobs, 1.0);
    }
    EXPECT_EQ(agent.stats().slo_breaker_trips, 1u);
    EXPECT_EQ(agent.slo_breaker_of(1)->state(), BreakerState::kOpen);
}

// ---------------------------------------------------------------------
// Cluster-level donor failure
// ---------------------------------------------------------------------

ClusterConfig
remote_cluster_config()
{
    ClusterConfig config;
    config.num_machines = 4;
    config.machine = static_machine_config();
    // Room for the mix's largest archetype (32768 pages) beside the
    // pages donors lend, so a killed job's replacement finds a home.
    config.machine.dram_pages = 64 * 1024;
    config.machine.tiers = {deep_tier(TierKind::kRemote)};
    config.pool = permanent_lease_pool(1024, 4);
    config.target_utilization = 0.6;
    config.churn_per_hour = 0.0;
    config.mix = typical_fleet_mix();
    return config;
}

TEST(FaultCluster, InjectedDonorFailureKillsAndReschedules)
{
    Cluster cluster(0, remote_cluster_config(), 29);
    cluster.populate(0);
    SimTime now = 0;
    for (; now < 30 * kMinute; now += kMinute)
        cluster.step(now);

    // Find a lease actually holding pages so the failure has victims.
    std::uint32_t machine_index = 0, lease = 0;
    bool found = false;
    for (std::uint32_t m = 0;
         m < cluster.machines().size() && !found; ++m) {
        RemoteTier *remote = cluster.machines()[m]->remote_tier();
        ASSERT_NE(remote, nullptr);
        for (const auto &slot : remote->lease_slots()) {
            if (slot.used > 0) {
                machine_index = m;
                lease = slot.id;
                found = true;
                break;
            }
        }
    }
    ASSERT_TRUE(found) << "no lease holds pages after 30 minutes";

    std::uint64_t jobs_before = cluster.num_jobs();
    DonorFailureResult result =
        cluster.inject_donor_failure(now, machine_index, lease);
    EXPECT_FALSE(result.killed.empty());
    // Victims restart fresh elsewhere: the fleet heals to the same
    // job count.
    EXPECT_EQ(result.rescheduled, result.killed.size());
    EXPECT_EQ(cluster.num_jobs(), jobs_before);
    // The victims are really gone (killed, not migrated).
    for (JobId victim : result.killed) {
        for (auto &machine : cluster.machines())
            EXPECT_EQ(machine->find_job(victim), nullptr);
    }
    // And the step loop keeps running afterwards.
    for (; now < 40 * kMinute; now += kMinute)
        cluster.step(now);
}

// ---------------------------------------------------------------------
// Fleet-level determinism + fault report
// ---------------------------------------------------------------------

FleetConfig
chaos_fleet_config()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.cluster.num_machines = 3;
    config.cluster.machine = static_machine_config();
    config.cluster.machine.dram_pages = 16 * 1024;
    config.cluster.machine.tiers = {deep_tier(TierKind::kRemote)};
    config.cluster.pool = permanent_lease_pool(1024, 4);
    config.cluster.mix = typical_fleet_mix();
    config.cluster.machine.fault.enabled = true;
    config.cluster.machine.fault.donor_failure_prob = 0.05;
    config.cluster.machine.fault.zswap_corruption_prob = 0.3;
    config.cluster.machine.fault.agent_crash_prob = 0.02;
    config.seed = 31;
    return config;
}

TEST(FleetFaults, ReportSurfacesRecoveryAndIsDeterministic)
{
    FarMemorySystem a(chaos_fleet_config());
    FarMemorySystem b(chaos_fleet_config());
    a.populate();
    b.populate();
    a.run(kHour);
    b.run(kHour);

    FleetFaultReport ra = a.fault_report();
    FleetFaultReport rb = b.fault_report();
    // Faults fired and the fleet survived a full hour of them. (With
    // a remote tier configured, moderately-cold pages land there
    // before reaching zswap's deep threshold, so corruption events
    // often find zswap empty -- donor failures and agent crashes are
    // the robust signals here.)
    EXPECT_GT(ra.faults_injected, 0u);
    EXPECT_GT(ra.donor_failures, 0u);
    EXPECT_GT(ra.agent_restarts, 0u);
    EXPECT_GT(a.num_jobs(), 0u);
    // Same seed, same chaos: the whole trajectory is reproducible.
    EXPECT_EQ(ra.faults_injected, rb.faults_injected);
    EXPECT_EQ(ra.donor_failures, rb.donor_failures);
    EXPECT_EQ(ra.jobs_killed, rb.jobs_killed);
    EXPECT_EQ(ra.corruptions, rb.corruptions);
    EXPECT_EQ(ra.poisoned_entries, rb.poisoned_entries);
    EXPECT_EQ(ra.agent_restarts, rb.agent_restarts);
    EXPECT_DOUBLE_EQ(a.fleet_coverage(), b.fleet_coverage());
}

}  // namespace
}  // namespace sdfm

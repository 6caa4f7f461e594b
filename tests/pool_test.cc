/**
 * @file
 * Tests for lease-based cluster memory pooling: the lease lifecycle
 * state machine, the MemoryBroker's grant/revoke/drain control plane
 * under message loss and stalls, the per-machine control-plane
 * breaker (and its fallback routing to shallower tiers), and the
 * lease table's checkpoint section -- round trips that continue the
 * digest trajectory mid-revocation, and corrupt-table rejection that
 * leaves the live fleet untouched.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "cluster/cluster.h"
#include "cluster/lease.h"
#include "cluster/mem_pool.h"
#include "core/far_memory_system.h"
#include "fault/circuit_breaker.h"
#include "node/machine.h"
#include "util/invariant.h"
#include "workload/job.h"
#include "workload/job_profile.h"

namespace sdfm {
namespace {

// ---------------------------------------------------------------------
// Lease lifecycle state machine
// ---------------------------------------------------------------------

TEST(LeaseTest, TransitionMatrixMatchesLifecycle)
{
    using S = LeaseState;
    const S all[] = {S::kGranted, S::kActive, S::kRevoking, S::kRevoked,
                     S::kExpired};
    auto legal = [](S from, S to) {
        return lease_transition_legal(from, to);
    };
    // The only legal hops: grant delivery, grant abort, revocation
    // (or natural expiry) entering the grace window, and the grace
    // window resolving to either terminal.
    EXPECT_TRUE(legal(S::kGranted, S::kActive));
    EXPECT_TRUE(legal(S::kGranted, S::kRevoked));
    EXPECT_TRUE(legal(S::kActive, S::kRevoking));
    EXPECT_TRUE(legal(S::kActive, S::kRevoked));
    EXPECT_TRUE(legal(S::kRevoking, S::kRevoked));
    EXPECT_TRUE(legal(S::kRevoking, S::kExpired));
    int legal_count = 0;
    for (S from : all) {
        for (S to : all) {
            if (legal(from, to))
                ++legal_count;
            // Terminal states never leave; nothing re-enters kGranted.
            if (from == S::kRevoked || from == S::kExpired) {
                EXPECT_FALSE(legal(from, to));
            }
            EXPECT_FALSE(legal(from, S::kGranted));
        }
    }
    EXPECT_EQ(legal_count, 6);
}

TEST(LeaseTest, CkptRoundTripPreservesEveryField)
{
    Lease lease;
    lease.id = 42;
    lease.donor = 3;
    lease.borrower = 1;
    lease.pages = 4096;
    lease.state = LeaseState::kRevoking;
    lease.deadline = 90 * kMinute;
    lease.grace_remaining = 2;
    lease.expiry = true;
    lease.revoke_pending = false;
    lease.grant_retries = 1;
    lease.grant_backoff_remaining = 0;

    Serializer s;
    lease.ckpt_save(s);
    Lease restored;
    Deserializer d(s.bytes());
    ASSERT_TRUE(restored.ckpt_load(d));
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d.at_end());
    EXPECT_EQ(restored.state_digest(), lease.state_digest());
    EXPECT_EQ(restored.id, lease.id);
    EXPECT_EQ(restored.state, lease.state);
    EXPECT_EQ(restored.deadline, lease.deadline);
}

TEST(LeaseTest, CorruptStateByteIsRejected)
{
    Lease lease;
    lease.id = 7;
    lease.donor = 0;
    lease.borrower = 1;
    lease.pages = 1024;
    Serializer s;
    lease.ckpt_save(s);
    std::vector<std::uint8_t> bytes = s.take();
    // The state byte rides right after id/donor/borrower/pages
    // (4 + 4 + 4 + 8 bytes in).
    bytes[20] = 0x7F;
    Lease restored;
    Deserializer d(bytes.data(), bytes.size());
    EXPECT_FALSE(restored.ckpt_load(d));
}

#ifdef SDFM_CHECK_INVARIANTS

TEST(LeaseDeathTest, IllegalTransitionDies)
{
    Lease lease;
    lease.state = LeaseState::kExpired;
    // Terminal states are final; reviving one must trip the check.
    EXPECT_DEATH(lease.transition(LeaseState::kActive),
                 "invariant violated");
}

#endif  // SDFM_CHECK_INVARIANTS

// ---------------------------------------------------------------------
// Broker control plane (direct unit tests, no cluster)
// ---------------------------------------------------------------------

/** The remote tier these tests pool: lease slots claiming the ages
 *  in [T, 4T). */
TierConfig
lease_tier()
{
    TierConfig tier;
    tier.kind = TierKind::kRemote;
    tier.band_hi = 4.0;
    return tier;
}

MachineConfig
pooled_machine()
{
    MachineConfig config;
    config.dram_pages = 16 * 1024;
    config.compression = CompressionMode::kModeled;
    config.tiers = {lease_tier()};
    return config;
}

MachineConfig
donor_machine()
{
    // No remote tier at all: this machine can lend DRAM but never
    // borrows (remote_tier() is null, so matching skips it).
    MachineConfig config;
    config.dram_pages = 16 * 1024;
    config.compression = CompressionMode::kModeled;
    return config;
}

MemPoolParams
small_pool()
{
    MemPoolParams params;
    params.enabled = true;
    params.lease_pages = 1024;
    params.max_leases_per_borrower = 1;
    params.lease_term_periods = 60;
    params.grace_periods = 2;
    params.drain_pages_per_period = 512;
    params.donor_reserve_frac = 0.10;
    return params;
}

std::vector<std::unique_ptr<Machine>>
two_machines()
{
    std::vector<std::unique_ptr<Machine>> machines;
    machines.push_back(std::make_unique<Machine>(0, pooled_machine(), 11));
    machines.push_back(std::make_unique<Machine>(1, donor_machine(), 22));
    return machines;
}

/** Load @p machine with fresh jobs until its free DRAM drops under
 *  @p target_free pages (the donor-pressure trigger in these tests). */
void
pressurize(Machine &machine, std::uint64_t target_free)
{
    const FleetMix mix = typical_fleet_mix();
    const JobProfile &profile = mix.profiles[0];
    JobId id = 1ull << 32;
    // Overshooting DRAM is fine: nothing steps the machine here, so
    // no OOM eviction runs -- free_pages() just clamps at zero and
    // the donor-pressure condition holds.
    while (machine.free_pages() >= target_free) {
        ++id;
        machine.add_job(
            std::make_unique<Job>(id, profile, id * 7919, 0));
    }
}

TEST(BrokerTest, GrantDeliversOneRoundTripLater)
{
    auto machines = two_machines();
    MemoryBroker broker(small_pool(), 99, 2);

    // Step 1: the borrower (empty lease slots) is matched to the
    // donor; the lease is issued but not yet delivered, and the
    // donor's pages are already committed.
    broker.step(0, kMinute, machines);
    ASSERT_EQ(broker.leases().size(), 1u);
    const Lease &lease = broker.leases().begin()->second;
    EXPECT_EQ(lease.state, LeaseState::kGranted);
    EXPECT_EQ(lease.donor, 1u);
    EXPECT_EQ(lease.borrower, 0u);
    EXPECT_EQ(lease.pages, 1024u);
    EXPECT_EQ(machines[1]->donated_pages(), 1024u);
    EXPECT_EQ(broker.stats().leases_issued, 1u);
    EXPECT_EQ(broker.stats().leases_granted, 0u);
    broker.check_invariants(machines);

    // Step 2: delivery lands; the borrower's remote tier now has a
    // slot and the lease got its natural-term deadline.
    broker.step(kMinute, kMinute, machines);
    EXPECT_EQ(lease.state, LeaseState::kActive);
    EXPECT_EQ(lease.deadline,
              kMinute + 60 * kMinute);
    EXPECT_EQ(broker.stats().leases_granted, 1u);
    ASSERT_NE(machines[0]->remote_tier(), nullptr);
    EXPECT_EQ(machines[0]->remote_tier()->capacity_pages(), 1024u);
    broker.check_invariants(machines);
}

TEST(BrokerTest, DonorPressureRevokesAndEmptyLeaseDrainsClean)
{
    auto machines = two_machines();
    MemoryBroker broker(small_pool(), 99, 2);
    broker.step(0, kMinute, machines);
    broker.step(kMinute, kMinute, machines);
    ASSERT_EQ(broker.leases().begin()->second.state,
              LeaseState::kActive);

    // Heat the donor past its reserve (10% of 16384 = 1638 pages).
    pressurize(*machines[1], 1638);

    // The broker revokes the donor's newest lease; the borrower's
    // slot is empty, so the drain completes inside the same step and
    // the donor gets its pages back without any job dying.
    broker.step(2 * kMinute, kMinute, machines);
    EXPECT_EQ(broker.leases().begin()->second.state,
              LeaseState::kRevoked);
    EXPECT_EQ(broker.stats().revocations, 1u);
    EXPECT_EQ(broker.stats().clean_drains, 1u);
    EXPECT_EQ(broker.stats().forced_kills, 0u);
    EXPECT_EQ(broker.stats().expiries, 0u);
    EXPECT_EQ(machines[1]->donated_pages(), 0u);
    broker.check_invariants(machines);

    // Terminal leases are pruned at the start of the next step.
    broker.step(3 * kMinute, kMinute, machines);
    for (const auto &[id, lease] : broker.leases())
        EXPECT_FALSE(lease.terminal());
}

TEST(BrokerTest, NaturalExpiryTerminatesAsExpired)
{
    MemPoolParams params = small_pool();
    params.lease_term_periods = 3;
    auto machines = two_machines();
    MemoryBroker broker(params, 99, 2);
    broker.step(0, kMinute, machines);
    broker.step(kMinute, kMinute, machines);  // active, deadline t+3
    SimTime now = 2 * kMinute;
    // Run past the deadline: the lease drains out through the same
    // revocation path but terminates as a natural expiry.
    for (; now <= 6 * kMinute; now += kMinute) {
        broker.step(now, kMinute, machines);
        if (broker.stats().expiries > 0)
            break;
    }
    EXPECT_EQ(broker.stats().expiries, 1u);
    EXPECT_EQ(broker.stats().forced_kills, 0u);
    bool saw_expired = false;
    for (const auto &[id, lease] : broker.leases())
        saw_expired |= lease.state == LeaseState::kExpired;
    EXPECT_TRUE(saw_expired);
}

TEST(BrokerTest, LostGrantsRetryWithBackoffThenAbort)
{
    MemPoolParams params = small_pool();
    params.max_grant_retries = 2;
    params.grant_backoff_base = 1;
    params.fault.enabled = true;
    params.fault.lease_grant_loss_prob = 1.0;  // every delivery lost
    auto machines = two_machines();
    MemoryBroker broker(params, 99, 2);

    SimTime now = 0;
    for (int i = 0; i < 12; ++i, now += kMinute)
        broker.step(now, kMinute, machines);

    // Every delivery attempt was lost: grants abort after bounded
    // retries, nothing ever activates, and each abort returns the
    // donor's committed pages before the next match re-issues.
    EXPECT_GE(broker.stats().grants_aborted, 1u);
    EXPECT_EQ(broker.stats().leases_granted, 0u);
    for (const auto &[id, lease] : broker.leases())
        EXPECT_NE(lease.state, LeaseState::kActive);
    broker.check_invariants(machines);
}

// Every delivery is lost and the grant never aborts: the backoff
// doubles up to 64 periods and stays there. Uncapped, retry 8 would
// wait 128 periods, and the shift is undefined past retry 64.
TEST(BrokerTest, GrantBackoffStaysCappedPastSixtyFourRetries)
{
    MemPoolParams params = small_pool();
    params.max_grant_retries = 100;
    params.grant_backoff_base = 1;
    params.fault.enabled = true;
    params.fault.lease_grant_loss_prob = 1.0;
    auto machines = two_machines();
    MemoryBroker broker(params, 99, 2);

    SimTime now = 0;
    std::uint32_t retries = 0;
    for (int i = 0; i < 5000 && retries < 70; ++i, now += kMinute) {
        broker.step(now, kMinute, machines);
        ASSERT_EQ(broker.leases().size(), 1u);
        const Lease &lease = broker.leases().begin()->second;
        ASSERT_EQ(lease.state, LeaseState::kGranted);
        ASSERT_LE(lease.grant_backoff_remaining, 64u)
            << "after retry " << lease.grant_retries;
        retries = lease.grant_retries;
    }
    EXPECT_EQ(retries, 70u);
    EXPECT_EQ(broker.stats().grants_aborted, 0u);
}

// A term that ends past the end of time never expires. Unsaturated,
// the u64 maximum casts to -1 periods and 2^62 periods overflows the
// deadline, and either lease expires at once.
TEST(BrokerTest, LeaseTermPastEndOfTimeNeverExpires)
{
    for (std::uint64_t term : {std::numeric_limits<std::uint64_t>::max(),
                               std::uint64_t{1} << 62}) {
        MemPoolParams params = small_pool();
        params.lease_term_periods = term;
        auto machines = two_machines();
        MemoryBroker broker(params, 99, 2);
        SimTime now = 0;
        for (int i = 0; i < 10; ++i, now += kMinute)
            broker.step(now, kMinute, machines);
        ASSERT_EQ(broker.leases().size(), 1u) << "term " << term;
        const Lease &lease = broker.leases().begin()->second;
        EXPECT_EQ(lease.state, LeaseState::kActive) << "term " << term;
        EXPECT_EQ(lease.deadline, std::numeric_limits<SimTime>::max());
        EXPECT_EQ(broker.stats().revocations, 0u);
    }
}

TEST(BrokerTest, LostRevocationsRedeliverAndOpenTheBreaker)
{
    MemPoolParams params = small_pool();
    params.fault.enabled = true;
    params.fault.revocation_loss_prob = 1.0;  // every revocation lost
    auto machines = two_machines();
    MemoryBroker broker(params, 99, 2);
    broker.step(0, kMinute, machines);
    broker.step(kMinute, kMinute, machines);
    ASSERT_EQ(broker.leases().begin()->second.state,
              LeaseState::kActive);
    pressurize(*machines[1], 1638);

    SimTime now = 2 * kMinute;
    for (int i = 0; i < 6; ++i, now += kMinute)
        broker.step(now, kMinute, machines);

    // The revocation decision stands but its message never arrives:
    // the lease stays active with redelivery pending, and the
    // borrower's repeated control-plane failures open its breaker.
    const Lease &lease = broker.leases().begin()->second;
    EXPECT_EQ(lease.state, LeaseState::kActive);
    EXPECT_TRUE(lease.revoke_pending);
    EXPECT_EQ(broker.stats().revocations, 0u);
    EXPECT_GE(broker.stats().breaker_opens, 1u);
    EXPECT_EQ(broker.breaker(0).state(), BreakerState::kOpen);
    broker.check_invariants(machines);
}

TEST(BrokerTest, StalledBrokerMakesNoProgressAndTripsBreakers)
{
    MemPoolParams params = small_pool();
    params.fault.enabled = true;
    params.fault.broker_stall_prob = 1.0;
    params.fault.broker_stall_duration = 60 * kMinute;
    auto machines = two_machines();
    MemoryBroker broker(params, 99, 2);

    SimTime now = 0;
    for (int i = 0; i < 6; ++i, now += kMinute) {
        BrokerStepResult result = broker.step(now, kMinute, machines);
        EXPECT_TRUE(result.stalled);
        EXPECT_TRUE(result.killed.empty());
    }
    // No matches, no grants -- and every machine observed the outage.
    EXPECT_TRUE(broker.leases().empty());
    EXPECT_EQ(broker.stats().leases_issued, 0u);
    EXPECT_GE(broker.stats().breaker_opens, 2u);
    EXPECT_EQ(broker.breaker(0).state(), BreakerState::kOpen);
    EXPECT_EQ(broker.breaker(1).state(), BreakerState::kOpen);
}

// ---------------------------------------------------------------------
// Fleet-level pooling (grace drains, breaker fallback, determinism)
// ---------------------------------------------------------------------

FleetConfig
pooled_fleet(std::uint64_t seed)
{
    FleetConfig config;
    config.seed = seed;
    config.num_clusters = 1;
    config.cluster.mix = typical_fleet_mix();
    config.cluster.num_machines = 4;
    config.cluster.machine.dram_pages = 16 * 1024;
    config.cluster.machine.tiers = {lease_tier()};
    MemPoolParams &pool = config.cluster.pool;
    pool.enabled = true;
    pool.lease_pages = 1024;
    pool.max_leases_per_borrower = 2;
    pool.lease_term_periods = 8;
    pool.grace_periods = 2;
    pool.drain_pages_per_period = 512;
    pool.donor_reserve_frac = 0.08;
    return config;
}

TEST(PoolFleetTest, LeasesCirculateAndDrainWithoutKills)
{
    // Short terms force the full lifecycle -- grant, activate, expire,
    // grace-drain -- several times over; with a working drain rate no
    // lease should ever reach the forced-kill path.
    FleetConfig config = pooled_fleet(5);
    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < 45; ++i) {
        fleet.step();
        fleet.check_invariants();
    }
    FleetFaultReport report = fleet.fault_report();
    EXPECT_GT(report.pool_leases_granted, 0u);
    EXPECT_GT(report.pool_revocations, 0u);
    EXPECT_EQ(report.pool_forced_kills, 0u);
}

TEST(PoolFleetTest, PermanentLeasesNeverRevokeAndRegrantAfterDonorCrash)
{
    // A static donor pool: a term that outlasts the run and no donor
    // reserve, so the broker never revokes. One lease per borrower,
    // so a borrower whose lease dies with its donor asks for another.
    FleetConfig config = pooled_fleet(5);
    config.cluster.pool.lease_term_periods = 1000;
    config.cluster.pool.donor_reserve_frac = 0.0;
    config.cluster.pool.max_leases_per_borrower = 1;
    ScheduledFault crash;
    crash.at = config.start_time + 30 * kMinute;
    crash.event.kind = FaultKind::kDonorFailure;
    config.cluster.machine.fault.enabled = true;
    config.cluster.machine.fault.schedule = {crash};
    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < 30; ++i)
        fleet.step();
    const MemoryBroker *broker = fleet.clusters()[0]->broker();
    ASSERT_NE(broker, nullptr);
    std::map<LeaseId, std::uint32_t> borrower_of;
    for (const auto &[id, lease] : broker->leases()) {
        if (lease.state == LeaseState::kActive)
            borrower_of[id] = lease.borrower;
    }
    ASSERT_FALSE(borrower_of.empty());
    const LeaseId first_new_id = broker->leases().rbegin()->first + 1;

    for (int i = 0; i < 30; ++i) {
        fleet.step();
        fleet.check_invariants();
    }
    const MemPoolStats &stats = broker->stats();
    EXPECT_GT(stats.donor_crash_revocations, 0u);
    EXPECT_EQ(stats.revocations, 0u);
    EXPECT_EQ(stats.grace_drain_pages, 0u);
    EXPECT_EQ(stats.forced_kills, 0u);
    // Every lease that died with its donor left a borrower that holds
    // a newer lease now.
    std::uint64_t crashed = 0;
    for (const auto &[id, borrower] : borrower_of) {
        auto it = broker->leases().find(id);
        if (it != broker->leases().end() &&
            it->second.state == LeaseState::kActive) {
            continue;
        }
        ++crashed;
        bool regranted = false;
        for (const auto &[new_id, lease] : broker->leases()) {
            regranted |= new_id >= first_new_id &&
                         lease.borrower == borrower &&
                         lease.state == LeaseState::kActive;
        }
        EXPECT_TRUE(regranted) << "borrower " << borrower;
    }
    EXPECT_GT(crashed, 0u);
}

TEST(PoolFleetTest, ZeroDrainRateForcesKillsAtGraceEnd)
{
    // A borrower that cannot drain at all forfeits the lease when the
    // grace window closes: the owning jobs die -- the one pooling
    // path that still kills jobs without a donor crash.
    FleetConfig config = pooled_fleet(5);
    config.cluster.pool.drain_pages_per_period = 0;
    config.cluster.pool.grace_periods = 1;
    FarMemorySystem fleet(config);
    fleet.populate();
    std::uint64_t stored_seen = 0;
    for (int i = 0; i < 45; ++i) {
        fleet.step();
        for (const auto &machine :
             fleet.clusters()[0]->machines()) {
            stored_seen =
                std::max(stored_seen, machine->tier_stored_pages());
        }
    }
    FleetFaultReport report = fleet.fault_report();
    ASSERT_GT(stored_seen, 0u)
        << "no lease slot ever carried pages; the kill path was "
           "never reachable";
    EXPECT_GT(report.pool_forced_kills, 0u);
}

TEST(PoolFleetTest, BrokerOutageOpensBreakersAndReroutesDemotions)
{
    // Ten clean minutes of pooling, then the broker stalls for the
    // rest of the run: every machine's control-plane breaker opens,
    // the remote tier is gated to zero budget, and demotions
    // fall through the route table to zswap -- no job is killed.
    FleetConfig config = pooled_fleet(5);
    ScheduledFault stall;
    stall.at = config.start_time + 10 * kMinute;
    stall.event.kind = FaultKind::kBrokerStall;
    stall.event.duration = 120 * kMinute;
    config.cluster.pool.fault.enabled = true;
    config.cluster.pool.fault.schedule = {stall};
    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < 40; ++i)
        fleet.step();

    FleetFaultReport report = fleet.fault_report();
    EXPECT_GT(report.pool_leases_granted, 0u);
    EXPECT_GT(report.pool_broker_stalls, 0u);
    EXPECT_GE(report.pool_breaker_opens,
              config.cluster.num_machines);
    EXPECT_EQ(report.pool_forced_kills, 0u);
    EXPECT_EQ(report.jobs_killed, 0u);
    const MemoryBroker *broker = fleet.clusters()[0]->broker();
    ASSERT_NE(broker, nullptr);
    for (std::uint32_t m = 0; m < config.cluster.num_machines; ++m)
        EXPECT_EQ(broker->breaker(m).state(), BreakerState::kOpen);
    std::uint64_t zswap_stored = 0;
    for (const auto &machine : fleet.clusters()[0]->machines())
        zswap_stored += machine->zswap_stored_pages();
    EXPECT_GT(zswap_stored, 0u)
        << "gated demotions should fall through to zswap";
}

TEST(PoolFleetTest, SerialAndParallelSteppingAgreeWithPooling)
{
    FleetConfig serial_config = pooled_fleet(9);
    serial_config.num_clusters = 2;
    serial_config.serial_step = true;
    FleetConfig parallel_config = pooled_fleet(9);
    parallel_config.num_clusters = 2;
    parallel_config.serial_step = false;

    FarMemorySystem serial(serial_config);
    FarMemorySystem parallel(parallel_config);
    serial.populate();
    parallel.populate();
    ASSERT_EQ(serial.state_digest(), parallel.state_digest());
    for (int i = 0; i < 15; ++i) {
        serial.step();
        parallel.step();
        ASSERT_EQ(serial.state_digest(), parallel.state_digest())
            << "diverged at step " << i;
        // The rollups (pool.* included) agree exactly too.
        MetricsSnapshot s = serial.fleet_telemetry();
        MetricsSnapshot p = parallel.fleet_telemetry();
        ASSERT_EQ(s.counters, p.counters) << "at step " << i;
        ASSERT_EQ(s.gauges, p.gauges) << "at step " << i;
        ASSERT_TRUE(s.histograms == p.histograms)
            << "histograms diverged at step " << i;
    }
}

// ---------------------------------------------------------------------
// Cluster configs the broker cannot serve
// ---------------------------------------------------------------------

ClusterConfig
small_cluster()
{
    ClusterConfig config;
    config.num_machines = 2;
    config.machine.dram_pages = 16 * 1024;
    config.mix = typical_fleet_mix();
    return config;
}

TEST(PoolConfigDeathTest, RemoteTierWithoutPoolRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ClusterConfig config = small_cluster();
    config.machine.tiers = {lease_tier()};
    EXPECT_DEATH({ Cluster cluster(0, config, 1); },
                 "kRemote tier in machine.tiers needs pool.enabled");
}

TEST(PoolConfigDeathTest, SecondRemoteTierRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ClusterConfig config = small_cluster();
    TierConfig deeper = lease_tier();
    deeper.label = "remote_deep";
    deeper.band_lo = 4.0;
    deeper.band_hi = 0.0;
    config.machine.tiers = {lease_tier(), deeper};
    config.pool.enabled = true;
    EXPECT_DEATH({ Cluster cluster(0, config, 1); },
                 "machine.tiers holds at most one kRemote tier");
}

TEST(PoolConfigDeathTest, PoolWithoutRemoteTierRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ClusterConfig config = small_cluster();
    config.pool.enabled = true;
    EXPECT_DEATH({ Cluster cluster(0, config, 1); },
                 "pool.enabled needs a kRemote tier in machine.tiers");
}

// ---------------------------------------------------------------------
// Checkpoint: the lease table section
// ---------------------------------------------------------------------

struct TempCkpt
{
    explicit TempCkpt(const char *name) : path(name) {}
    ~TempCkpt() { std::remove(path.c_str()); }
    std::string path;
};

bool
any_lease_revoking(const FarMemorySystem &fleet)
{
    for (const auto &cluster : fleet.clusters()) {
        const MemoryBroker *broker = cluster->broker();
        if (broker == nullptr)
            continue;
        for (const auto &[id, lease] : broker->leases()) {
            if (lease.state == LeaseState::kRevoking)
                return true;
        }
    }
    return false;
}

TEST(PoolCkpt, RoundTripMidRevocationContinuesDigestTrajectory)
{
    TempCkpt ckpt("pool_ckpt_traj.ckpt");
    FleetConfig config = pooled_fleet(5);

    // Step the reference fleet until a lease is mid-revocation (in
    // its grace window), so the checkpoint captures the hardest
    // slice of lease state: partial drains, grace countdowns, and a
    // borrower slot marked draining.
    FarMemorySystem reference(config);
    reference.populate();
    bool found = false;
    for (int i = 0; i < 60 && !found; ++i) {
        reference.step();
        found = any_lease_revoking(reference);
    }
    ASSERT_TRUE(found) << "no lease entered its grace window; the "
                          "checkpoint would not cover mid-revocation";
    ASSERT_EQ(reference.checkpoint(ckpt.path), CkptStatus::kOk);

    FarMemorySystem resumed(config);
    ASSERT_EQ(resumed.restore(ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(resumed.state_digest(), reference.state_digest());
    for (int i = 0; i < 12; ++i) {
        reference.step();
        resumed.step();
        ASSERT_EQ(resumed.state_digest(), reference.state_digest())
            << "diverged " << i << " steps after restore";
    }
}

TEST(PoolCkpt, CorruptLeaseTableRejectsRestoreAndSparesLiveFleet)
{
    TempCkpt good("pool_ckpt_good.ckpt");
    TempCkpt bad("pool_ckpt_bad.ckpt");
    FleetConfig config = pooled_fleet(5);
    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < 12; ++i)
        fleet.step();
    ASSERT_EQ(fleet.checkpoint(good.path), CkptStatus::kOk);
    for (int i = 0; i < 3; ++i)
        fleet.step();
    const std::uint64_t live_digest = fleet.state_digest();

    auto rewrite_pool_section =
        [&](const std::vector<std::uint8_t> &payload) {
            CkptReader reader;
            ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
            CkptWriter writer(bad.path);
            bool found = false;
            for (const CkptSection &section : reader.sections()) {
                if (section.name == "pool.0000") {
                    writer.add_section(section.name, payload);
                    found = true;
                } else {
                    writer.add_section(section.name, section.payload);
                }
            }
            ASSERT_TRUE(found) << "pooled checkpoint lacks its pool "
                                  "section";
            ASSERT_EQ(writer.finish(), CkptStatus::kOk);
        };

    auto expect_rejected = [&](CkptStatus want) {
        EXPECT_EQ(fleet.restore(bad.path), want);
        EXPECT_EQ(fleet.state_digest(), live_digest)
            << "a rejected restore mutated the live fleet";
    };

    {  // CRC-valid garbage where the lease table should be
        rewrite_pool_section({0xDE, 0xAD, 0xBE});
        expect_rejected(CkptStatus::kCorruptPayload);
    }
    {  // pool section from a different wire lineage
        CkptReader reader;
        ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
        const std::span<const std::uint8_t> *payload =
            reader.section("pool.0000");
        ASSERT_NE(payload, nullptr);
        std::vector<std::uint8_t> versioned(payload->begin(), payload->end());
        versioned[0] ^= 0x08;  // the section's own version u32
        rewrite_pool_section(versioned);
        expect_rejected(CkptStatus::kBadVersion);
    }
    {  // a parseable table that disagrees with the machines: flip a
       // lease state deep in the payload and recompute nothing --
       // ckpt_load or ckpt_resolve must catch the inconsistency
        CkptReader reader;
        ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
        const std::span<const std::uint8_t> *payload =
            reader.section("pool.0000");
        ASSERT_NE(payload, nullptr);
        std::vector<std::uint8_t> truncated(
            payload->begin(), payload->end() - 8);
        rewrite_pool_section(truncated);
        expect_rejected(CkptStatus::kCorruptPayload);
    }
    {  // dropping the pool section entirely is also a corrupt file
        CkptReader reader;
        ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
        CkptWriter writer(bad.path);
        for (const CkptSection &section : reader.sections()) {
            if (section.name != "pool.0000")
                writer.add_section(section.name, section.payload);
        }
        ASSERT_EQ(writer.finish(), CkptStatus::kOk);
        expect_rejected(CkptStatus::kCorruptPayload);
    }
}

}  // namespace
}  // namespace sdfm

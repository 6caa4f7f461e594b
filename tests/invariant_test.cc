/**
 * @file
 * Tests for the SDFM_INVARIANT tier and the determinism contract.
 *
 * The corruption tests use the debug_* hooks (only compiled when
 * SDFM_CHECK_INVARIANTS is defined) to break an internal invariant
 * on purpose and prove check_invariants() catches it; they skip in
 * builds without the flag. The serial-vs-parallel digest test is
 * ungated: serial_step is a plain config knob, and the digests must
 * agree in every build.
 */

#include <gtest/gtest.h>

#include "compression/compressor.h"
#include "core/far_memory_system.h"
#include "fault/circuit_breaker.h"
#include "mem/memcg.h"
#include "mem/zswap.h"
#include "node/threshold_controller.h"
#include "util/invariant.h"

namespace sdfm {
namespace {

[[maybe_unused]] ContentMix
compressible_mix()
{
    return ContentMix(0.0, 0.0, 1.0, 0.0, 0.0);
}

FleetConfig
tiny_fleet()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.cluster.num_machines = 3;
    config.cluster.machine.dram_pages = 96ull * kMiB / kPageSize;
    config.cluster.machine.compression = CompressionMode::kModeled;
    config.cluster.mix = typical_fleet_mix();
    config.cluster.target_utilization = 0.7;
    config.seed = 7;
    return config;
}

// ------------------------------------------------- determinism contract

TEST(DeterminismTest, SerialAndParallelSteppingAgree)
{
    FleetConfig serial_config = tiny_fleet();
    serial_config.serial_step = true;
    FleetConfig parallel_config = tiny_fleet();
    parallel_config.serial_step = false;

    FarMemorySystem serial(serial_config);
    FarMemorySystem parallel(parallel_config);
    serial.populate();
    parallel.populate();
    ASSERT_EQ(serial.state_digest(), parallel.state_digest());

    for (int minute = 0; minute < 30; ++minute) {
        serial.step();
        parallel.step();
        ASSERT_EQ(serial.state_digest(), parallel.state_digest())
            << "digests diverged at minute " << minute;
        // Telemetry sits outside the digest; each machine's stats have
        // one writer (its own step), so the rollups agree exactly.
        MetricsSnapshot s = serial.fleet_telemetry();
        MetricsSnapshot p = parallel.fleet_telemetry();
        ASSERT_EQ(s.counters, p.counters) << "at minute " << minute;
        ASSERT_EQ(s.gauges, p.gauges) << "at minute " << minute;
        ASSERT_TRUE(s.histograms == p.histograms)
            << "histograms diverged at minute " << minute;
    }
}

TEST(DeterminismTest, SameSeedSameTrajectory)
{
    FarMemorySystem a(tiny_fleet());
    FarMemorySystem b(tiny_fleet());
    a.populate();
    b.populate();
    a.run(20 * kMinute);
    b.run(20 * kMinute);
    EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(DeterminismTest, DigestIsSensitiveToState)
{
    FarMemorySystem a(tiny_fleet());
    a.populate();
    std::uint64_t before = a.state_digest();
    a.step();
    EXPECT_NE(a.state_digest(), before);
}

// ---------------------------------------------------- positive checking

TEST(InvariantTest, HealthyFleetPassesChecks)
{
    FarMemorySystem fleet(tiny_fleet());
    fleet.populate();
    fleet.run(30 * kMinute);
    // Machine::step already checks per step in invariant builds; this
    // exercises the whole-fleet entry point (a no-op when the tier is
    // compiled out, which is also worth covering).
    fleet.check_invariants();
}

TEST(InvariantTest, HealthyBreakerAndControllerPassChecks)
{
    CircuitBreaker breaker;
    for (int i = 0; i < 10; ++i) {
        breaker.record_failure();
        breaker.tick();
    }
    breaker.check_invariants();

    ThresholdController controller(SloConfig{}, /*job_start=*/0);
    controller.check_invariants();
}

// -------------------------------------------------- corruption (death)

#ifdef SDFM_CHECK_INVARIANTS

TEST(InvariantDeathTest, MemcgResidencyFlagMismatchDies)
{
    Memcg cg(1, 64, 42, compressible_mix(), 0);
    // Claim a page moved to zswap without storing it: the InZswap
    // flag is set with no handle and the residency counters skew.
    cg.note_stored_in_zswap(3);
    EXPECT_DEATH(cg.check_invariants(), "invariant violated");
}

TEST(InvariantDeathTest, ArenaByteAccountingCorruptionDies)
{
    auto compressor = make_compressor(CompressionMode::kModeled);
    Zswap zswap(compressor.get(), 1);
    Memcg cg(1, 64, 42, compressible_mix(), 0);
    ASSERT_TRUE(zswap.store(cg, 0));
    zswap.check_invariants();
    zswap.debug_arena().debug_corrupt_stored_bytes(1);
    EXPECT_DEATH(zswap.check_invariants(), "invariant violated");
}

TEST(InvariantDeathTest, BreakerIllegalStateDies)
{
    CircuitBreaker breaker;
    // Open with no hold-off countdown is unreachable through the
    // public transitions; forcing it must trip the check.
    EXPECT_DEATH(breaker.debug_force_state(BreakerState::kOpen),
                 "invariant violated");
}

TEST(InvariantDeathTest, ControllerPoolOverflowDies)
{
    SloConfig slo;
    ThresholdController controller(slo, /*job_start=*/0);
    controller.debug_overfill_pool(slo.history_window + 5);
    EXPECT_DEATH(controller.check_invariants(), "invariant violated");
}

#else  // !SDFM_CHECK_INVARIANTS

TEST(InvariantDeathTest, SkippedWithoutInvariantBuild)
{
    static_assert(!kInvariantsEnabled);
    GTEST_SKIP() << "corruption tests need -DSDFM_CHECK_INVARIANTS=ON";
}

#endif  // SDFM_CHECK_INVARIANTS

}  // namespace
}  // namespace sdfm

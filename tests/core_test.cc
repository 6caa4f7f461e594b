/**
 * @file
 * Tests for the public facade: fleet construction and stepping,
 * aggregate metrics, the TCO model, report extraction, and SLO
 * deployment.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/far_memory_system.h"
#include "core/reports.h"
#include "util/logging.h"

namespace sdfm {
namespace {

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

TEST(FarMemorySystemTest, PopulateAndRun)
{
    FarMemorySystem fleet(tiny_fleet());
    fleet.populate();
    EXPECT_GT(fleet.num_jobs(), 4u);
    SimTime start = fleet.now();
    fleet.run(90 * kMinute);
    EXPECT_EQ(fleet.now(), start + 90 * kMinute);
    EXPECT_GT(fleet.fleet_cold_fraction(), 0.02);
    EXPECT_GT(fleet.fleet_coverage(), 0.0);
    EXPECT_LE(fleet.fleet_coverage(), 1.0);
}

TEST(FarMemorySystemTest, ClustersDiffer)
{
    FarMemorySystem fleet(tiny_fleet());
    fleet.populate();
    fleet.run(kHour);
    ASSERT_EQ(fleet.clusters().size(), 2u);
    // Mix jitter should give the clusters different cold profiles
    // (exact equality would indicate the jitter is not applied).
    EXPECT_NE(fleet.clusters()[0]->cold_memory_fraction(),
              fleet.clusters()[1]->cold_memory_fraction());
}

TEST(FarMemorySystemTest, MergedTraceCoversAllJobs)
{
    FarMemorySystem fleet(tiny_fleet());
    fleet.populate();
    fleet.run(30 * kMinute);
    TraceLog merged = fleet.merged_trace();
    EXPECT_GT(merged.size(), 0u);
    EXPECT_GE(merged.by_job().size(), fleet.num_jobs() / 2);
}

TEST(FarMemorySystemTest, DeploySloReachesEveryMachine)
{
    FarMemorySystem fleet(tiny_fleet());
    fleet.populate();
    SloConfig slo;
    slo.percentile_k = 77.0;
    fleet.deploy_slo(slo);
    for (auto &cluster : fleet.clusters())
        for (auto &machine : cluster->machines())
            EXPECT_DOUBLE_EQ(machine->agent().config().slo.percentile_k,
                             77.0);
}

TEST(FarMemorySystemTest, JobColdFractionsPopulated)
{
    FarMemorySystem fleet(tiny_fleet());
    fleet.populate();
    fleet.run(kHour);
    SampleSet fractions = fleet.job_cold_fractions();
    EXPECT_EQ(fractions.size(), fleet.num_jobs());
    EXPECT_GE(fractions.min(), 0.0);
    EXPECT_LE(fractions.max(), 1.0);
}

// ----------------------------------------------------------------- TCO

/** Populate a 1-cluster, 2-machine fleet of @p dram_pages machines
 *  with warnings on, returning what populate() printed to stderr. */
std::string
populate_stderr(std::uint64_t seed, std::uint64_t dram_pages,
                std::uint64_t &jobs)
{
    FleetConfig config;
    config.num_clusters = 1;
    config.seed = seed;
    config.cluster.num_machines = 2;
    config.cluster.machine.dram_pages = dram_pages;
    config.cluster.mix = typical_fleet_mix();
    FarMemorySystem fleet(config);
    set_log_quiet(false);
    testing::internal::CaptureStderr();
    fleet.populate();
    std::string err = testing::internal::GetCapturedStderr();
    jobs = fleet.num_jobs();
    return err;
}

// Population stops at the first job that fits no machine. When that
// is the cluster's first job, the cluster runs with no job at all, and
// populate() must say so.
TEST(FarMemorySystemTest, ClusterThatPlacesNoJobWarns)
{
    for (std::uint64_t seed : {21u, 45u}) {
        SCOPED_TRACE(seed);
        std::uint64_t jobs = 1;
        std::string err = populate_stderr(seed, 16 * 1024, jobs);
        EXPECT_EQ(jobs, 0u);
        EXPECT_NE(err.find("cluster 0 placed no job"), std::string::npos)
            << err;
        EXPECT_NE(err.find("dram_pages 16384"), std::string::npos) << err;
    }
    {  // 32 Ki-page machines take the same first jobs
        std::uint64_t jobs = 0;
        std::string err = populate_stderr(21, 32 * 1024, jobs);
        EXPECT_GT(jobs, 0u);
        EXPECT_EQ(err.find("placed no job"), std::string::npos) << err;
    }
}

TEST(TcoModelTest, PaperHeadlineNumbers)
{
    // 20% coverage x 32% cold bound x 67% per-byte saving = 4.3%.
    TcoModel tco;
    tco.coverage = 0.20;
    tco.cold_fraction = 0.32;
    tco.compression_ratio = 3.0;
    EXPECT_NEAR(tco.per_byte_saving(), 0.667, 0.01);
    EXPECT_NEAR(tco.compressed_fraction(), 0.064, 1e-9);
    EXPECT_GT(tco.tco_savings(), 0.04);
    EXPECT_LT(tco.tco_savings(), 0.05);
}

TEST(TcoModelTest, NoSavingsAtRatioOne)
{
    TcoModel tco;
    tco.compression_ratio = 1.0;
    EXPECT_DOUBLE_EQ(tco.tco_savings(), 0.0);
}

// ------------------------------------------------------------- reports

struct FleetFixture : public ::testing::Test
{
    FleetFixture() : fleet(tiny_fleet())
    {
        fleet.populate();
        warmup_cutoff = fleet.now() + 90 * kMinute;
        fleet.run(3 * kHour);
    }
    FarMemorySystem fleet;
    /** Warm-up horizon excluded from steady-state SLI checks: the
     *  initial cold-set capture is a one-time transient. */
    SimTime warmup_cutoff = 0;
};

TEST_F(FleetFixture, PromotionRateSamplesUnderSlo)
{
    TraceLog trace = fleet.merged_trace();
    SampleSet rates = promotion_rate_samples(trace, warmup_cutoff);
    ASSERT_FALSE(rates.empty());
    // Figure 7: p98 below 0.2%/min of WSS (modest slack for the small
    // sample).
    EXPECT_LT(rates.percentile(98.0), 0.004);
}

TEST_F(FleetFixture, PerJobPromotionRatesUnderSlo)
{
    TraceLog trace = fleet.merged_trace();
    SampleSet rates = job_promotion_rate_samples(trace, warmup_cutoff, 2);
    ASSERT_FALSE(rates.empty());
    // Figure 7's actual metric: per-job aggregate rates; the tail
    // stays at the SLO scale.
    EXPECT_LT(rates.percentile(98.0), 0.004);
}

TEST(JobPromotionRateSamples, SkipsLeadingWindowsAndShortJobs)
{
    TraceLog log;
    // Job 1: 8 windows, first with a huge burst.
    for (int w = 0; w < 8; ++w) {
        TraceEntry entry;
        entry.job = 1;
        entry.timestamp = (w + 1) * kTraceWindow;
        entry.wss_pages = 1000;
        entry.sli.zswap_promotions_delta = w == 0 ? 100000 : 5;
        log.append(entry);
    }
    // Job 2: only 3 windows (shorter than the 6-window minimum).
    for (int w = 0; w < 3; ++w) {
        TraceEntry entry;
        entry.job = 2;
        entry.timestamp = (w + 1) * kTraceWindow;
        entry.wss_pages = 10;
        entry.sli.zswap_promotions_delta = 500;
        log.append(entry);
    }
    SampleSet with_skip = job_promotion_rate_samples(log, 0, 1);
    ASSERT_EQ(with_skip.size(), 1u);  // job 2 filtered out entirely
    // Job 1's burst window was skipped: rate reflects the steady 5.
    EXPECT_NEAR(with_skip.max(), 5.0 / 5.0 / 1000.0, 1e-9);
    SampleSet without_skip = job_promotion_rate_samples(log, 0, 0);
    EXPECT_GT(without_skip.max(), 100.0 * with_skip.max());
}

TEST_F(FleetFixture, CpuOverheadSamplesSmall)
{
    TraceLog trace = fleet.merged_trace();
    SampleSet compress = job_cpu_overhead_samples(trace, false, warmup_cutoff);
    SampleSet decompress = job_cpu_overhead_samples(trace, true, warmup_cutoff);
    ASSERT_FALSE(compress.empty());
    ASSERT_FALSE(decompress.empty());
    // Figure 8 scale: both far below 1% at the tail.
    EXPECT_LT(compress.percentile(98.0), 0.03);
    EXPECT_LT(decompress.percentile(98.0), 0.01);
    SampleSet machine = machine_cpu_overhead_samples(fleet, true);
    ASSERT_FALSE(machine.empty());
    EXPECT_LT(machine.percentile(50.0), 0.01);
}

TEST_F(FleetFixture, CompressionRatioNearPaper)
{
    SampleSet ratios = job_compression_ratio_samples(fleet);
    ASSERT_FALSE(ratios.empty());
    // Figure 9a: 2-6x band, median near 3x.
    EXPECT_GT(ratios.percentile(50.0), 2.0);
    EXPECT_LT(ratios.percentile(50.0), 4.5);
}

TEST_F(FleetFixture, DecompressLatencySingleDigitMicroseconds)
{
    SampleSet latencies = job_decompress_latency_samples(fleet);
    ASSERT_FALSE(latencies.empty());
    // Figure 9b: single-digit microseconds.
    EXPECT_GT(latencies.percentile(50.0), 3.0);
    EXPECT_LT(latencies.percentile(98.0), 12.0);
}

TEST_F(FleetFixture, IpcProxyNearUnity)
{
    SampleSet ipc = job_ipc_proxy_samples(fleet, 0.0, 1);
    ASSERT_FALSE(ipc.empty());
    // Without noise, far-memory stalls cost well under 1%.
    EXPECT_GT(ipc.percentile(2.0), 0.98);
    EXPECT_LE(ipc.max(), 1.0);
}

}  // namespace
}  // namespace sdfm

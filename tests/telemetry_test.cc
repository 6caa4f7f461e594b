/**
 * @file
 * Tests for the fleet-telemetry subsystem: histogram semantics
 * (bucket boundaries, percentile readout, checkpoint round trip),
 * snapshot merging up the machine -> cluster -> fleet topology, the
 * frame exporter, and pinned frame streams that hold the
 * stats-backed collectors to the metric surface bit for bit: names,
 * values, which rows exist when, and where each gauge is sampled.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/far_memory_system.h"
#include "telemetry/exporter.h"
#include "telemetry/metric.h"
#include "telemetry/snapshot.h"
#include "util/digest.h"
#include "workload/job_profile.h"

namespace sdfm {
namespace {

// -- histograms ------------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds)
{
    // Buckets: (-inf,1], (1,10], (10,100], (100,+inf).
    HistogramData h({1.0, 10.0, 100.0});
    h.observe(1.0);    // lands in bucket 0 (inclusive bound)
    h.observe(1.5);    // bucket 1
    h.observe(10.0);   // bucket 1 (inclusive bound)
    h.observe(99.0);   // bucket 2
    h.observe(1000.0); // overflow

    ASSERT_EQ(h.upper_bounds.size(), 3u);
    ASSERT_EQ(h.counts.size(), 4u);  // + overflow
    EXPECT_EQ(h.counts[0], 1u);
    EXPECT_EQ(h.counts[1], 2u);
    EXPECT_EQ(h.counts[2], 1u);
    EXPECT_EQ(h.counts[3], 1u);
    EXPECT_EQ(h.total_count, 5u);
    EXPECT_DOUBLE_EQ(h.sum, 1.0 + 1.5 + 10.0 + 99.0 + 1000.0);
}

TEST(HistogramTest, MeanAndPercentileReadout)
{
    HistogramData h({10.0, 20.0, 30.0, 40.0});
    for (int i = 0; i < 100; ++i)
        h.observe(5.0 + (i % 4) * 10.0);  // 25 each of 5,15,25,35

    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    // Quartile boundaries: p25 sits at the top of the first bucket.
    EXPECT_NEAR(h.percentile(25.0), 10.0, 1e-9);
    EXPECT_NEAR(h.percentile(50.0), 20.0, 1e-9);
    // Interpolated mid-bucket rank: p37.5 is halfway into (10,20].
    EXPECT_NEAR(h.percentile(37.5), 15.0, 1e-9);
    // Extremes clamp to the grid, never extrapolate.
    EXPECT_GE(h.percentile(0.0), 0.0);
    EXPECT_LE(h.percentile(100.0), 40.0);
}

TEST(HistogramTest, OverflowReportsLastFiniteBound)
{
    HistogramData h({1.0, 2.0});
    h.observe(50.0);
    h.observe(60.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 2.0);
}

TEST(HistogramTest, EmptyHistogramReadsZero)
{
    HistogramData h({1.0, 2.0});
    EXPECT_EQ(h.total_count, 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(HistogramTest, BoundGenerators)
{
    std::vector<double> exp = exponential_bounds(1e3, 10.0, 4);
    ASSERT_EQ(exp.size(), 4u);
    EXPECT_DOUBLE_EQ(exp[0], 1e3);
    EXPECT_DOUBLE_EQ(exp[3], 1e6);
}

TEST(HistogramTest, CkptRoundTripRejectsInconsistentBuckets)
{
    HistogramData a({1.0, 2.0, 4.0});
    a.observe(1.5);
    a.observe(9.0);
    Serializer s;
    a.ckpt_save(s);

    // Bounds come from the restoring owner, not the wire.
    HistogramData b({1.0, 2.0, 4.0});
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    EXPECT_TRUE(d.at_end());
    EXPECT_EQ(a, b);

    // A histogram with a different bucket count refuses the bytes.
    HistogramData c({10.0, 20.0});
    Deserializer d2(s.bytes());
    EXPECT_FALSE(c.ckpt_load(d2));

    // So does a total that disagrees with the buckets.
    Serializer lie;
    lie.put_u64_vec({1, 0, 0, 1});
    lie.put_u64(3);
    lie.put_double(0.0);
    HistogramData e({1.0, 2.0, 4.0});
    Deserializer d3(lie.bytes());
    EXPECT_FALSE(e.ckpt_load(d3));
}

// -- snapshot merge --------------------------------------------------

TEST(MetricsSnapshotTest, MergeSumsCountersGaugesAndBuckets)
{
    MetricsSnapshot a;
    a.counters["c"] = 10;
    a.gauges["g"] = 1.0;
    a.histograms["h"] = HistogramData({5.0, 10.0});
    a.histograms["h"].observe(3.0);

    MetricsSnapshot b;
    b.counters["c"] = 32;
    b.counters["only_b"] = 1;
    b.gauges["g"] = 2.0;
    b.histograms["h"] = HistogramData({5.0, 10.0});
    b.histograms["h"].observe(7.0);

    MetricsSnapshot merged = a;
    merged.merge(b);

    EXPECT_EQ(merged.counter_or_zero("c"), 42u);
    EXPECT_EQ(merged.counter_or_zero("only_b"), 1u);
    EXPECT_DOUBLE_EQ(merged.gauge_or_zero("g"), 3.0);
    const HistogramData &h = merged.histograms.at("h");
    EXPECT_EQ(h.total_count, 2u);
    EXPECT_EQ(h.counts[0], 1u);  // 3.0
    EXPECT_EQ(h.counts[1], 1u);  // 7.0
    EXPECT_DOUBLE_EQ(h.sum, 10.0);
    // Absent names read as zero, not as errors.
    EXPECT_EQ(merged.counter_or_zero("absent"), 0u);
    EXPECT_DOUBLE_EQ(merged.gauge_or_zero("absent"), 0.0);
}

// -- cluster -> fleet rollup ----------------------------------------

FleetConfig
tiny_fleet()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.cluster.num_machines = 2;
    config.cluster.machine.dram_pages = 48ull * kMiB / kPageSize;
    config.cluster.machine.compression = CompressionMode::kModeled;
    config.cluster.mix = typical_fleet_mix();
    config.seed = 11;
    return config;
}

TEST(TelemetryRollupTest, FleetSnapshotIsSumOfClusterSnapshots)
{
    FarMemorySystem fleet(tiny_fleet());
    fleet.populate();
    fleet.run(10 * kMinute);

    MetricsSnapshot total = fleet.fleet_telemetry();

    MetricsSnapshot manual;
    for (const auto &cluster : fleet.clusters())
        manual.merge(cluster->telemetry_snapshot());

    EXPECT_EQ(total.counters, manual.counters);
    for (const auto &[name, value] : total.gauges)
        EXPECT_DOUBLE_EQ(value, manual.gauge_or_zero(name)) << name;

    // The instrumented subsystems actually reported work.
    EXPECT_GT(total.counter_or_zero("machine.accesses"), 0u);
    EXPECT_GT(total.counter_or_zero("kstaled.scans"), 0u);
    EXPECT_GT(total.counter_or_zero("zswap.stores"), 0u);
    EXPECT_GT(total.counter_or_zero("agent.control_rounds"), 0u);
    EXPECT_GT(total.gauge_or_zero("cluster.jobs"), 0.0);
}

TEST(TelemetryRollupTest, MachineCountersMatchSimulatorState)
{
    FleetConfig config = tiny_fleet();
    config.num_clusters = 1;
    FarMemorySystem fleet(config);
    fleet.populate();
    fleet.run(10 * kMinute);

    MetricsSnapshot snap = fleet.fleet_telemetry();
    std::uint64_t stored = 0;
    for (const auto &machine : fleet.clusters()[0]->machines())
        stored += machine->zswap_stored_pages();
    EXPECT_DOUBLE_EQ(snap.gauge_or_zero("zswap.stored_pages"),
                     static_cast<double>(stored));
}

// -- exporter --------------------------------------------------------

TEST(TelemetryExporterTest, JsonlEmitsOneFramePerSnapshot)
{
    MetricsSnapshot snap;
    snap.counters["zswap.stores"] = 5;
    snap.histograms["lat"] = HistogramData({1.0, 2.0});
    snap.histograms["lat"].observe(1.5);

    std::ostringstream out;
    TelemetryExporter exporter(out, TelemetryExporter::Format::kJsonl);
    exporter.write_frame(60, snap);
    snap.counters["zswap.stores"] = 6;
    exporter.write_frame(120, snap);

    EXPECT_EQ(exporter.frames_written(), 2u);
    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"t_sec\":60"), std::string::npos);
    EXPECT_NE(line.find("\"zswap.stores\":5"), std::string::npos);
    EXPECT_NE(line.find("\"p95\""), std::string::npos);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"zswap.stores\":6"), std::string::npos);
    EXPECT_FALSE(std::getline(lines, line));  // exactly two frames
}

TEST(TelemetryExporterTest, CsvFixesColumnsOnFirstFrame)
{
    MetricsSnapshot snap;
    snap.counters["a"] = 1;
    snap.gauges["b"] = 2.0;

    std::ostringstream out;
    TelemetryExporter exporter(out, TelemetryExporter::Format::kCsv);
    exporter.write_frame(60, snap);
    exporter.write_frame(120, snap);

    std::istringstream lines(out.str());
    std::string header, row1, row2, extra;
    ASSERT_TRUE(std::getline(lines, header));
    ASSERT_TRUE(std::getline(lines, row1));
    ASSERT_TRUE(std::getline(lines, row2));
    EXPECT_FALSE(std::getline(lines, extra));
    EXPECT_EQ(header.substr(0, 5), "t_sec");
    EXPECT_NE(header.find("a"), std::string::npos);
    EXPECT_NE(header.find("b"), std::string::npos);
    EXPECT_EQ(row1.substr(0, 2), "60");
}

TEST(TelemetryExporterTest, SummaryTableListsEveryMetric)
{
    MetricsSnapshot snap;
    snap.counters["zswap.stores"] = 9;
    snap.gauges["zswap.arena_bytes"] = 4096.0;
    snap.histograms["controller.threshold"] = HistogramData({1.0, 2.0});
    snap.histograms["controller.threshold"].observe(2.0);

    std::ostringstream out;
    print_metrics_summary(out, snap);
    std::string text = out.str();
    EXPECT_NE(text.find("zswap.stores"), std::string::npos);
    EXPECT_NE(text.find("zswap.arena_bytes"), std::string::npos);
    EXPECT_NE(text.find("controller.threshold"), std::string::npos);
    EXPECT_NE(text.find("p95"), std::string::npos);
}

// -- pinned frame streams --------------------------------------------
//
// Each run below exports one JSONL frame per step for 30 steps. The
// pinned values were captured from the build that still recorded
// these metrics a second time in per-machine metric registries; the
// stats-backed collectors reproduce them bit for bit. The two
// over-committed machine runs were re-pinned when their static donor
// pool became leases and their tier.remote.* rows appeared. Two
// digests per run: the frame text byte for byte, and every snapshot
// exactly (gauges and histogram sums by bit pattern, which %.6g in
// the frames would round away).

/** Digest of a frame stream's text, byte by byte. */
std::uint64_t
text_digest(const std::string &text)
{
    StateDigest d;
    for (char c : text)
        d.mix(static_cast<unsigned char>(c));
    return d.value();
}

void
mix_name(StateDigest &d, const std::string &name)
{
    d.mix(name.size());
    for (char c : name)
        d.mix(static_cast<unsigned char>(c));
}

/** Fold one snapshot in exactly: names, values, buckets, sums. */
void
mix_snapshot(StateDigest &d, const MetricsSnapshot &snap)
{
    for (const auto &[name, value] : snap.counters) {
        mix_name(d, name);
        d.mix(value);
    }
    for (const auto &[name, value] : snap.gauges) {
        mix_name(d, name);
        d.mix_double(value);
    }
    for (const auto &[name, data] : snap.histograms) {
        mix_name(d, name);
        for (double bound : data.upper_bounds)
            d.mix_double(bound);
        for (std::uint64_t count : data.counts)
            d.mix(count);
        d.mix(data.total_count);
        d.mix_double(data.sum);
    }
}

struct FrameRun
{
    std::uint64_t frames = 0;
    std::uint64_t text = 0;   ///< text_digest of the JSONL stream
    std::uint64_t exact = 0;  ///< mix_snapshot over every frame
};

/** tools/metrics_dump's fleet: 2 clusters x 4 machines of the typical
 *  mix on 16 Ki-page machines, stepped in parallel. */
FleetConfig
metrics_dump_fleet()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.cluster.mix = typical_fleet_mix();
    config.cluster.num_machines = 4;
    config.cluster.machine.dram_pages = 16 * 1024;
    return config;
}

/**
 * Every lazily created row fires: memory bombs in the mix, an
 * explicit NVM + pooled remote stack whose bands overlap (remote
 * first, NVM when the leases run out), both tier breakers, every
 * machine fault kind, a faulty broker and a staged rollout with a
 * hostile push plane.
 */
FleetConfig
chaos_fleet()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 21;
    config.serial_step = true;
    config.cluster.num_machines = 3;
    config.cluster.machine.dram_pages = 16 * 1024;
    config.cluster.machine.slo_breaker_enabled = true;
    config.cluster.mix = typical_fleet_mix();
    config.cluster.mix.profiles.push_back(memory_bomb_profile());
    config.cluster.mix.weights.push_back(0.3);
    // Churn: jobs leave and arrive between the machines' steps and
    // the snapshot, so a step-end gauge read late would show it.
    config.cluster.churn_per_hour = 6.0;

    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = 1ull << 11;
    nvm.breaker_enabled = true;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.breaker_enabled = true;
    config.cluster.machine.tiers = {nvm, remote};

    FaultConfig &fault = config.cluster.machine.fault;
    fault.enabled = true;
    fault.donor_failure_prob = 0.05;
    fault.zswap_corruption_prob = 0.2;
    fault.agent_crash_prob = 0.02;
    fault.remote_degrade_prob = 0.1;
    fault.nvm_latency_spike_prob = 0.05;
    fault.nvm_media_error_prob = 0.1;
    fault.nvm_capacity_loss_prob = 0.05;

    MemPoolParams &pool = config.cluster.pool;
    pool.enabled = true;
    pool.lease_pages = 1024;
    pool.max_leases_per_borrower = 2;
    pool.lease_term_periods = 10;
    pool.grace_periods = 2;
    pool.drain_pages_per_period = 512;
    pool.donor_reserve_frac = 0.08;
    pool.fault.enabled = true;
    pool.fault.lease_grant_loss_prob = 0.05;
    pool.fault.revocation_loss_prob = 0.05;
    pool.fault.broker_stall_prob = 0.03;

    RolloutParams &rollout = config.rollout;
    rollout.enabled = true;
    rollout.stage_fractions = {0.5, 1.0};
    rollout.baseline_periods = 3;
    rollout.observe_periods = 4;
    rollout.fault.enabled = true;
    rollout.fault.config_push_loss_prob = 0.2;
    rollout.fault.config_push_stall_prob = 0.05;
    rollout.fault.config_split_brain_prob = 0.1;
    return config;
}

/** Populate, then step 30 times with a frame per step; with
 *  @p propose, a candidate SLO enters the rollout after step 5. */
FrameRun
run_fleet_frames(const FleetConfig &config, bool propose)
{
    std::ostringstream out;
    TelemetryExporter exporter(out, TelemetryExporter::Format::kJsonl);
    FarMemorySystem fleet(config);
    fleet.populate();
    fleet.set_metrics_exporter(&exporter);
    // The populated fleet before its first step: no event-driven row
    // may exist yet.
    StateDigest exact;
    mix_snapshot(exact, fleet.fleet_telemetry());
    for (int i = 0; i < 30; ++i) {
        fleet.step();
        mix_snapshot(exact, fleet.fleet_telemetry());
        if (propose && i == 4) {
            SloConfig candidate = config.cluster.machine.slo;
            candidate.percentile_k = 97.0;
            candidate.enable_delay = 4 * kMinute;
            EXPECT_TRUE(fleet.propose_slo(candidate));
        }
    }
    return {exporter.frames_written(), text_digest(out.str()),
            exact.value()};
}

/**
 * One machine over-committed by a third at t=0, on a remote tier of
 * eight donors' leases with donor failures: OOM evictions and fault
 * kills both land, so machine.evictions (OOM only) and
 * fault.jobs_killed part ways. A crashed donor's lease is replaced
 * after the step. @p reactive swaps proactive reclaim for direct
 * reclaim.
 */
FrameRun
run_overcommitted_machine_frames(bool reactive)
{
    MachineConfig config;
    config.dram_pages = 24 * 1024;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.band_hi = 4.0;
    remote.breaker_enabled = true;
    config.tiers = {remote};
    config.fault.enabled = true;
    config.fault.donor_failure_prob = 0.3;
    config.fault.remote_degrade_prob = 0.1;
    if (reactive)
        config.policy = FarMemoryPolicy::kReactive;

    Machine machine(0, config, 3);
    std::uint32_t next_lease = 0;
    for (; next_lease < 8; ++next_lease)
        machine.remote_tier()->grant_lease(next_lease, 1 << 13);
    machine.add_job(std::make_unique<Job>(
        1, profile_by_name("web_frontend"), 11, 0));
    for (JobId id = 2; machine.resident_pages() < config.dram_pages + 8192;
         ++id) {
        machine.add_job(std::make_unique<Job>(
            id, profile_by_name("batch_analytics"), id * 13, 0));
    }

    std::ostringstream out;
    TelemetryExporter exporter(out, TelemetryExporter::Format::kJsonl);
    StateDigest exact;
    mix_snapshot(exact, machine.telemetry_snapshot());
    SimTime now = 0;
    for (int i = 0; i < 30; ++i) {
        machine.step(now);
        now += config.control_period;
        std::size_t crashed =
            machine.remote_tier()->take_dead_leases().size();
        for (; crashed > 0; --crashed)
            machine.remote_tier()->grant_lease(next_lease++, 1 << 13);
        MetricsSnapshot snap = machine.telemetry_snapshot();
        exporter.write_frame(now, snap);
        mix_snapshot(exact, snap);
    }
    return {exporter.frames_written(), text_digest(out.str()),
            exact.value()};
}

TEST(TelemetryFramesTest, MetricsDumpFleetMatchesPinnedFrames)
{
    FrameRun run = run_fleet_frames(metrics_dump_fleet(), false);
    EXPECT_EQ(run.frames, 30u);
    EXPECT_EQ(run.text, 0xe93becbe52fe0f74ULL);
    EXPECT_EQ(run.exact, 0x1a7fb0ce7180ae1fULL);
}

TEST(TelemetryFramesTest, ChaosFleetMatchesPinnedFrames)
{
    FrameRun run = run_fleet_frames(chaos_fleet(), true);
    EXPECT_EQ(run.frames, 30u);
    EXPECT_EQ(run.text, 0x3107b621c930997fULL);
    EXPECT_EQ(run.exact, 0xb80fd71f3d5325cdULL);
}

TEST(TelemetryFramesTest, OvercommittedMachineMatchesPinnedFrames)
{
    FrameRun run = run_overcommitted_machine_frames(false);
    EXPECT_EQ(run.frames, 30u);
    EXPECT_EQ(run.text, 0x0b0d2ce054a22e03ULL);
    EXPECT_EQ(run.exact, 0x163b8c02650bde2bULL);
}

TEST(TelemetryFramesTest, ReactiveMachineMatchesPinnedFrames)
{
    FrameRun run = run_overcommitted_machine_frames(true);
    EXPECT_EQ(run.frames, 30u);
    EXPECT_EQ(run.text, 0x6b896c07a4a733fcULL);
    EXPECT_EQ(run.exact, 0x02d00af300eb5adfULL);
}

}  // namespace
}  // namespace sdfm

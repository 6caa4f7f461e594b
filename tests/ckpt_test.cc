/**
 * @file
 * Tests for crash-consistent checkpoint/restore: the container format
 * (framing, CRCs, versioning), per-subsystem save/load round trips
 * compared by state digest or by subsequent behavior, the whole-fleet
 * checkpoint-at-k / restore / run-to-N trajectory guarantee, and every
 * rejection path (truncation, CRC flip, bad magic, bad version,
 * config mismatch, corrupt payload) -- each proving the live fleet is
 * left untouched by a failed restore.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "autotune/gp_bandit.h"
#include "autotune/rollout.h"
#include "ckpt/checkpoint.h"
#include "cluster/cluster.h"
#include "core/far_memory_system.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "mem/memcg.h"
#include "node/machine.h"
#include "node/threshold_controller.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/job.h"
#include "workload/job_profile.h"
#include "workload/trace.h"

namespace sdfm {
namespace {

/** Whole-snapshot equality: counters, gauges bit for bit, and every
 *  histogram's bounds, buckets, count and sum. */
void
expect_same_telemetry(const MetricsSnapshot &a, const MetricsSnapshot &b)
{
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (const auto &[name, ha] : a.histograms) {
        auto it = b.histograms.find(name);
        ASSERT_NE(it, b.histograms.end()) << name;
        const HistogramData &hb = it->second;
        EXPECT_EQ(ha.upper_bounds, hb.upper_bounds) << name;
        EXPECT_EQ(ha.counts, hb.counts) << name;
        EXPECT_EQ(ha.total_count, hb.total_count) << name;
        EXPECT_EQ(ha.sum, hb.sum) << name;
    }
}

// ---------------------------------------------------------------------
// RNG streams (satellite: every stream fully snapshottable)
// ---------------------------------------------------------------------

TEST(RngCkpt, RestoredStreamProducesIdenticalSequence)
{
    Rng original(12345);
    // Burn a mixed prefix so the snapshot is mid-stream, not at seed
    // state, and includes the gaussian spare-value cache if any.
    for (int i = 0; i < 100; ++i) {
        original.next_u64();
        original.next_double();
        original.next_gaussian();
        original.next_below(1000);
    }

    Serializer s;
    s.put_rng(original);
    Rng restored(999);  // different seed: every word must be overwritten
    Deserializer d(s.bytes());
    d.get_rng(restored);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d.at_end());

    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(original.next_u64(), restored.next_u64());
        EXPECT_EQ(original.next_double(), restored.next_double());
        EXPECT_EQ(original.next_gaussian(), restored.next_gaussian());
        EXPECT_EQ(original.next_below(77), restored.next_below(77));
        EXPECT_EQ(original.next_bool(0.3), restored.next_bool(0.3));
    }
}

TEST(RngCkpt, AllZeroStateIsRejected)
{
    Serializer s;
    for (int i = 0; i < 4; ++i)
        s.put_u64(0);
    Rng rng(1);
    Deserializer d(s.bytes());
    d.get_rng(rng);
    EXPECT_FALSE(d.ok());
}

// ---------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------

/** RAII temp checkpoint path (removed on scope exit). */
struct TempCkpt
{
    explicit TempCkpt(const char *name) : path(name) {}
    ~TempCkpt() { std::remove(path.c_str()); }
    std::string path;
};

/** Read a whole file into bytes. */
std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

using NamedPayloads =
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>;

/** The container bytes CkptWriter streams for @p sections, which
 *  must come in ascending name order. */
std::vector<std::uint8_t>
write_container(const NamedPayloads &sections)
{
    TempCkpt ckpt("ckpt_container.ckpt");
    CkptWriter writer(ckpt.path);
    for (const auto &[name, payload] : sections)
        writer.add_section(name, payload);
    EXPECT_EQ(writer.finish(), CkptStatus::kOk);
    return slurp(ckpt.path);
}

/** A copy of a section view's bytes. */
std::vector<std::uint8_t>
bytes_of(std::span<const std::uint8_t> payload)
{
    return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

TEST(CkptContainer, RoundTripsSections)
{
    std::vector<std::uint8_t> bytes = write_container(
        {{"alpha", {9}}, {"mid", {}}, {"zebra", {1, 2, 3}}});

    CkptReader reader;
    ASSERT_EQ(reader.parse(bytes), CkptStatus::kOk);
    ASSERT_EQ(reader.sections().size(), 3u);
    // Sections come back in ascending name order.
    EXPECT_EQ(reader.sections()[0].name, "alpha");
    EXPECT_EQ(reader.sections()[1].name, "mid");
    EXPECT_EQ(reader.sections()[2].name, "zebra");
    ASSERT_NE(reader.section("zebra"), nullptr);
    EXPECT_EQ(bytes_of(*reader.section("zebra")),
              (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_EQ(reader.section("absent"), nullptr);
}

TEST(CkptContainer, RejectsTamperedBytes)
{
    std::vector<std::uint8_t> good =
        write_container({{"data", {10, 20, 30, 40}}});

    {  // truncation anywhere in the tail
        for (std::size_t cut = 1; cut <= 6; ++cut) {
            std::vector<std::uint8_t> bad(good.begin(),
                                          good.end() - static_cast<long>(cut));
            CkptReader reader;
            EXPECT_EQ(reader.parse(bad), CkptStatus::kTruncated);
        }
    }
    {  // payload flip -> CRC mismatch
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() - 6] ^= 0x01;  // inside payload, before the CRC
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kCrcMismatch);
    }
    {  // magic flip
        std::vector<std::uint8_t> bad = good;
        bad[0] ^= 0xFF;
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kBadMagic);
    }
    {  // unknown version (u32 at offset 8)
        std::vector<std::uint8_t> bad = good;
        bad[8] ^= 0x02;
        CkptReader reader;
        EXPECT_EQ(reader.parse(bad), CkptStatus::kBadVersion);
    }
}

// ---------------------------------------------------------------------
// Byte-level edges of the word-at-a-time serializer, the slicing-by-8
// CRC and the container framing. Inputs sit in allocations that end
// exactly where the input does, so a sanitizer build catches any read
// past the end.
// ---------------------------------------------------------------------

/** CRC32 (IEEE 802.3) one bit at a time, straight from the polynomial. */
std::uint32_t
reference_crc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(CkptBytes, Crc32KnownAnswers)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(check.data()),
                    check.size()),
              0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(CkptBytes, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset)
{
    Rng rng(2024);
    std::vector<std::uint8_t> random(64 + 8);
    for (std::uint8_t &byte : random)
        byte = static_cast<std::uint8_t>(rng.next_u64());
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 64; ++len) {
            std::vector<std::uint8_t> buf(random.begin(),
                                          random.begin() +
                                              static_cast<long>(offset + len));
            EXPECT_EQ(crc32(buf.data() + offset, len),
                      reference_crc32(buf.data() + offset, len))
                << "offset " << offset << ", length " << len;
        }
    }
}

TEST(CkptBytes, PutsWriteLittleEndianBytes)
{
    Serializer s;
    s.put_u16(0x0102);
    s.put_u32(0x03040506u);
    s.put_u64(0x0708090A0B0C0D0EULL);
    s.put_double(-2.0);  // IEEE-754 bits 0xC000000000000000
    EXPECT_EQ(s.bytes(),
              (std::vector<std::uint8_t>{
                  0x02, 0x01,                                      // u16
                  0x06, 0x05, 0x04, 0x03,                          // u32
                  0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x08, 0x07,  // u64
                  0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0,  // double
              }));
}

/** Every read of a getter @p width bytes wide from fewer bytes than
 *  that returns the empty value and fails the stream for good. */
template <typename Get>
void
expect_short_read_fails(std::size_t width, Get get)
{
    for (std::size_t have = 0; have < width; ++have) {
        SCOPED_TRACE(have);
        // With the buffer size a known constant, GCC 12's
        // -Warray-bounds flags the load that consume()'s bounds check
        // skips; a size it cannot fold keeps the warning quiet.
        volatile std::size_t opaque_size = have;
        std::vector<std::uint8_t> bytes(opaque_size, 0xFF);
        Deserializer d(bytes.data(), bytes.size());
        using Value = decltype(get(d));
        EXPECT_EQ(get(d), Value{});
        EXPECT_FALSE(d.ok());
        EXPECT_EQ(d.get_u8(), 0u);
        EXPECT_FALSE(d.ok());
    }
}

TEST(CkptBytes, ShortReadsReturnZeroAndStayFailed)
{
    expect_short_read_fails(1, [](Deserializer &d) { return d.get_u8(); });
    expect_short_read_fails(1, [](Deserializer &d) { return d.get_bool(); });
    expect_short_read_fails(2, [](Deserializer &d) { return d.get_u16(); });
    expect_short_read_fails(4, [](Deserializer &d) { return d.get_u32(); });
    expect_short_read_fails(8, [](Deserializer &d) { return d.get_u64(); });
    expect_short_read_fails(8, [](Deserializer &d) { return d.get_i64(); });
    expect_short_read_fails(8,
                            [](Deserializer &d) { return d.get_double(); });
    expect_short_read_fails(8,
                            [](Deserializer &d) { return d.get_string(); });
    expect_short_read_fails(8,
                            [](Deserializer &d) { return d.get_u64_vec(); });
}

TEST(CkptBytes, CountsPastTheRemainingBytesFailWithoutAllocating)
{
    for (std::uint64_t count :
         {std::uint64_t{2}, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
        SCOPED_TRACE(count);
        Serializer s;
        s.put_u64(count);
        s.put_u64(0x1122334455667788ULL);  // room for one u64, 8 chars
        {
            Deserializer d(s.bytes());
            std::vector<std::uint64_t> v = d.get_u64_vec();
            EXPECT_FALSE(d.ok());
            EXPECT_TRUE(v.empty());
            EXPECT_EQ(v.capacity(), 0u);
        }
        if (count > 8) {
            Deserializer d(s.bytes());
            std::string str = d.get_string();
            EXPECT_FALSE(d.ok());
            EXPECT_TRUE(str.empty());
            EXPECT_EQ(str.capacity(), std::string().capacity());
        }
    }
}

const NamedPayloads kThreeSections = {
    {"alpha", {1, 2, 3}},
    {"beta", {}},
    {"gamma", {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
};

TEST(CkptBytes, ContainerCutAtEveryOffsetIsTruncated)
{
    const std::vector<std::uint8_t> good = write_container(kThreeSections);
    {
        CkptReader reader;
        ASSERT_EQ(reader.parse(good), CkptStatus::kOk);
    }
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
        CkptReader reader;
        EXPECT_EQ(reader.parse(std::vector<std::uint8_t>(
                      good.begin(), good.begin() + static_cast<long>(cut))),
                  CkptStatus::kTruncated)
            << "cut at " << cut;
        EXPECT_TRUE(reader.sections().empty());
    }
}

TEST(CkptBytes, EveryPayloadBitFlipIsACrcMismatch)
{
    const std::vector<std::uint8_t> good = write_container(kThreeSections);
    ThreadPool pool(2);
    std::size_t at = 16;  // magic, version, section count
    for (const auto &[name, payload] : kThreeSections) {
        at += 4 + name.size() + 8;
        for (std::size_t i = 0; i < payload.size(); ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                std::vector<std::uint8_t> bad = good;
                bad[at + i] ^= static_cast<std::uint8_t>(1u << bit);
                CkptReader serial;
                EXPECT_EQ(serial.parse(bad), CkptStatus::kCrcMismatch)
                    << name << " byte " << i << " bit " << bit;
                CkptReader pooled;
                EXPECT_EQ(pooled.parse(bad, &pool), CkptStatus::kCrcMismatch)
                    << name << " byte " << i << " bit " << bit;
            }
        }
        at += payload.size() + 4;
    }
    EXPECT_EQ(at, good.size());
}

// read_file sizes its buffer from the file's length, so a path whose
// "length" is no byte count must be refused before any allocation.
TEST(CkptBytes, ReadFileRefusesMissingFilesAndDirectories)
{
    CkptReader reader;
    EXPECT_EQ(reader.read_file("no_such_checkpoint.ckpt"),
              CkptStatus::kIoError);
    EXPECT_EQ(reader.read_file("."), CkptStatus::kIoError);
}

TEST(CkptContainerDeathTest, SectionsOutOfNameOrderDie)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TempCkpt ckpt("ckpt_out_of_order.ckpt");
    const std::vector<std::uint8_t> payload = {1};
    EXPECT_DEATH(
        {
            CkptWriter writer(ckpt.path);
            writer.add_section("beta", payload);
            writer.add_section("alpha", payload);
        },
        "assertion failed");
    // The dying writer could not remove its temp file.
    std::remove((ckpt.path + ".tmp").c_str());
}

// ---------------------------------------------------------------------
// Subsystem round trips
// ---------------------------------------------------------------------

TEST(SubsystemCkpt, CircuitBreakerRoundTrip)
{
    CircuitBreakerParams params;
    params.failure_threshold = 2;
    params.open_periods = 3;
    CircuitBreaker a(params);
    a.record_failure();
    a.record_failure();  // trips open
    a.tick();
    a.record_success();

    Serializer s;
    a.ckpt_save(s);
    CircuitBreaker b(params);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());

    EXPECT_EQ(a.state(), b.state());
    EXPECT_EQ(a.stats().opens, b.stats().opens);
    EXPECT_EQ(a.stats().reopens, b.stats().reopens);
    EXPECT_EQ(a.stats().closes, b.stats().closes);
    // Behavioral equality from here on.
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(a.allow(), b.allow());
        EXPECT_EQ(a.trial_budget(), b.trial_budget());
        a.tick();
        b.tick();
        EXPECT_EQ(a.state(), b.state());
    }
}

TEST(SubsystemCkpt, FaultInjectorRoundTrip)
{
    FaultConfig config;
    config.enabled = true;
    config.donor_failure_prob = 0.3;
    config.zswap_corruption_prob = 0.4;
    config.agent_crash_prob = 0.1;
    config.schedule.push_back({5 * kMinute, {FaultKind::kRemoteDegrade,
                                             1, 2 * kMinute}});

    FaultInjector a(config, 42);
    SimTime now = 0;
    for (int i = 0; i < 10; ++i, now += kMinute)
        a.step(now, now + kMinute);

    Serializer s;
    a.ckpt_save(s);
    FaultInjector b(config, 42);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());

    for (int i = 0; i < 30; ++i, now += kMinute) {
        std::vector<FaultEvent> ea = a.step(now, now + kMinute);
        std::vector<FaultEvent> eb = b.step(now, now + kMinute);
        ASSERT_EQ(ea.size(), eb.size());
        for (std::size_t k = 0; k < ea.size(); ++k) {
            EXPECT_EQ(ea[k].kind, eb[k].kind);
            EXPECT_EQ(ea[k].magnitude, eb[k].magnitude);
            EXPECT_EQ(ea[k].duration, eb[k].duration);
        }
        EXPECT_EQ(a.target_rng().next_u64(), b.target_rng().next_u64());
    }
    EXPECT_EQ(a.stats().injected_total, b.stats().injected_total);
}

TEST(SubsystemCkpt, ThresholdControllerRoundTrip)
{
    SloConfig slo;
    slo.enable_delay = 2 * kMinute;
    slo.history_window = 10;
    ThresholdController a(slo, 0);
    Rng rng(3);
    SimTime now = kMinute;
    auto feed = [&](ThresholdController &c) {
        AgeHistogram delta;
        delta.add(static_cast<AgeBucket>(rng.next_below(8)),
                  rng.next_below(50));
        return c.update(now, delta, 1000, 1.0);
    };
    for (int i = 0; i < 7; ++i, now += kMinute) {
        feed(a);
        rng = Rng(3 + static_cast<std::uint64_t>(i));  // deterministic refill
    }

    Serializer s;
    a.ckpt_save(s);
    ThresholdController b(slo, 123);  // wrong anchor: must be overwritten
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());

    EXPECT_EQ(a.current_threshold(), b.current_threshold());
    EXPECT_EQ(a.job_start(), b.job_start());
    for (int i = 0; i < 10; ++i, now += kMinute) {
        Rng ra(77 + static_cast<std::uint64_t>(i));
        AgeHistogram delta;
        delta.add(static_cast<AgeBucket>(ra.next_below(8)),
                  ra.next_below(50));
        EXPECT_EQ(a.update(now, delta, 1000, 1.0),
                  b.update(now, delta, 1000, 1.0));
    }
}

TEST(SubsystemCkpt, MemcgRoundTripDigestEqual)
{
    Memcg a(7, 500, 42, ContentMix::typical(), 31);
    a.mutable_cold_hist().add(0, 300);
    a.mutable_cold_hist().add(5, 200);
    a.stats().zswap_promotions = 17;
    a.stats().app_cycles = 1.5e9;

    Serializer s;
    a.ckpt_save(s);
    // Restore into the cheapest structurally valid cgroup, the way
    // Job::ckpt_restore does.
    Memcg b(0, 1, 0, ContentMix::typical(), 0);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());
    EXPECT_EQ(a.state_digest(), b.state_digest());
    EXPECT_EQ(b.id(), 7u);
    EXPECT_EQ(b.num_pages(), 500u);
    EXPECT_EQ(b.stats().zswap_promotions, 17u);
}

TEST(SubsystemCkpt, TraceLogRoundTripBitExact)
{
    TraceLog a;
    for (int i = 0; i < 5; ++i) {
        TraceEntry e;
        e.job = static_cast<JobId>(100 + i);
        e.timestamp = i * 5 * kMinute;
        e.wss_pages = 1000u + static_cast<std::uint64_t>(i);
        e.promo_delta.add(3, 7);
        e.cold_hist.add(1, 9);
        e.sli.app_cycles_delta = 0.1 + static_cast<double>(i) / 3.0;
        e.sli.compress_cycles_delta = 1e9 / 7.0;
        a.append(e);
    }

    Serializer s;
    a.ckpt_save(s);
    TraceLog b;
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());
    ASSERT_EQ(a.entries().size(), b.entries().size());
    for (std::size_t i = 0; i < a.entries().size(); ++i)
        EXPECT_EQ(a.entries()[i], b.entries()[i]);
}

TEST(SubsystemCkpt, GpBanditRoundTripSuggestsIdentically)
{
    BanditConfig config;
    config.candidates = 32;
    config.local_candidates = 8;
    GpBandit a(config, 0.5, 9);
    Rng rng(4);
    for (int i = 0; i < 6; ++i) {
        Vector x = {rng.next_double(), rng.next_double()};
        a.add_observation(x, rng.next_double(), rng.next_double());
    }
    a.suggest();  // advance the candidate RNG off its seed state

    Serializer s;
    a.ckpt_save(s);
    GpBandit b(config, 0.5, 9);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(d.at_end());

    ASSERT_EQ(a.observations().size(), b.observations().size());
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(a.suggest(), b.suggest());
}

TEST(SubsystemCkpt, JobRoundTripDigestEqual)
{
    FleetMix mix = typical_fleet_mix();
    MachineConfig config;
    config.dram_pages = 16 * 1024;
    Machine machine(0, config, 11);
    for (std::size_t i = 0; i < 3; ++i) {
        machine.add_job(std::make_unique<Job>(
            static_cast<JobId>(i + 1),
            mix.profiles[i % mix.profiles.size()], 100 + i, 0));
    }
    SimTime now = 0;
    for (int i = 0; i < 25; ++i, now += config.control_period)
        machine.step(now);

    // Round-trip each job through the restore path used by
    // Machine::ckpt_load.
    for (const auto &job : machine.jobs()) {
        Serializer s;
        job->ckpt_save(s);
        Deserializer d(s.bytes());
        std::unique_ptr<Job> copy = Job::ckpt_restore(d);
        ASSERT_NE(copy, nullptr);
        ASSERT_TRUE(d.at_end());
        EXPECT_EQ(copy->id(), job->id());
        EXPECT_EQ(copy->memcg().state_digest(),
                  job->memcg().state_digest());
    }
}

/** A CRC-valid but corrupt edit of an access pattern's event array,
 *  a strictly ascending array of packed (time, page) keys. */
struct EventArrayCorruption
{
    const char *what;
    void (*mutate)(std::vector<std::uint64_t> &events,
                   std::uint32_t num_pages);
};

/** The key one second after @p key's time, for @p page. */
std::uint64_t
later_key(std::uint64_t key, std::uint32_t page)
{
    return (((key >> 32) + 1) << 32) | page;
}

const EventArrayCorruption kEventArrayCorruptions[] = {
    {"ascending order broken: the earliest event swapped to the back",
     [](std::vector<std::uint64_t> &events, std::uint32_t) {
         std::swap(events.front(), events.back());
     }},
    {"page queued twice: the last event copies the one before it",
     [](std::vector<std::uint64_t> &events, std::uint32_t) {
         events.back() = events[events.size() - 2];
     }},
    {"page queued twice at a later time (ascending order still holds)",
     [](std::vector<std::uint64_t> &events, std::uint32_t) {
         events.back() = later_key(events.back(),
                                   static_cast<std::uint32_t>(events[0]));
     }},
    {"page out of range at the end (ascending order still holds)",
     [](std::vector<std::uint64_t> &events, std::uint32_t num_pages) {
         events.back() = later_key(events.back(), num_pages);
     }},
};

/**
 * AccessPattern::ckpt_save() bytes with @p corruption applied to the
 * event array. The length is unchanged, so the result can replace the
 * original inside an enclosing job, machine or cluster payload.
 */
std::vector<std::uint8_t>
corrupt_event_array(const std::vector<std::uint8_t> &pattern_bytes,
                    const EventArrayCorruption &corruption)
{
    Deserializer d(pattern_bytes);
    Serializer s;
    std::size_t num_pages = d.get_size(0xffffffffu);
    s.put_u64(num_pages);
    for (std::size_t i = 0; i < num_pages; ++i)
        s.put_u8(d.get_u8());
    Rng rng;
    d.get_rng(rng);
    s.put_rng(rng);
    std::vector<std::uint64_t> events = d.get_u64_vec();
    EXPECT_GE(events.size(), 2u);
    corruption.mutate(events, static_cast<std::uint32_t>(num_pages));
    s.put_u64_vec(events);
    s.put_i64(d.get_i64());
    EXPECT_TRUE(d.ok() && d.at_end());
    return s.take();
}

TEST(SubsystemCkpt, JobRestoreRejectsCorruptEventArray)
{
    FleetMix mix = typical_fleet_mix();
    MachineConfig config;
    config.dram_pages = 16 * 1024;
    Machine machine(0, config, 11);
    machine.add_job(std::make_unique<Job>(1, mix.profiles[0], 100, 0));
    SimTime now = 0;
    for (int i = 0; i < 5; ++i, now += config.control_period)
        machine.step(now);

    ASSERT_EQ(machine.jobs().size(), 1u);
    Job &job = *machine.jobs().front();
    Serializer js;
    job.ckpt_save(js);
    Serializer ps;
    job.pattern().ckpt_save(ps);
    const std::vector<std::uint8_t> job_bytes = js.take();
    const std::vector<std::uint8_t> pattern_bytes = ps.take();
    // The pattern is the tail of the job's bytes.
    ASSERT_GT(job_bytes.size(), pattern_bytes.size());
    const std::size_t offset = job_bytes.size() - pattern_bytes.size();
    ASSERT_TRUE(std::equal(pattern_bytes.begin(), pattern_bytes.end(),
                           job_bytes.begin() +
                               static_cast<std::ptrdiff_t>(offset)));

    for (const EventArrayCorruption &c : kEventArrayCorruptions) {
        SCOPED_TRACE(c.what);
        std::vector<std::uint8_t> bad = job_bytes;
        std::vector<std::uint8_t> corrupt =
            corrupt_event_array(pattern_bytes, c);
        ASSERT_EQ(corrupt.size(), pattern_bytes.size());
        std::copy(corrupt.begin(), corrupt.end(),
                  bad.begin() + static_cast<std::ptrdiff_t>(offset));
        Deserializer d(bad);
        EXPECT_FALSE(Job::ckpt_restore(d)) << "corrupt array accepted";
    }
}

TEST(SubsystemCkpt, MachineRoundTripTrajectoryEqual)
{
    FleetMix mix = typical_fleet_mix();
    MachineConfig config;
    config.dram_pages = 16 * 1024;
    // A small NVM tier: it fills, and zswap takes the overflow, so
    // both tiers and every telemetry histogram carry data across the
    // checkpoint.
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = 1024;
    nvm.band_hi = 4.0;
    nvm.breaker_enabled = true;
    config.tiers = {nvm};
    config.slo_breaker_enabled = true;
    Machine a(0, config, 11);
    for (std::size_t i = 0; i < 3; ++i) {
        a.add_job(std::make_unique<Job>(
            static_cast<JobId>(i + 1),
            mix.profiles[i % mix.profiles.size()], 100 + i, 0));
    }
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
    for (const auto &[name, h] : a.telemetry_snapshot().histograms)
        ASSERT_GT(h.total_count, 0u) << name << " is empty at the checkpoint";
    expect_same_telemetry(a.telemetry_snapshot(), b.telemetry_snapshot());

    // The restored machine must continue the original's trajectory
    // bit-identically, including the metrics plane.
    for (int i = 0; i < 15; ++i, now += config.control_period) {
        a.step(now);
        b.step(now);
        ASSERT_EQ(a.state_digest(), b.state_digest())
            << "diverged " << i << " steps after restore";
        expect_same_telemetry(a.telemetry_snapshot(),
                              b.telemetry_snapshot());
    }
}

/** A remote tier claiming the ages in [T, 4T), under a breaker. */
TierConfig
remote_tier_config()
{
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.band_hi = 4.0;
    remote.breaker_enabled = true;
    return remote;
}

TEST(SubsystemCkpt, ClusterRoundTripTrajectoryEqual)
{
    ClusterConfig config;
    config.num_machines = 3;
    config.machine.dram_pages = 16 * 1024;
    config.machine.tiers = {remote_tier_config()};
    config.pool = permanent_lease_pool(1024, 4);
    config.machine.fault.enabled = true;
    config.machine.fault.donor_failure_prob = 0.05;
    config.machine.fault.zswap_corruption_prob = 0.2;
    config.mix = typical_fleet_mix();
    Cluster a(0, config, 5);
    a.populate(0);
    SimTime now = 0;
    for (int i = 0; i < 20; ++i, now += config.machine.control_period)
        a.step(now);

    // The broker rides in its own fleet section; a cluster-level round
    // trip carries it right behind the cluster.
    Serializer s;
    a.ckpt_save(s);
    a.broker()->ckpt_save(s);
    Cluster b(0, config, 5);
    Deserializer d(s.bytes());
    ASSERT_TRUE(b.ckpt_load(d));
    ASSERT_TRUE(b.broker()->ckpt_load(d));
    ASSERT_TRUE(b.broker()->ckpt_resolve(b.machines()));
    ASSERT_TRUE(d.at_end());
    EXPECT_EQ(a.state_digest(), b.state_digest());

    for (int i = 0; i < 15; ++i, now += config.machine.control_period) {
        a.step(now);
        b.step(now);
        ASSERT_EQ(a.state_digest(), b.state_digest())
            << "diverged " << i << " steps after restore";
    }
}

// ---------------------------------------------------------------------
// Whole-fleet checkpoint/restore
// ---------------------------------------------------------------------

FleetConfig
small_fleet_config()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 21;
    config.serial_step = true;  // keep the tests single-threaded
    config.cluster.num_machines = 3;
    config.cluster.machine.dram_pages = 16 * 1024;
    config.cluster.machine.tiers = {remote_tier_config()};
    config.cluster.pool = permanent_lease_pool(1024, 4);
    config.cluster.machine.slo_breaker_enabled = true;
    config.cluster.machine.fault.enabled = true;
    config.cluster.machine.fault.donor_failure_prob = 0.05;
    config.cluster.machine.fault.zswap_corruption_prob = 0.2;
    config.cluster.machine.fault.agent_crash_prob = 0.02;
    config.cluster.mix = typical_fleet_mix();
    return config;
}

TEST(FleetCkpt, RestoreAtKReproducesUninterruptedTrajectory)
{
    TempCkpt ckpt("fleet_ckpt_traj.ckpt");
    FleetConfig config = small_fleet_config();

    FarMemorySystem reference(config);
    reference.populate();
    for (int i = 0; i < 6; ++i)
        reference.step();
    ASSERT_EQ(reference.checkpoint(ckpt.path), CkptStatus::kOk);

    // Cold start: a fresh fleet object, as after a process kill.
    FarMemorySystem resumed(config);
    ASSERT_EQ(resumed.restore(ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(resumed.now(), reference.now());
    EXPECT_EQ(resumed.state_digest(), reference.state_digest());
    EXPECT_EQ(resumed.num_jobs(), reference.num_jobs());
    expect_same_telemetry(resumed.fleet_telemetry(),
                          reference.fleet_telemetry());

    for (int i = 0; i < 12; ++i) {
        reference.step();
        resumed.step();
        ASSERT_EQ(resumed.state_digest(), reference.state_digest())
            << "diverged " << i << " steps after restore";
        expect_same_telemetry(resumed.fleet_telemetry(),
                              reference.fleet_telemetry());
    }
    // The merged telemetry databases must agree entry for entry.
    EXPECT_EQ(resumed.merged_trace().entries(),
              reference.merged_trace().entries());
}

TEST(FleetCkpt, RestoreIntoPopulatedFleetReplacesState)
{
    TempCkpt ckpt("fleet_ckpt_replace.ckpt");
    FleetConfig config = small_fleet_config();

    FarMemorySystem a(config);
    a.populate();
    for (int i = 0; i < 4; ++i)
        a.step();
    ASSERT_EQ(a.checkpoint(ckpt.path), CkptStatus::kOk);
    std::uint64_t digest_at_ckpt = a.state_digest();

    // Let the original drift past the checkpoint, then roll it back.
    for (int i = 0; i < 5; ++i)
        a.step();
    ASSERT_NE(a.state_digest(), digest_at_ckpt);
    ASSERT_EQ(a.restore(ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(a.state_digest(), digest_at_ckpt);
}

/** Write bytes to a file. */
void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(FleetCkpt, RejectionsLeaveLiveFleetUntouched)
{
    TempCkpt good("fleet_ckpt_good.ckpt");
    TempCkpt bad("fleet_ckpt_bad.ckpt");
    FleetConfig config = small_fleet_config();

    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < 4; ++i)
        fleet.step();
    ASSERT_EQ(fleet.checkpoint(good.path), CkptStatus::kOk);
    for (int i = 0; i < 3; ++i)
        fleet.step();
    const std::uint64_t live_digest = fleet.state_digest();
    const SimTime live_now = fleet.now();
    std::vector<std::uint8_t> bytes = slurp(good.path);
    ASSERT_GT(bytes.size(), 64u);

    auto expect_rejected = [&](CkptStatus want) {
        EXPECT_EQ(fleet.restore(bad.path), want);
        EXPECT_EQ(fleet.state_digest(), live_digest)
            << "a rejected restore mutated the live fleet";
        EXPECT_EQ(fleet.now(), live_now);
    };

    {  // missing file
        std::remove(bad.path.c_str());
        expect_rejected(CkptStatus::kIoError);
    }
    {  // truncation
        std::vector<std::uint8_t> t(bytes.begin(), bytes.end() - 9);
        spit(bad.path, t);
        expect_rejected(CkptStatus::kTruncated);
    }
    {  // CRC flip (corrupt the final section's payload tail)
        std::vector<std::uint8_t> t = bytes;
        t[t.size() - 6] ^= 0x40;
        spit(bad.path, t);
        expect_rejected(CkptStatus::kCrcMismatch);
    }
    {  // not a checkpoint
        std::vector<std::uint8_t> t = bytes;
        t[3] ^= 0xFF;
        spit(bad.path, t);
        expect_rejected(CkptStatus::kBadMagic);
    }
    {  // version from a different lineage
        std::vector<std::uint8_t> t = bytes;
        t[8] ^= 0x04;
        spit(bad.path, t);
        expect_rejected(CkptStatus::kBadVersion);
    }
    {  // CRC-valid but semantically corrupt section payload
        CkptReader reader;
        ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
        const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE};
        CkptWriter writer(bad.path);
        for (const CkptSection &section : reader.sections()) {
            if (section.name == "cluster.0000")
                writer.add_section(section.name, garbage);
            else
                writer.add_section(section.name, section.payload);
        }
        ASSERT_EQ(writer.finish(), CkptStatus::kOk);
        expect_rejected(CkptStatus::kCorruptPayload);
    }
}

TEST(FleetCkpt, CorruptEventArrayIsRejected)
{
    TempCkpt good("fleet_ckpt_events_good.ckpt");
    TempCkpt bad("fleet_ckpt_events_bad.ckpt");
    FleetConfig config = small_fleet_config();

    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < 4; ++i)
        fleet.step();
    ASSERT_EQ(fleet.checkpoint(good.path), CkptStatus::kOk);
    Serializer ps;
    fleet.clusters().front()->machines().front()->jobs().front()
        ->pattern().ckpt_save(ps);
    const std::vector<std::uint8_t> pattern_bytes = ps.take();
    const std::uint64_t live_digest = fleet.state_digest();

    CkptReader reader;
    ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
    for (const EventArrayCorruption &c : kEventArrayCorruptions) {
        SCOPED_TRACE(c.what);
        std::vector<std::uint8_t> corrupt =
            corrupt_event_array(pattern_bytes, c);
        CkptWriter writer(bad.path);
        bool replaced = false;
        for (const CkptSection &section : reader.sections()) {
            std::vector<std::uint8_t> payload(section.payload.begin(),
                                              section.payload.end());
            if (section.name == "cluster.0000") {
                auto at = std::search(payload.begin(), payload.end(),
                                      pattern_bytes.begin(),
                                      pattern_bytes.end());
                ASSERT_NE(at, payload.end());
                std::copy(corrupt.begin(), corrupt.end(), at);
                replaced = true;
            }
            writer.add_section(section.name, std::move(payload));
        }
        ASSERT_TRUE(replaced);
        ASSERT_EQ(writer.finish(), CkptStatus::kOk);
        EXPECT_EQ(fleet.restore(bad.path), CkptStatus::kCorruptPayload);
        EXPECT_EQ(fleet.state_digest(), live_digest)
            << "a rejected restore mutated the live fleet";
    }
}

/** Overwrite the wire u64 at @p at. */
void
poke_u64(std::vector<std::uint8_t> &bytes, std::size_t at, std::uint64_t v)
{
    ASSERT_LE(at + 8, bytes.size());
    Serializer s;
    s.put_u64(v);
    std::copy(s.bytes().begin(), s.bytes().end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(at));
}

/** The wire u64 at @p at. */
std::uint64_t
peek_u64(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    Deserializer d(bytes.data() + at, bytes.size() - at);
    return d.get_u64();
}

// A CRC-valid checkpoint whose memcg record gives a zswap page a
// handle the arena cannot hold (2^40), or another page's live handle,
// must be refused: the jobs' zswap pages have to claim exactly the
// arena's live handles, each once.
TEST(FleetCkpt, CorruptZswapHandlesAreRejected)
{
    TempCkpt good("fleet_ckpt_handles_good.ckpt");
    TempCkpt bad("fleet_ckpt_handles_bad.ckpt");
    FleetConfig config = small_fleet_config();

    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < 6; ++i)
        fleet.step();
    ASSERT_EQ(fleet.checkpoint(good.path), CkptStatus::kOk);
    const Memcg *cg = nullptr;
    for (const auto &machine : fleet.clusters().front()->machines()) {
        for (const auto &job : machine->jobs()) {
            if (cg == nullptr && job->memcg().zswap_pages() >= 2)
                cg = &job->memcg();
        }
    }
    ASSERT_NE(cg, nullptr) << "no job of cluster 0 holds two zswap pages";
    Serializer ms;
    cg->ckpt_save(ms);
    const std::vector<std::uint8_t> memcg_bytes = ms.take();
    Serializer ps;
    cg->pages().ckpt_save(ps);
    // The memcg record: id, content seed and start time (8 bytes
    // each), the page table, then the handle count and the
    // (u32 page, u64 handle) pairs in page order.
    const std::size_t list = 24 + ps.bytes().size();
    ASSERT_EQ(peek_u64(memcg_bytes, list), cg->zswap_pages());
    const std::size_t first = list + 8 + 4;
    const std::size_t second = first + 12;
    const std::uint64_t live_digest = fleet.state_digest();

    CkptReader reader;
    ASSERT_EQ(reader.read_file(good.path), CkptStatus::kOk);
    const std::pair<const char *, std::uint64_t> corruptions[] = {
        {"handle past the u32 handle space", std::uint64_t{1} << 40},
        {"handle claimed twice", peek_u64(memcg_bytes, second)},
    };
    for (const auto &[what, handle] : corruptions) {
        SCOPED_TRACE(what);
        std::vector<std::uint8_t> corrupt = memcg_bytes;
        poke_u64(corrupt, first, handle);
        CkptWriter writer(bad.path);
        bool replaced = false;
        for (const CkptSection &section : reader.sections()) {
            std::vector<std::uint8_t> payload(section.payload.begin(),
                                              section.payload.end());
            if (section.name == "cluster.0000") {
                auto at = std::search(payload.begin(), payload.end(),
                                      memcg_bytes.begin(),
                                      memcg_bytes.end());
                ASSERT_NE(at, payload.end());
                std::copy(corrupt.begin(), corrupt.end(), at);
                replaced = true;
            }
            writer.add_section(section.name, std::move(payload));
        }
        ASSERT_TRUE(replaced);
        ASSERT_EQ(writer.finish(), CkptStatus::kOk);
        EXPECT_EQ(fleet.restore(bad.path), CkptStatus::kCorruptPayload);
        EXPECT_EQ(fleet.state_digest(), live_digest)
            << "a rejected restore mutated the live fleet";
    }
}

TEST(FleetCkpt, ConfigMismatchIsRejected)
{
    TempCkpt ckpt("fleet_ckpt_config.ckpt");
    FleetConfig config = small_fleet_config();
    FarMemorySystem fleet(config);
    fleet.populate();
    fleet.step();
    ASSERT_EQ(fleet.checkpoint(ckpt.path), CkptStatus::kOk);

    // Any trajectory-relevant config difference must be refused --
    // seed, topology, tunables, and fault plane alike.
    auto refuses = [&](FleetConfig other) {
        FarMemorySystem victim(other);
        std::uint64_t before = victim.state_digest();
        EXPECT_EQ(victim.restore(ckpt.path),
                  CkptStatus::kConfigMismatch);
        EXPECT_EQ(victim.state_digest(), before);
    };
    {
        FleetConfig other = config;
        other.seed = config.seed + 1;
        refuses(other);
    }
    {
        FleetConfig other = config;
        other.cluster.num_machines += 1;
        refuses(other);
    }
    {
        FleetConfig other = config;
        other.cluster.machine.slo.percentile_k = 95.0;
        refuses(other);
    }
    {
        FleetConfig other = config;
        other.cluster.machine.fault.donor_failure_prob = 0.0;
        refuses(other);
    }
    // serial_step is the one deliberate exclusion: serial and
    // parallel stepping are digest-identical, so a checkpoint from
    // one must restore into the other.
    {
        FleetConfig other = config;
        other.serial_step = false;
        FarMemorySystem victim(other);
        EXPECT_EQ(victim.restore(ckpt.path), CkptStatus::kOk);
        EXPECT_EQ(victim.state_digest(), fleet.state_digest());
    }
}


// verify_zswap_roundtrip asks for byte-level verification, which the
// modeled backend cannot give: such a machine verifies nothing, and
// its checkpoint must still restore into a fleet built from the same
// config.
TEST(FleetCkpt, ModeledVerifyFleetRestoresItsOwnCheckpoint)
{
    TempCkpt ckpt("fleet_ckpt_modeled_verify.ckpt");
    FleetConfig config;
    config.num_clusters = 1;
    config.seed = 21;
    config.serial_step = true;
    config.cluster.num_machines = 2;
    config.cluster.machine.dram_pages = 32 * 1024;
    config.cluster.machine.verify_zswap_roundtrip = true;
    config.cluster.mix = typical_fleet_mix();

    FarMemorySystem fleet(config);
    fleet.populate();
    for (int i = 0; i < 10; ++i)
        fleet.step();
    MetricsSnapshot snap = fleet.fleet_telemetry();
    ASSERT_GT(snap.counters.at("zswap.stores"), 0u);
    ASSERT_EQ(fleet.checkpoint(ckpt.path), CkptStatus::kOk);

    FarMemorySystem resumed(config);
    EXPECT_EQ(resumed.restore(ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(resumed.state_digest(), fleet.state_digest());
}

/** StateDigest over every byte of a file. */
std::uint64_t
file_hash(const std::string &path)
{
    StateDigest d;
    for (std::uint8_t byte : slurp(path))
        d.mix(byte);
    return d.value();
}

/** One deep NVM tier claiming the ages in [lo * T, hi * T). */
TierConfig
nvm_tier(const char *label, std::uint64_t capacity, double lo, double hi)
{
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.label = label;
    nvm.nvm.capacity_pages = capacity;
    nvm.band_lo = lo;
    nvm.band_hi = hi;
    return nvm;
}

// Where far pages live, and their integrity checksums, are written by
// the memcg (zswap handles and deep-tier indices >= 2), zswap (one
// checksum per live handle) and the arena (entry records, payload
// bytes included). Each configuration below puts data in one of those
// lists; its digest and checkpoint bytes are pinned, and a restore
// lands on the same digest. The values were captured on the build
// that still kept zswap handles and checksums in hash maps keyed by
// page and by handle, and deep-tier indices in a lazily allocated
// per-page array. The file hashes were re-pinned for format version 6,
// which lists each job's access events in ascending key order; the
// digests did not move.
TEST(FleetCkpt, FarPageRecordsMatchPinnedCheckpoints)
{
    TempCkpt ckpt("fleet_ckpt_far_pages.ckpt");
    auto expect_pinned = [&](const FarMemorySystem &fleet,
                             const FleetConfig &config,
                             std::uint64_t digest, std::uint64_t hash) {
        EXPECT_EQ(fleet.state_digest(), digest);
        ASSERT_EQ(fleet.checkpoint(ckpt.path), CkptStatus::kOk);
        EXPECT_EQ(file_hash(ckpt.path), hash);
        FarMemorySystem resumed(config);
        ASSERT_EQ(resumed.restore(ckpt.path), CkptStatus::kOk);
        EXPECT_EQ(resumed.state_digest(), fleet.state_digest());
    };

    {  // remote pages and corrupted (flipped) checksums
        SCOPED_TRACE("small fleet");
        FleetConfig config = small_fleet_config();
        FarMemorySystem fleet(config);
        fleet.populate();
        for (int i = 0; i < 6; ++i)
            fleet.step();
        FleetFaultReport faults = fleet.fault_report();
        ASSERT_GT(faults.corruptions, 0u);
        MetricsSnapshot snap = fleet.fleet_telemetry();
        ASSERT_GT(snap.gauges.at("tier.remote.stored_pages"), 0.0);
        expect_pinned(fleet, config, 0x75f7ceb894a29e9cULL,
                      0xbb6352773a2265b3ULL);
    }
    {  // pages at deep-tier stack indices >= 2
        SCOPED_TRACE("three deep tiers");
        FleetConfig config;
        config.num_clusters = 1;
        config.seed = 45;
        config.serial_step = true;
        config.cluster.num_machines = 2;
        config.cluster.machine.dram_pages = 32 * 1024;
        config.cluster.machine.tiers = {nvm_tier("nvm_a", 1024, 1.0, 2.0),
                                        nvm_tier("nvm_b", 1024, 2.0, 4.0),
                                        nvm_tier("nvm_c", 1024, 4.0, 0.0)};
        config.cluster.mix = typical_fleet_mix();
        FarMemorySystem fleet(config);
        fleet.populate();
        for (int i = 0; i < 6; ++i)
            fleet.step();
        // Proactive reclaim demotes pages as they cross T, so nothing
        // ages into the deeper bands on its own. Age a backlog by
        // hand, as a reclaim outage would leave it: half just under
        // 4T, half saturated.
        for (auto &machine : fleet.clusters().front()->machines()) {
            Memcg &cg = machine->jobs().front()->memcg();
            const std::uint32_t t = cg.reclaim_threshold();
            ASSERT_GT(t, 0u);
            std::uint32_t aged = 0;
            for (PageId p = 0; p < cg.num_pages() && aged < 512; ++p) {
                if (cg.pages().in_far_memory(p) ||
                    cg.page_test(p, kPageAccessed) ||
                    cg.page_test(p, kPageUnevictable)) {
                    continue;
                }
                cg.set_page_age(p, aged % 2 == 0
                                       ? static_cast<std::uint8_t>(
                                             std::min(4 * t - 1, 254u))
                                       : std::uint8_t{255});
                ++aged;
            }
        }
        for (int i = 0; i < 2; ++i)
            fleet.step();
        std::uint64_t deep = 0;
        for (const auto &machine : fleet.clusters().front()->machines()) {
            for (std::size_t i = 2; i < machine->tiers().size(); ++i)
                deep += machine->tiers().tier(i).used_pages();
        }
        ASSERT_GT(deep, 0u) << "no page sits at stack index >= 2";
        expect_pinned(fleet, config, 0x409235e0872ed452ULL,
                      0x4c75312aaf6355abULL);
    }
    {  // real payload bytes in the arena records
        SCOPED_TRACE("real compression, verified");
        FleetConfig config;
        config.num_clusters = 1;
        config.seed = 46;
        config.serial_step = true;
        config.cluster.num_machines = 2;
        config.cluster.machine.dram_pages = 32 * 1024;
        config.cluster.machine.compression = CompressionMode::kReal;
        config.cluster.machine.verify_zswap_roundtrip = true;
        config.cluster.mix = typical_fleet_mix();
        FarMemorySystem fleet(config);
        fleet.populate();
        for (int i = 0; i < 6; ++i)
            fleet.step();
        MetricsSnapshot snap = fleet.fleet_telemetry();
        ASSERT_GT(snap.gauges.at("zswap.stored_pages"), 0.0);
        expect_pinned(fleet, config, 0x84b4bccef62360beULL,
                      0x875eeb0f7befcf70ULL);
    }
}

/** Two clusters on an NVM + remote stack with revocable pooled leases
 *  and a staged rollout; @p serial picks serial stepping. */
FleetConfig
pooled_rollout_config(bool serial)
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 61;
    config.serial_step = serial;
    config.cluster.num_machines = 3;
    config.cluster.machine.dram_pages = 16 * 1024;
    TierConfig remote = remote_tier_config();
    remote.band_lo = 2.0;
    remote.band_hi = 0.0;
    config.cluster.machine.tiers = {nvm_tier("nvm", 1024, 1.0, 2.0), remote};
    config.cluster.machine.slo_breaker_enabled = true;
    config.cluster.machine.fault.enabled = true;
    config.cluster.machine.fault.zswap_corruption_prob = 0.2;
    MemPoolParams &pool = config.cluster.pool;
    pool.enabled = true;
    pool.lease_pages = 1024;
    pool.max_leases_per_borrower = 2;
    pool.lease_term_periods = 4;
    pool.grace_periods = 2;
    pool.drain_pages_per_period = 512;
    pool.donor_reserve_frac = 0.08;
    config.rollout.enabled = true;
    config.rollout.seed = 11;
    config.rollout.stage_fractions = {0.25, 1.0};
    config.rollout.baseline_periods = 3;
    config.rollout.observe_periods = 4;
    config.rollout.fault.enabled = true;
    config.rollout.fault.config_push_loss_prob = 0.2;
    config.cluster.mix = typical_fleet_mix();
    return config;
}

/** Populate, step, age a backlog into the remote band, propose a
 *  candidate SLO and step into its canary stage. */
void
run_into_rollout(FarMemorySystem &fleet)
{
    fleet.populate();
    for (int i = 0; i < 6; ++i)
        fleet.step();
    // Proactive reclaim demotes pages as they cross T, into the NVM
    // band; saturate a backlog by hand so the remote band fills too.
    for (const auto &cluster : fleet.clusters()) {
        for (const auto &machine : cluster->machines()) {
            if (machine->jobs().empty())
                continue;
            Memcg &cg = machine->jobs().front()->memcg();
            std::uint32_t aged = 0;
            for (PageId p = 0; p < cg.num_pages() && aged < 256; ++p) {
                if (cg.pages().in_far_memory(p) ||
                    cg.page_test(p, kPageAccessed) ||
                    cg.page_test(p, kPageUnevictable)) {
                    continue;
                }
                cg.set_page_age(p, 255);
                ++aged;
            }
        }
    }
    SloConfig candidate;
    candidate.percentile_k = 95.0;
    ASSERT_TRUE(fleet.propose_slo(candidate));
    for (int i = 0; i < 6; ++i)
        fleet.step();
}

// A fleet that steps on its worker pool, with every section kind in
// its checkpoint: clusters on an NVM + remote stack, "pool.NNNN" lease
// tables with leases granted and revoked, and a "rollout" campaign in
// flight. The digest and the file's StateDigest were captured on the
// build that concatenated every section in memory before one write
// and checked CRCs on the calling thread; the file hash was re-pinned
// for format version 6 (each job's access events in ascending key
// order), the digest was not. A serial twin writes the same bytes,
// and a restore on the pool lands on the same digest.
TEST(FleetCkpt, PooledRolloutFleetMatchesPinnedCheckpoint)
{
    constexpr std::uint64_t kDigest = 0x6b823e019b84606bULL;
    constexpr std::uint64_t kFileHash = 0xfba596d6c82278c3ULL;
    TempCkpt ckpt("fleet_ckpt_pooled_rollout.ckpt");
    TempCkpt twin_ckpt("fleet_ckpt_pooled_rollout_serial.ckpt");

    FleetConfig config = pooled_rollout_config(false);
    FarMemorySystem fleet(config);
    run_into_rollout(fleet);
    ASSERT_NE(fleet.rollout()->state(), RolloutState::kIdle);
    FleetFaultReport report = fleet.fault_report();
    ASSERT_GT(report.pool_leases_granted, 0u);
    ASSERT_GT(report.pool_revocations, 0u);
    MetricsSnapshot snap = fleet.fleet_telemetry();
    ASSERT_GT(snap.gauges.at("tier.nvm.stored_pages"), 0.0);
    ASSERT_GT(snap.gauges.at("tier.remote.stored_pages"), 0.0);
    EXPECT_EQ(fleet.state_digest(), kDigest);
    ASSERT_EQ(fleet.checkpoint(ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(file_hash(ckpt.path), kFileHash);

    FarMemorySystem twin(pooled_rollout_config(true));
    run_into_rollout(twin);
    EXPECT_EQ(twin.state_digest(), kDigest);
    ASSERT_EQ(twin.checkpoint(twin_ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(file_hash(twin_ckpt.path), kFileHash);

    FarMemorySystem resumed(config);
    ASSERT_EQ(resumed.restore(ckpt.path), CkptStatus::kOk);
    EXPECT_EQ(resumed.state_digest(), kDigest);
    EXPECT_EQ(resumed.rollout()->state(), fleet.rollout()->state());
}

}  // namespace
}  // namespace sdfm

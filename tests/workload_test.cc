/**
 * @file
 * Tests for the workload substrate: access-pattern generation, job
 * archetypes, Job stepping, and trace serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "compression/compressor.h"
#include "mem/zswap.h"
#include "util/digest.h"
#include "workload/access_pattern.h"
#include "workload/job.h"
#include "workload/job_profile.h"
#include "workload/trace.h"

namespace sdfm {
namespace {

// --------------------------------------------------------- event queue

/** (time, page) of a handed-over event. */
using Event = std::pair<SimTime, PageId>;

/**
 * Drain @p queue until @p end, rescheduling each page 1-99 s later
 * (often inside the same window) and retiring it with probability
 * 1/8, all drawn from @p rng. Returns the events in hand-over order.
 */
std::vector<Event>
drain_randomly(EventQueue &queue, SimTime end, Rng &rng)
{
    std::vector<Event> seen;
    queue.drain_until(end, [&](SimTime t, PageId page) -> std::uint64_t {
        seen.emplace_back(t, page);
        if (rng.next_below(8) == 0)
            return 0;
        SimTime gap = 1 + static_cast<SimTime>(rng.next_below(99));
        return EventQueue::make_key(t + gap, page);
    });
    return seen;
}

/** A queue holding one event per page at a random time in [0, 600). */
EventQueue
random_queue(std::uint32_t num_pages, Rng &rng)
{
    EventQueue queue(0, num_pages);
    for (PageId p = 0; p < num_pages; ++p)
        queue.emplace(static_cast<SimTime>(rng.next_below(600)), p);
    return queue;
}

TEST(EventQueue, DrainHandsOverInTimeThenPageOrder)
{
    Rng rng(3);
    EventQueue queue = random_queue(1000, rng);
    // A sorted mirror of the queue, run through the same handler.
    std::set<Event> mirror;
    for (std::uint64_t key : queue.raw())
        mirror.emplace(static_cast<SimTime>(key >> 32),
                       static_cast<PageId>(key & 0xffffffffu));

    Rng handler_rng(4);
    const SimTime end = 900;
    std::vector<Event> seen = drain_randomly(queue, end, handler_rng);

    Rng mirror_rng(4);
    std::vector<Event> expected;
    while (!mirror.empty() && mirror.begin()->first < end) {
        Event ev = *mirror.begin();
        mirror.erase(mirror.begin());
        expected.push_back(ev);
        if (mirror_rng.next_below(8) == 0)
            continue;
        mirror.emplace(ev.first + 1 +
                           static_cast<SimTime>(mirror_rng.next_below(99)),
                       ev.second);
    }
    // Replacements that land inside the window are handed over again
    // in the same drain, in order.
    ASSERT_GT(seen.size(), 1000u);
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_EQ(seen, expected);
    ASSERT_EQ(queue.size(), mirror.size());
    if (!queue.empty()) {
        const std::uint64_t front = queue.raw().front();
        EXPECT_GE(static_cast<SimTime>(front >> 32), end);
        EXPECT_EQ(static_cast<SimTime>(front >> 32), mirror.begin()->first);
        EXPECT_EQ(static_cast<PageId>(front & 0xffffffffu),
                  mirror.begin()->second);
    }
}

TEST(EventQueue, HandlerReturningZeroRetiresThePage)
{
    EventQueue queue(0, 64);
    for (PageId p = 0; p < 64; ++p)
        queue.emplace(10 + p % 7, p);
    std::uint64_t handled = queue.drain_until(
        100, [](SimTime t, PageId page) -> std::uint64_t {
            return page % 2 == 1 ? 0 : EventQueue::make_key(t + 200, page);
        });
    EXPECT_EQ(handled, 64u);
    ASSERT_EQ(queue.size(), 32u);
    std::vector<PageId> left;
    queue.drain_until(1000, [&](SimTime, PageId page) -> std::uint64_t {
        left.push_back(page);
        return 0;
    });
    EXPECT_TRUE(queue.empty());
    ASSERT_EQ(left.size(), 32u);
    for (PageId p : left)
        EXPECT_EQ(p % 2, 0u);
}

TEST(EventQueue, RawRestoreRoundTripDrainsIdentically)
{
    Rng rng(5);
    EventQueue original = random_queue(777, rng);
    Rng warm(6);
    drain_randomly(original, 300, warm);  // a mid-run layout

    EventQueue restored;
    ASSERT_TRUE(restored.restore_raw(original.raw(), 777));
    EXPECT_EQ(restored.raw(), original.raw());

    Rng a(7), b(7);
    for (SimTime end = 400; end <= 2000; end += 100) {
        ASSERT_EQ(drain_randomly(original, end, a),
                  drain_randomly(restored, end, b));
        ASSERT_EQ(original.raw(), restored.raw());
    }
}

TEST(EventQueue, RestoreRejectsCorruptArrays)
{
    auto key = &EventQueue::make_key;
    const std::vector<std::uint64_t> good = {key(1, 0), key(2, 1),
                                             key(3, 2), key(4, 3)};
    EventQueue queue;
    ASSERT_TRUE(queue.restore_raw(good, 4));

    // Page out of range.
    EXPECT_FALSE(queue.restore_raw({key(1, 0), key(2, 4)}, 4));
    // A page queued twice, in ascending order.
    EXPECT_FALSE(queue.restore_raw({key(1, 2), key(2, 1), key(3, 2)}, 4));
    // A key below the one before it.
    EXPECT_FALSE(queue.restore_raw({key(2, 0), key(3, 1), key(1, 2)}, 4));
    // A key equal to the one before it.
    EXPECT_FALSE(queue.restore_raw({key(1, 0), key(1, 0)}, 4));
    // A rejected array leaves the queue as it was.
    EXPECT_EQ(queue.raw(), good);
    EXPECT_TRUE(queue.restore_raw({}, 4));
    EXPECT_TRUE(queue.empty());
}

/** A gap of 1 s to 30 days: a minute, hours, days or weeks ahead, so
 *  events land in both wheel levels and in the far heap. */
SimTime
random_gap(Rng &rng)
{
    static constexpr SimTime kSpans[] = {kMinute, 4 * kHour, 2 * kDay,
                                         30 * kDay};
    return 1 + static_cast<SimTime>(rng.next_below(
                   static_cast<std::uint64_t>(kSpans[rng.next_below(4)])));
}

/** Keys of a mirror's events, ascending: what raw() must return. */
std::vector<std::uint64_t>
keys_of(const std::set<Event> &mirror)
{
    std::vector<std::uint64_t> keys;
    for (const Event &ev : mirror)
        keys.push_back(EventQueue::make_key(ev.first, ev.second));
    return keys;
}

TEST(EventQueue, HandsOverInKeyOrderAcrossEveryHorizon)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        const std::uint32_t num_pages =
            64 + static_cast<std::uint32_t>(rng.next_below(2048));
        SimTime now = static_cast<SimTime>(rng.next_below(kDay));
        EventQueue queue(now, num_pages);
        std::set<Event> mirror;
        std::vector<bool> queued(num_pages, false);
        // Queue each unqueued page with probability 1/2.
        auto refill = [&] {
            for (PageId p = 0; p < num_pages; ++p) {
                if (queued[p] || rng.next_below(2) == 0)
                    continue;
                const SimTime t = now + random_gap(rng) - 1;
                queue.emplace(t, p);
                mirror.emplace(t, p);
                queued[p] = true;
            }
        };
        // Hand over everything before `end` from both, through the same
        // handler draws: retire 1 in 16, else reschedule a random gap.
        auto drain = [&](SimTime end, std::uint64_t handler_seed) {
            Rng a(handler_seed), b(handler_seed);
            std::vector<Event> seen;
            const std::uint64_t handled = queue.drain_until(
                end, [&](SimTime t, PageId page) -> std::uint64_t {
                    seen.emplace_back(t, page);
                    if (a.next_below(16) == 0)
                        return 0;
                    return EventQueue::make_key(t + random_gap(a), page);
                });
            std::vector<Event> expected;
            while (!mirror.empty() && mirror.begin()->first < end) {
                const Event ev = *mirror.begin();
                mirror.erase(mirror.begin());
                expected.push_back(ev);
                if (b.next_below(16) == 0)
                    queued[ev.second] = false;
                else
                    mirror.emplace(ev.first + random_gap(b), ev.second);
            }
            now = end;
            EXPECT_EQ(handled, seen.size());
            return seen == expected;
        };
        refill();
        for (int op = 0; op < 200; ++op) {
            SCOPED_TRACE(op);
            const std::uint64_t choice = rng.next_below(16);
            if (choice == 0) {
                // Round trip: the restored copy lists the same array
                // before its first drain or emplace and after it.
                EventQueue restored;
                ASSERT_TRUE(restored.restore_raw(queue.raw(), num_pages));
                ASSERT_EQ(restored.raw(), keys_of(mirror));
                queue = std::move(restored);
                if (rng.next_below(2) == 0)
                    refill();
                ASSERT_TRUE(drain(now + 1 + static_cast<SimTime>(
                                                rng.next_below(kHour)),
                                  rng.next_u64()));
            } else if (choice == 1 && !mirror.empty()) {
                // Empty the queue, then fill it again.
                const SimTime end = mirror.rbegin()->first + 1;
                queue.drain_until(end, [](SimTime, PageId) {
                    return std::uint64_t{0};
                });
                mirror.clear();
                queued.assign(num_pages, false);
                now = end;
                ASSERT_TRUE(queue.empty());
                refill();
            } else if (choice == 2) {
                refill();
            } else {
                // Mostly steps of up to 10 minutes; sometimes hours or
                // days ahead, or past the last queued event.
                SimTime end = now + 1 + static_cast<SimTime>(
                                            rng.next_below(10 * kMinute));
                if (choice == 3)
                    end = now + random_gap(rng);
                else if (choice == 4 && !mirror.empty())
                    end = mirror.rbegin()->first + random_gap(rng);
                ASSERT_TRUE(drain(end, rng.next_u64()));
            }
            ASSERT_EQ(queue.size(), mirror.size());
            ASSERT_EQ(queue.raw(), keys_of(mirror));
        }
    }
}

// ------------------------------------------------------ access pattern

TEST(AccessPattern, DeterministicForSameSeed)
{
    JobProfile profile = profile_by_name("bigtable");
    AccessPattern a(profile, 1000, Rng(5), 0);
    AccessPattern b(profile, 1000, Rng(5), 0);
    for (SimTime t = 0; t < 30 * kMinute; t += kMinute) {
        std::vector<std::pair<PageId, bool>> ea, eb;
        a.step(t, kMinute,
               [&](PageId p, bool w) { ea.emplace_back(p, w); });
        b.step(t, kMinute,
               [&](PageId p, bool w) { eb.emplace_back(p, w); });
        ASSERT_EQ(ea, eb);
    }
}

TEST(AccessPattern, ClassFractionsRoughlyMatchProfile)
{
    JobProfile profile;
    profile.hot_frac = 0.5;
    profile.warm_frac = 0.3;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.1;
    AccessPattern pattern(profile, 20000, Rng(3), 0);
    // Jitter is +/-25%-ish; allow slack.
    EXPECT_NEAR(pattern.class_fraction(ReuseClass::kHot), 0.5, 0.15);
    EXPECT_NEAR(pattern.class_fraction(ReuseClass::kWarm), 0.3, 0.12);
    EXPECT_NEAR(pattern.class_fraction(ReuseClass::kCold), 0.1, 0.06);
    double total = 0.0;
    for (int c = 0; c < static_cast<int>(ReuseClass::kNumClasses); ++c)
        total += pattern.class_fraction(static_cast<ReuseClass>(c));
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(AccessPattern, HotPagesAccessedOften)
{
    JobProfile profile;
    profile.hot_frac = 1.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;
    profile.hot_gap_mean = 30.0;
    profile.diurnal_amplitude = 0.0;
    AccessPattern pattern(profile, 100, Rng(7), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    // 100 pages re-accessed every ~30 s for an hour: ~12000 events.
    EXPECT_GT(accesses, 8000u);
    EXPECT_LT(accesses, 16000u);
}

TEST(AccessPattern, FrozenPagesMostlySilent)
{
    JobProfile profile;
    profile.hot_frac = 0.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;  // all frozen
    profile.frozen_reaccess_prob = 0.0;
    AccessPattern pattern(profile, 1000, Rng(9), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < 4 * kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    // Exactly one initial touch per page, nothing after.
    EXPECT_EQ(accesses, 1000u);
}

TEST(AccessPattern, DiurnalMultiplierPeaksAtPeakHour)
{
    JobProfile profile;
    profile.diurnal_amplitude = 0.5;
    profile.diurnal_peak_hour = 14.0;
    AccessPattern pattern(profile, 10, Rng(11), 0);
    SimTime peak = static_cast<SimTime>(14.0 * 3600.0);
    SimTime trough = static_cast<SimTime>(2.0 * 3600.0);
    EXPECT_NEAR(pattern.diurnal_multiplier(peak), 1.5, 1e-9);
    EXPECT_NEAR(pattern.diurnal_multiplier(trough), 0.5, 1e-9);
}

TEST(AccessPattern, WriteFractionRespected)
{
    JobProfile profile;
    profile.hot_frac = 1.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;
    profile.write_frac = 0.25;
    AccessPattern pattern(profile, 200, Rng(13), 0);
    std::uint64_t writes = 0, total = 0;
    for (SimTime t = 0; t < 2 * kHour; t += kMinute) {
        total += pattern.step(t, kMinute, [&](PageId, bool w) {
            writes += w ? 1 : 0;
        });
    }
    ASSERT_GT(total, 1000u);
    EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(total),
                0.25, 0.03);
}

TEST(AccessPattern, ScanEventsTouchSwath)
{
    JobProfile profile;
    profile.hot_frac = 0.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;  // all frozen: only scans touch pages
    profile.frozen_reaccess_prob = 0.0;
    profile.scan_interval_mean = 30 * kMinute;
    profile.scan_fraction = 0.5;
    AccessPattern pattern(profile, 2000, Rng(21), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < 4 * kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    // Initial touches (2000) plus ~8 scans of ~1000 pages each.
    EXPECT_GT(accesses, 2000u + 3000u);
    EXPECT_LT(accesses, 2000u + 16000u);
}

TEST(AccessPattern, NoScansWhenDisabled)
{
    JobProfile profile;
    profile.hot_frac = 0.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;
    profile.frozen_reaccess_prob = 0.0;
    profile.scan_interval_mean = 0;  // disabled
    AccessPattern pattern(profile, 500, Rng(23), 0);
    EXPECT_EQ(pattern.next_scan(), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < 2 * kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    EXPECT_EQ(accesses, 500u);  // initial touches only
}

// ------------------------------------------------- golden access streams

struct GoldenStream
{
    const char *profile;
    std::uint64_t stream_hash;  ///< (page, is_write) stream and counts
    std::uint64_t ckpt_hash;    ///< ckpt_save() bytes after the run
};

/**
 * Each archetype's fixed-seed access stream over 100 one-minute
 * control periods, starting at 19:30 so the diurnal classes cross the
 * end of their active window. The values pin the reference trajectory
 * bit for bit: a change to the event queue, the RNG draws or the
 * per-access gap math that moves either hash changes what the
 * simulator produces. Update them only in a change that rebaselines
 * the trajectory on purpose and says so.
 */
constexpr GoldenStream kGoldenStreams[] = {
    {"web_frontend", 0xe0ed2f27d9a9f3eaULL, 0x825748fad4db9d99ULL},
    {"bigtable", 0xa9ceeebdb14d6643ULL, 0x545be1b25052bb22ULL},
    {"kv_cache", 0xfba147f5f95cd26dULL, 0x9494e7528f7e68bdULL},
    {"ml_training", 0x48af77e74c86964dULL, 0x07b11a93327fdc02ULL},
    {"batch_analytics", 0xef547f16d36a41acULL, 0x9d82fb896a92199bULL},
    {"logs", 0x9802dbad531dfd45ULL, 0x44f0dc0e1dd6d2fdULL},
    {"memory_bomb", 0x8ac46975aede8cc1ULL, 0xc293868b1b3c02caULL},
};

/**
 * Each archetype's fixed-seed access stream over two simulated days in
 * 10-minute steps from 19:30: far enough to cross 256-s block edges,
 * the ~18-hour edge of the event queue's near levels, the diurnal
 * classes' days-ahead wake-ups and the frozen pages' hours-to-days
 * re-accesses. Pinned like kGoldenStreams' stream hashes.
 */
constexpr std::pair<const char *, std::uint64_t> kHorizonStreams[] = {
    {"web_frontend", 0xe07d3fc3ead15a66ULL},
    {"bigtable", 0xdee1957fc5bad4e8ULL},
    {"kv_cache", 0x462b753769fc6350ULL},
    {"ml_training", 0x966b14498348da36ULL},
    {"batch_analytics", 0x0dab89bff1dc48acULL},
    {"logs", 0x34c737436be597f1ULL},
    {"memory_bomb", 0x0763dc1c9673db9fULL},
};

TEST(AccessPattern, GoldenStreamsCoverEveryArchetype)
{
    std::vector<std::string> names;
    for (const JobProfile &p : typical_fleet_mix().profiles)
        names.push_back(p.name);
    names.push_back(memory_bomb_profile().name);
    std::vector<std::string> pinned;
    for (const GoldenStream &g : kGoldenStreams)
        pinned.emplace_back(g.profile);
    EXPECT_EQ(pinned, names);
    std::vector<std::string> long_pinned;
    for (const auto &[name, hash] : kHorizonStreams)
        long_pinned.emplace_back(name);
    EXPECT_EQ(long_pinned, names);
}

TEST(AccessPattern, GoldenStreamsBitIdentical)
{
    const SimTime start = 19 * kHour + 30 * kMinute;
    std::uint64_t seed = 1;
    for (const GoldenStream &g : kGoldenStreams) {
        SCOPED_TRACE(g.profile);
        JobProfile profile = profile_by_name(g.profile);
        AccessPattern pattern(profile, profile.min_pages, Rng(seed++), start);
        StateDigest stream;
        for (int period = 0; period < 100; ++period) {
            std::uint64_t n = pattern.step(
                start + period * kMinute, kMinute, [&](PageId p, bool w) {
                    stream.mix((static_cast<std::uint64_t>(p) << 1) |
                               (w ? 1u : 0u));
                });
            stream.mix(n);
        }
        Serializer s;
        pattern.ckpt_save(s);
        StateDigest ckpt;
        for (std::uint8_t b : s.bytes())
            ckpt.mix(b);
        EXPECT_EQ(stream.value(), g.stream_hash);
        EXPECT_EQ(ckpt.value(), g.ckpt_hash);
    }
}


TEST(AccessPattern, GoldenStreamsAcrossTheWheelHorizons)
{
    const SimTime start = 19 * kHour + 30 * kMinute;
    const SimTime dt = 10 * kMinute;
    const int steps = static_cast<int>(2 * kDay / dt);
    const int resume_at = static_cast<int>(kDay / dt);
    // One multiply per access keeps two days of every archetype cheap
    // enough for sanitizer builds; each step folds into a StateDigest.
    auto step_hash = [](AccessPattern &pattern, SimTime now, SimTime dt_) {
        std::uint64_t h = 0;
        std::uint64_t n = pattern.step(now, dt_, [&](PageId p, bool w) {
            h = (h ^ ((static_cast<std::uint64_t>(p) << 1) | (w ? 1u : 0u))) *
                0x9e3779b97f4a7c15ULL;
        });
        return std::pair{h, n};
    };
    std::uint64_t seed = 1;
    for (const auto &[name, pinned] : kHorizonStreams) {
        SCOPED_TRACE(name);
        JobProfile profile = profile_by_name(name);
        AccessPattern pattern(profile, profile.min_pages, Rng(seed++), start);
        // A copy restored from the day-1 checkpoint steps beside the
        // original and must hand over the identical stream.
        AccessPattern resumed(profile, CkptRestoreTag{});
        StateDigest stream;
        for (int i = 0; i < steps; ++i) {
            if (i == resume_at) {
                Serializer s;
                pattern.ckpt_save(s);
                Deserializer d(s.bytes());
                ASSERT_TRUE(resumed.ckpt_load(d));
            }
            const SimTime now = start + i * dt;
            const auto [h, n] = step_hash(pattern, now, dt);
            stream.mix(h);
            stream.mix(n);
            if (i >= resume_at) {
                ASSERT_EQ(step_hash(resumed, now, dt), std::pair(h, n))
                    << "step " << i;
            }
        }
        EXPECT_EQ(stream.value(), pinned);
    }
}

// ------------------------------------------------------------ profiles

TEST(JobProfileTest, TypicalMixIsWellFormed)
{
    FleetMix mix = typical_fleet_mix();
    ASSERT_EQ(mix.profiles.size(), mix.weights.size());
    ASSERT_GE(mix.profiles.size(), 5u);
    for (const JobProfile &p : mix.profiles) {
        EXPECT_FALSE(p.name.empty());
        EXPECT_GT(p.min_pages, 0u);
        EXPECT_LE(p.min_pages, p.max_pages);
        double reuse = p.hot_frac + p.warm_frac + p.diurnal_frac +
                       p.cold_frac;
        EXPECT_LE(reuse, 1.0 + 1e-9) << p.name;
        EXPECT_GE(p.write_frac, 0.0);
        EXPECT_LE(p.write_frac, 1.0);
    }
}

TEST(JobProfileTest, SampleCoversArchetypes)
{
    FleetMix mix = typical_fleet_mix();
    Rng rng(15);
    std::vector<int> counts(mix.profiles.size(), 0);
    for (int i = 0; i < 5000; ++i)
        ++counts[mix.sample(rng)];
    for (std::size_t i = 0; i < counts.size(); ++i)
        EXPECT_GT(counts[i], 0) << mix.profiles[i].name;
}

TEST(JobProfileTest, LookupByName)
{
    JobProfile p = profile_by_name("kv_cache");
    EXPECT_EQ(p.name, "kv_cache");
}

// ----------------------------------------------------------------- job

TEST(JobTest, SizeWithinProfileRange)
{
    JobProfile profile = profile_by_name("web_frontend");
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Job job(1, profile, seed, 0);
        EXPECT_GE(job.memcg().num_pages(), profile.min_pages);
        EXPECT_LE(job.memcg().num_pages(), profile.max_pages);
    }
}

TEST(JobTest, StepChargesAppCycles)
{
    JobProfile profile = profile_by_name("bigtable");
    auto compressor = make_compressor(CompressionMode::kModeled);
    Zswap zswap(compressor.get(), 1);
    Job job(1, profile, 3, 0);
    JobStepStats stats = job.run_step(0, kMinute, zswap);
    EXPECT_GT(stats.accesses, 0u);
    EXPECT_DOUBLE_EQ(job.memcg().stats().app_cycles,
                     profile.cycles_per_access *
                         static_cast<double>(stats.accesses));
}

TEST(JobTest, BestEffortFlagPropagates)
{
    JobProfile profile = profile_by_name("batch_analytics");
    ASSERT_TRUE(profile.best_effort);
    Job job(1, profile, 3, 0);
    EXPECT_TRUE(job.memcg().best_effort());
}

// --------------------------------------------------------------- trace

TraceEntry
make_entry(JobId job, SimTime ts)
{
    TraceEntry entry;
    entry.job = job;
    entry.timestamp = ts;
    entry.wss_pages = 1234;
    entry.promo_delta.add(3, 7);
    entry.promo_delta.add(250, 1);
    entry.cold_hist.add(0, 100);
    entry.cold_hist.add(10, 50);
    entry.sli.zswap_promotions_delta = 5;
    entry.sli.zswap_stores_delta = 11;
    entry.sli.zswap_rejects_delta = 2;
    entry.sli.zswap_pages = 42;
    entry.sli.resident_pages = 999;
    entry.sli.cold_pages_min = 77;
    entry.sli.compressed_bytes = 123456;
    entry.sli.compress_cycles_delta = 1.5;
    entry.sli.decompress_cycles_delta = 2.5;
    entry.sli.app_cycles_delta = 1e9;
    entry.sli.decompress_latency_us_delta = 6.4;
    return entry;
}

TEST(TraceTest, SaveLoadRoundTrip)
{
    TraceLog log;
    log.append(make_entry(1, 300));
    log.append(make_entry(2, 300));
    log.append(make_entry(1, 600));

    std::stringstream ss;
    log.save(ss);

    TraceLog loaded;
    ASSERT_TRUE(loaded.load(ss));
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded.entries()[0], log.entries()[0]);
    EXPECT_EQ(loaded.entries()[2], log.entries()[2]);
}

TEST(TraceTest, ByJobGroupsAndSorts)
{
    TraceLog log;
    log.append(make_entry(2, 600));
    log.append(make_entry(1, 900));
    log.append(make_entry(2, 300));
    auto traces = log.by_job();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].job, 1u);
    EXPECT_EQ(traces[1].job, 2u);
    ASSERT_EQ(traces[1].entries.size(), 2u);
    EXPECT_LT(traces[1].entries[0].timestamp,
              traces[1].entries[1].timestamp);
}

TEST(TraceTest, LoadRejectsGarbage)
{
    TraceLog log;
    std::stringstream ss("not a trace\n");
    EXPECT_FALSE(log.load(ss));
}

TEST(TraceTest, LoadRejectsMissingSli)
{
    TraceLog log;
    std::stringstream ss("E 1 300 10\nP\nC\n");
    EXPECT_FALSE(log.load(ss));
}

TEST(TraceTest, EmptyLogRoundTrip)
{
    TraceLog log;
    std::stringstream ss;
    log.save(ss);
    TraceLog loaded;
    EXPECT_TRUE(loaded.load(ss));
    EXPECT_TRUE(loaded.empty());
}

/**
 * Property: serialization round-trips over randomized entries.
 */
class TraceRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceRoundTrip, Randomized)
{
    Rng rng(GetParam());
    TraceLog log;
    std::size_t n = 1 + rng.next_below(30);
    for (std::size_t i = 0; i < n; ++i) {
        TraceEntry entry;
        entry.job = rng.next_below(5);
        entry.timestamp = static_cast<SimTime>(rng.next_below(100000));
        entry.wss_pages = rng.next_below(1 << 20);
        for (int b = 0; b < 8; ++b) {
            entry.promo_delta.add(
                static_cast<AgeBucket>(rng.next_below(256)),
                rng.next_below(1000));
            entry.cold_hist.add(
                static_cast<AgeBucket>(rng.next_below(256)),
                rng.next_below(1000));
        }
        entry.sli.zswap_pages = rng.next_below(1 << 16);
        entry.sli.app_cycles_delta = rng.next_double() * 1e12;
        log.append(entry);
    }
    std::stringstream ss;
    log.save(ss);
    TraceLog loaded;
    ASSERT_TRUE(loaded.load(ss));
    ASSERT_EQ(loaded.size(), log.size());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(loaded.entries()[i], log.entries()[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace sdfm

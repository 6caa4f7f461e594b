/**
 * @file
 * Tests for the zsmalloc arena: accounting invariants, payload
 * round-trips, fragmentation behaviour, compaction (held move for
 * move to a per-class reference loop), and the global-vs-per-memcg
 * arena comparison the paper describes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ckpt/checkpoint.h"
#include "util/rng.h"
#include "util/units.h"
#include "zsmalloc/zsmalloc.h"

namespace sdfm {
namespace {

TEST(Zsmalloc, StoreReleaseAccounting)
{
    ZsmallocArena arena;
    ZsHandle h = arena.store(1000);
    EXPECT_NE(h, 0u);
    EXPECT_EQ(arena.live_objects(), 1u);
    EXPECT_EQ(arena.stored_bytes(), 1000u);
    EXPECT_GT(arena.pool_bytes(), 0u);
    arena.release(h);
    EXPECT_EQ(arena.live_objects(), 0u);
    EXPECT_EQ(arena.stored_bytes(), 0u);
    EXPECT_EQ(arena.pool_bytes(), 0u);
}

TEST(Zsmalloc, PayloadSizeQuery)
{
    ZsmallocArena arena;
    ZsHandle h = arena.store(777);
    EXPECT_EQ(arena.payload_size(h), 777u);
}

TEST(Zsmalloc, PayloadBytesRoundTrip)
{
    ZsmallocArena arena(/*keep_payload_bytes=*/true);
    std::vector<std::uint8_t> data(513);
    Rng rng(1);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    ZsHandle h = arena.store(static_cast<std::uint32_t>(data.size()),
                             data.data());
    const std::uint8_t *stored = arena.payload(h);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(std::vector<std::uint8_t>(stored, stored + data.size()), data);
}

TEST(Zsmalloc, NoPayloadBytesByDefault)
{
    ZsmallocArena arena;
    ZsHandle h = arena.store(100);
    EXPECT_EQ(arena.payload(h), nullptr);
}

TEST(Zsmalloc, PoolSharedWithinSizeClass)
{
    ZsmallocArena arena;
    // Objects of ~128 B share zspages: pool grows sublinearly.
    std::vector<ZsHandle> handles;
    for (int i = 0; i < 32; ++i)
        handles.push_back(arena.store(128));
    // 32 * 128 B = 4 KiB of payload; the pool should be a few pages,
    // not 32.
    EXPECT_LE(arena.pool_bytes(), 4u * kPageSize);
    for (ZsHandle h : handles)
        arena.release(h);
    EXPECT_EQ(arena.pool_bytes(), 0u);
}

TEST(Zsmalloc, DistinctSizeClassesDistinctPools)
{
    ZsmallocArena arena;
    arena.store(100);
    std::uint64_t after_first = arena.pool_bytes();
    arena.store(3000);
    EXPECT_GT(arena.pool_bytes(), after_first);
}

TEST(Zsmalloc, FragmentationAfterSparseFrees)
{
    ZsmallocArena arena;
    std::vector<ZsHandle> handles;
    for (int i = 0; i < 1024; ++i)
        handles.push_back(arena.store(512));
    double before = arena.fragmentation();
    // Free every other object: holes appear, pool stays.
    for (std::size_t i = 0; i < handles.size(); i += 2)
        arena.release(handles[i]);
    double after = arena.fragmentation();
    EXPECT_GT(after, before);
    EXPECT_GT(after, 0.3);
}

TEST(Zsmalloc, CompactReclaimsSparseZspages)
{
    ZsmallocArena arena;
    std::vector<ZsHandle> handles;
    for (int i = 0; i < 1024; ++i)
        handles.push_back(arena.store(512));
    for (std::size_t i = 0; i < handles.size(); i += 2)
        arena.release(handles[i]);
    std::uint64_t pool_before = arena.pool_bytes();
    std::uint64_t released = arena.compact();
    EXPECT_GT(released, 0u);
    EXPECT_EQ(arena.pool_bytes(), pool_before - released);
    // After compaction the pool is near-minimal for the live bytes.
    EXPECT_LT(arena.fragmentation(), 0.15);
    // All live handles still resolve.
    for (std::size_t i = 1; i < handles.size(); i += 2)
        EXPECT_EQ(arena.payload_size(handles[i]), 512u);
}

TEST(Zsmalloc, CompactPreservesPayloadBytes)
{
    ZsmallocArena arena(/*keep_payload_bytes=*/true);
    Rng rng(7);
    std::vector<ZsHandle> handles;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (int i = 0; i < 300; ++i) {
        std::vector<std::uint8_t> data(256);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next_u64());
        handles.push_back(arena.store(256, data.data()));
        payloads.push_back(std::move(data));
    }
    for (std::size_t i = 0; i < handles.size(); i += 3)
        arena.release(handles[i]);
    arena.compact();
    for (std::size_t i = 0; i < handles.size(); ++i) {
        if (i % 3 == 0)
            continue;
        const std::uint8_t *stored = arena.payload(handles[i]);
        ASSERT_NE(stored, nullptr);
        EXPECT_EQ(std::vector<std::uint8_t>(stored, stored + 256),
                  payloads[i]);
    }
}

TEST(Zsmalloc, CompactOnEmptyArena)
{
    ZsmallocArena arena;
    EXPECT_EQ(arena.compact(), 0u);
}

TEST(Zsmalloc, ReleasedZspageSlotReused)
{
    ZsmallocArena arena;
    ZsHandle a = arena.store(4000);
    std::uint64_t pool = arena.pool_bytes();
    arena.release(a);
    ZsHandle b = arena.store(4000);
    EXPECT_EQ(arena.pool_bytes(), pool);  // same backing re-acquired
    arena.release(b);
}

TEST(Zsmalloc, StatsCounters)
{
    ZsmallocArena arena;
    ZsHandle h1 = arena.store(64);
    ZsHandle h2 = arena.store(64);
    arena.release(h1);
    arena.compact();
    const ZsmallocStats &stats = arena.stats();
    EXPECT_EQ(stats.total_allocs, 2u);
    EXPECT_EQ(stats.total_frees, 1u);
    EXPECT_EQ(stats.compactions, 1u);
    arena.release(h2);
}

TEST(ZsmallocDeath, DoubleFreeCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ZsmallocArena arena;
    ZsHandle h = arena.store(100);
    arena.release(h);
    EXPECT_DEATH(arena.release(h), "assertion failed");
}

TEST(ZsmallocDeath, InvalidHandleCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ZsmallocArena arena;
    EXPECT_DEATH(arena.payload_size(0), "assertion failed");
    EXPECT_DEATH(arena.payload_size(12345), "assertion failed");
}

/**
 * Property: over random alloc/free/compact interleavings, accounting
 * stays exact and fragmentation is bounded after compaction.
 */
class ZsmallocChurn : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ZsmallocChurn, AccountingInvariants)
{
    Rng rng(GetParam());
    ZsmallocArena arena;
    std::vector<std::pair<ZsHandle, std::uint32_t>> live;
    std::uint64_t expected_bytes = 0;
    for (int op = 0; op < 4000; ++op) {
        double u = rng.next_double();
        if (u < 0.55 || live.empty()) {
            auto size =
                static_cast<std::uint32_t>(24 + rng.next_below(4072));
            live.emplace_back(arena.store(size), size);
            expected_bytes += size;
        } else if (u < 0.97) {
            std::size_t pick = rng.next_below(live.size());
            arena.release(live[pick].first);
            expected_bytes -= live[pick].second;
            live[pick] = live.back();
            live.pop_back();
        } else {
            arena.compact();
        }
        ASSERT_EQ(arena.stored_bytes(), expected_bytes);
        ASSERT_EQ(arena.live_objects(), live.size());
        ASSERT_GE(arena.pool_bytes(), arena.stored_bytes());
    }
    arena.compact();
    std::uint64_t pool_after_compact = arena.pool_bytes();
    // Compaction is idempotent: a second pass frees nothing.
    EXPECT_EQ(arena.compact(), 0u);
    EXPECT_EQ(arena.pool_bytes(), pool_after_compact);
    if (expected_bytes > 256 * kPageSize) {
        // Residual overhead after compaction is internal (size-class
        // rounding and zspage tail waste), bounded well below the
        // sparse-zspage fragmentation compaction removes.
        EXPECT_LT(arena.fragmentation(), 0.5);
    }
    for (auto &[h, size] : live)
        arena.release(h);
    EXPECT_EQ(arena.pool_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZsmallocChurn,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/**
 * Reference model of an arena, read from and written back to its
 * checkpoint wire, with compaction as one entry-table walk per
 * over-bound class: the loop ZsmallocArena::compact() ran before it
 * walked the table once for every class. The arena's compaction must
 * make the same moves, so the wire after compact() -- entry-to-zspage
 * map, free-slot and candidate order, pool bytes and moved bytes --
 * must equal this model's.
 */
struct ReferenceArena
{
    struct Entry
    {
        std::uint32_t size = 0;
        std::uint16_t class_idx = 0;
        std::uint32_t zspage = 0;
        bool live = false;
        std::vector<std::uint8_t> bytes;
    };
    struct SizeClass
    {
        std::uint32_t objects_per_zspage = 0;
        std::uint32_t pages_per_zspage = 0;
        std::vector<std::uint32_t> zspage_occupancy;
        std::vector<std::uint32_t> candidates;
        std::vector<std::uint32_t> free_zspage_slots;
        std::uint64_t live = 0;
    };

    bool keep_payload_bytes = false;
    std::vector<Entry> entries;
    std::vector<std::uint64_t> free_entries;
    std::vector<SizeClass> classes;
    std::uint64_t stats[7] = {};  // live .. compaction_moved_bytes

    static std::uint32_t
    pages_per_zspage(std::uint32_t object_size)
    {
        std::uint32_t best = 1;
        std::uint32_t best_waste = kPageSize % object_size;
        for (std::uint32_t p = 2; p <= 4; ++p) {
            std::uint32_t waste = (p * kPageSize) % object_size;
            if (waste * best < best_waste * p) {
                best = p;
                best_waste = waste;
            }
        }
        return best;
    }

    explicit ReferenceArena(const std::vector<std::uint8_t> &wire)
    {
        Deserializer d(wire);
        keep_payload_bytes = d.get_bool();
        entries.resize(d.get_u64());
        for (std::size_t slot = 1; slot < entries.size(); ++slot) {
            Entry &e = entries[slot];
            e.size = d.get_u32();
            e.class_idx = d.get_u16();
            e.zspage = d.get_u32();
            e.live = d.get_bool();
            e.bytes.resize(d.get_u64());
            for (std::uint8_t &b : e.bytes)
                b = d.get_u8();
        }
        free_entries = d.get_u64_vec();
        classes.resize(d.get_u64());
        for (std::size_t c = 0; c < classes.size(); ++c) {
            SizeClass &cls = classes[c];
            auto object_size = static_cast<std::uint32_t>(32 * (c + 1));
            cls.pages_per_zspage = pages_per_zspage(object_size);
            cls.objects_per_zspage =
                cls.pages_per_zspage * kPageSize / object_size;
            for (auto *v : {&cls.zspage_occupancy, &cls.candidates,
                            &cls.free_zspage_slots}) {
                v->resize(d.get_u64());
                for (std::uint32_t &x : *v)
                    x = d.get_u32();
            }
            cls.live = d.get_u64();
        }
        for (std::uint64_t &x : stats)
            x = d.get_u64();
        EXPECT_TRUE(d.ok() && d.at_end());
    }

    std::vector<std::uint8_t>
    wire() const
    {
        Serializer s;
        s.put_bool(keep_payload_bytes);
        s.put_u64(entries.size());
        for (std::size_t slot = 1; slot < entries.size(); ++slot) {
            const Entry &e = entries[slot];
            s.put_u32(e.size);
            s.put_u16(e.class_idx);
            s.put_u32(e.zspage);
            s.put_bool(e.live);
            s.put_u64(e.bytes.size());
            for (std::uint8_t b : e.bytes)
                s.put_u8(b);
        }
        s.put_u64_vec(free_entries);
        s.put_u64(classes.size());
        for (const SizeClass &cls : classes) {
            for (const auto *v : {&cls.zspage_occupancy, &cls.candidates,
                                  &cls.free_zspage_slots}) {
                s.put_u64(v->size());
                for (std::uint32_t x : *v)
                    s.put_u32(x);
            }
            s.put_u64(cls.live);
        }
        for (std::uint64_t x : stats)
            s.put_u64(x);
        return s.bytes();
    }

    std::uint64_t
    compact()
    {
        std::uint64_t &pool_bytes = stats[2];
        std::uint64_t &compactions = stats[5];
        std::uint64_t &moved_bytes = stats[6];
        ++compactions;
        std::uint64_t released = 0;
        for (std::uint16_t class_idx = 0; class_idx < classes.size();
             ++class_idx) {
            SizeClass &cls = classes[class_idx];
            if (cls.live == 0)
                continue;
            std::uint64_t needed =
                (cls.live + cls.objects_per_zspage - 1) /
                cls.objects_per_zspage;
            std::vector<std::uint32_t> live_zspages;
            for (std::uint32_t id = 0; id < cls.zspage_occupancy.size();
                 ++id) {
                if (cls.zspage_occupancy[id] > 0)
                    live_zspages.push_back(id);
            }
            if (live_zspages.size() <= needed)
                continue;
            std::sort(live_zspages.begin(), live_zspages.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          return cls.zspage_occupancy[a] <
                                 cls.zspage_occupancy[b];
                      });
            std::size_t evacuate_count = live_zspages.size() - needed;
            std::vector<bool> evacuate(cls.zspage_occupancy.size(), false);
            for (std::size_t i = 0; i < evacuate_count; ++i)
                evacuate[live_zspages[i]] = true;
            std::vector<std::uint32_t> receivers(
                live_zspages.begin() +
                    static_cast<std::ptrdiff_t>(evacuate_count),
                live_zspages.end());
            std::size_t recv_pos = 0;
            for (std::size_t slot = 1; slot < entries.size(); ++slot) {
                Entry &e = entries[slot];
                if (!e.live || e.class_idx != class_idx ||
                    !evacuate[e.zspage]) {
                    continue;
                }
                while (recv_pos < receivers.size() &&
                       cls.zspage_occupancy[receivers[recv_pos]] >=
                           cls.objects_per_zspage) {
                    ++recv_pos;
                }
                std::uint32_t dst = receivers.at(recv_pos);
                --cls.zspage_occupancy[e.zspage];
                ++cls.zspage_occupancy[dst];
                e.zspage = dst;
                moved_bytes += e.size;
            }
            for (std::size_t i = 0; i < evacuate_count; ++i) {
                cls.free_zspage_slots.push_back(live_zspages[i]);
                std::uint64_t bytes =
                    std::uint64_t{cls.pages_per_zspage} * kPageSize;
                pool_bytes -= bytes;
                released += bytes;
            }
            cls.candidates.clear();
            for (std::uint32_t id = 0; id < cls.zspage_occupancy.size();
                 ++id) {
                if (cls.zspage_occupancy[id] > 0 &&
                    cls.zspage_occupancy[id] < cls.objects_per_zspage) {
                    cls.candidates.push_back(id);
                }
            }
        }
        return released;
    }
};

std::vector<std::uint8_t>
arena_wire(const ZsmallocArena &arena)
{
    Serializer s;
    arena.ckpt_save(s);
    return s.bytes();
}

TEST(ZsmallocCompact, OneWalkMakesThePerClassLoopsMoves)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed);
        ZsmallocArena arena(seed == 3);  // one arena keeps payloads
        std::vector<ZsHandle> live;
        std::uint64_t compactions_with_moves = 0;
        for (int round = 0; round < 60; ++round) {
            // A few hot size classes, so several classes go over
            // their bound at once, plus a spread of others.
            int stores = 100 + static_cast<int>(rng.next_below(300));
            for (int i = 0; i < stores; ++i) {
                auto size = static_cast<std::uint32_t>(
                    rng.next_bool(0.7) ? 200 + 320 * rng.next_below(5) +
                                             rng.next_below(32)
                                       : 1 + rng.next_below(4096));
                std::vector<std::uint8_t> bytes(size,
                                                static_cast<std::uint8_t>(i));
                live.push_back(arena.store(size, bytes.data()));
            }
            double release_frac = 0.2 + 0.5 * rng.next_double();
            for (std::size_t i = 0; i < live.size();) {
                if (rng.next_bool(release_frac)) {
                    arena.release(live[i]);
                    live[i] = live.back();
                    live.pop_back();
                } else {
                    ++i;
                }
            }

            ReferenceArena want(arena_wire(arena));
            std::uint64_t moved_before = arena.stats().compaction_moved_bytes;
            std::uint64_t want_released = want.compact();
            EXPECT_EQ(arena.compact(), want_released)
                << "seed " << seed << " round " << round;
            ASSERT_EQ(arena_wire(arena), want.wire())
                << "seed " << seed << " round " << round;
            arena.check_invariants();
            if (arena.stats().compaction_moved_bytes > moved_before)
                ++compactions_with_moves;
        }
        EXPECT_GT(compactions_with_moves, 30u) << "seed " << seed;
    }
}

// compact() counts a class's backed zspages from its free-slot list,
// so a restore must not accept a list that misses or repeats an empty
// zspage.
TEST(ZsmallocCompact, RestoreRejectsFreeSlotListsThatMissOrRepeatAZspage)
{
    ZsmallocArena arena;
    std::vector<ZsHandle> handles;
    for (int i = 0; i < 64; ++i)
        handles.push_back(arena.store(1000));  // 4 per one-page zspage
    for (int i = 0; i < 8; ++i)
        arena.release(handles[static_cast<std::size_t>(i)]);
    ReferenceArena wire(arena_wire(arena));
    std::vector<std::uint32_t> &free_slots =
        wire.classes[31].free_zspage_slots;  // the 1,024-byte class
    ASSERT_EQ(free_slots, (std::vector<std::uint32_t>{0, 1}));

    auto loads = [&](std::vector<std::uint32_t> slots) {
        ReferenceArena edited = wire;
        edited.classes[31].free_zspage_slots = std::move(slots);
        std::vector<std::uint8_t> bytes = edited.wire();
        Deserializer d(bytes);
        ZsmallocArena back;
        return back.ckpt_load(d);
    };
    EXPECT_TRUE(loads({0, 1}));
    EXPECT_TRUE(loads({1, 0}));
    EXPECT_FALSE(loads({0}));     // zspage 1 is empty but unlisted
    EXPECT_FALSE(loads({0, 0}));  // listed twice, 1 missing
    EXPECT_FALSE(loads({0, 1, 2}));  // zspage 2 is backed
}

// A handle is an entry index, so a restore must not accept a free list
// that repeats a dead slot (two stores would share a handle), an entry
// record the 16-byte entry cannot hold, or payload bytes shorter than
// the payload they stand for.
TEST(ZsmallocCkpt, RestoreRejectsRepeatedFreeEntriesAndBadRecords)
{
    ZsmallocArena arena(/*keep_payload_bytes=*/true);
    std::vector<std::uint8_t> data(100, 7);
    std::vector<ZsHandle> handles;
    for (int i = 0; i < 8; ++i)
        handles.push_back(arena.store(100, data.data()));
    arena.release(handles[2]);
    arena.release(handles[5]);
    ReferenceArena wire(arena_wire(arena));
    ASSERT_EQ(wire.free_entries, (std::vector<std::uint64_t>{3, 6}));

    auto loads = [](const ReferenceArena &edited) {
        std::vector<std::uint8_t> bytes = edited.wire();
        Deserializer d(bytes);
        ZsmallocArena back(/*keep_payload_bytes=*/true);
        return back.ckpt_load(d);
    };
    EXPECT_TRUE(loads(wire));
    ReferenceArena repeated = wire;
    repeated.free_entries = {3, 3};  // slot 6 is dead but unlisted
    EXPECT_FALSE(loads(repeated));
    ReferenceArena oversized = wire;
    oversized.entries[3].size = 70000;  // a dead record past 4 KiB
    EXPECT_FALSE(loads(oversized));
    ReferenceArena short_bytes = wire;
    short_bytes.entries[1].bytes.resize(50);  // payload is 100 bytes
    EXPECT_FALSE(loads(short_bytes));
}

/**
 * The paper's Section 5.1 finding: one machine-global arena
 * fragments far less than per-memcg arenas under many small jobs.
 */
TEST(ZsmallocArenaGranularity, GlobalBeatsPerMemcg)
{
    Rng rng(99);
    constexpr std::size_t kJobs = 40;
    constexpr std::size_t kObjsPerJob = 60;

    // Per-memcg: each job its own arena.
    std::vector<std::unique_ptr<ZsmallocArena>> per_job;
    std::vector<std::vector<ZsHandle>> per_job_handles(kJobs);
    for (std::size_t j = 0; j < kJobs; ++j)
        per_job.push_back(std::make_unique<ZsmallocArena>());
    // Global: one arena for everyone.
    ZsmallocArena global;
    std::vector<ZsHandle> global_handles;

    Rng sizes_rng(17);
    for (std::size_t j = 0; j < kJobs; ++j) {
        for (std::size_t i = 0; i < kObjsPerJob; ++i) {
            auto size =
                static_cast<std::uint32_t>(64 + sizes_rng.next_below(2000));
            per_job_handles[j].push_back(per_job[j]->store(size));
            global_handles.push_back(global.store(size));
        }
    }
    // Random frees (same pattern for both).
    Rng free_rng(23);
    for (std::size_t j = 0; j < kJobs; ++j) {
        for (std::size_t i = 0; i < kObjsPerJob; ++i) {
            if (free_rng.next_bool(0.5)) {
                per_job[j]->release(per_job_handles[j][i]);
                global.release(global_handles[j * kObjsPerJob + i]);
            }
        }
    }

    std::uint64_t per_job_pool = 0;
    for (auto &arena : per_job)
        per_job_pool += arena->pool_bytes();
    // Identical live bytes, so pool size differences are pure
    // fragmentation: global must hold them in no more memory.
    EXPECT_LE(global.pool_bytes(), per_job_pool);
    EXPECT_LE(global.fragmentation() + 0.02,
              1.0 - static_cast<double>(global.stored_bytes()) /
                        static_cast<double>(per_job_pool));
}

}  // namespace
}  // namespace sdfm

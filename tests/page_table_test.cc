/**
 * @file
 * Tests for the struct-of-arrays PageTable: every accessor, the
 * digest fold and the checkpoint bytes against a one-record-per-page
 * reference model under randomized op sequences, word-boundary and
 * popcount edge cases, region-summary staleness semantics (point
 * writes widen, rebuilds tighten), and pinned fleet digests and
 * checkpoint hashes that hold whole trajectories fixed.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/far_memory_system.h"
#include "mem/page_table.h"
#include "util/digest.h"
#include "util/rng.h"
#include "workload/job_profile.h"

namespace sdfm {
namespace {

constexpr PageFlag kAllFlags[] = {
    kPageAccessed,        kPageDirty,   kPageUnevictable,
    kPageIncompressible,  kPageInZswap, kPageInFarTier,
};

/**
 * Reference model: one record per page, the layout page metadata had
 * before PageTable split it by field. PageTable must agree with it on
 * every accessor, on the digest fold and on the checkpoint bytes.
 */
struct PageMeta
{
    std::uint8_t age = 0;
    std::uint8_t flags = 0;
    ContentClass content = ContentClass::kStructured;
    std::uint16_t version = 0;

    bool test(PageFlag f) const { return (flags & f) != 0; }
    void set(PageFlag f) { flags = static_cast<std::uint8_t>(flags | f); }
    void
    clear(PageFlag f)
    {
        flags = static_cast<std::uint8_t>(flags & ~f);
    }
};

std::uint64_t
table_digest(const PageTable &pt)
{
    StateDigest d;
    pt.state_digest(d);
    return d.value();
}

/** The digest fold: age<<32 | flags<<24 | version<<8 | content. */
std::uint64_t
oracle_digest(const std::vector<PageMeta> &pages)
{
    StateDigest d;
    for (const PageMeta &meta : pages) {
        d.mix(static_cast<std::uint64_t>(meta.age) << 32 |
              static_cast<std::uint64_t>(meta.flags) << 24 |
              static_cast<std::uint64_t>(meta.version) << 8 |
              static_cast<std::uint64_t>(meta.content));
    }
    return d.value();
}

/** The wire: page count, then per page age, flags, content, version. */
std::vector<std::uint8_t>
oracle_wire(const std::vector<PageMeta> &pages)
{
    Serializer s;
    s.put_u64(pages.size());
    for (const PageMeta &meta : pages) {
        s.put_u8(meta.age);
        s.put_u8(meta.flags);
        s.put_u8(static_cast<std::uint8_t>(meta.content));
        s.put_u16(meta.version);
    }
    return s.bytes();
}

void
expect_page_matches(const PageTable &pt, const std::vector<PageMeta> &oracle,
                    PageId p)
{
    const PageMeta &meta = oracle[p];
    EXPECT_EQ(pt.age(p), meta.age) << "page " << p;
    EXPECT_EQ(pt.version(p), meta.version) << "page " << p;
    EXPECT_EQ(pt.content(p), meta.content) << "page " << p;
    EXPECT_EQ(pt.flags(p), meta.flags) << "page " << p;
    for (PageFlag f : kAllFlags)
        EXPECT_EQ(pt.test(p, f), meta.test(f)) << "page " << p;
    EXPECT_EQ(pt.in_far_memory(p),
              meta.test(kPageInZswap) || meta.test(kPageInFarTier))
        << "page " << p;
}

void
expect_table_matches(const PageTable &pt, const std::vector<PageMeta> &oracle)
{
    ASSERT_EQ(pt.size(), oracle.size());
    for (PageId p = 0; p < pt.size(); ++p)
        expect_page_matches(pt, oracle, p);
    EXPECT_EQ(table_digest(pt), oracle_digest(oracle));
    Serializer s;
    pt.ckpt_save(s);
    EXPECT_EQ(s.bytes(), oracle_wire(oracle));
}

// ---------------------------------------------------------------------
// Reference-model parity
// ---------------------------------------------------------------------

TEST(PageTable, FreshTableMatchesPageMetaOracle)
{
    PageTable pt(1000);
    EXPECT_EQ(pt.size(), 1000u);
    expect_table_matches(pt, std::vector<PageMeta>(1000));
    EXPECT_EQ(pt.content(999), ContentClass::kStructured);
}

TEST(PageTable, RandomOpSequenceMatchesPageMetaOracle)
{
    constexpr std::uint32_t kPages = 700;  // spans a partial region
    PageTable pt(kPages);
    std::vector<PageMeta> oracle(kPages);
    Rng rng(7);

    for (int step = 0; step < 20000; ++step) {
        PageId p = static_cast<PageId>(rng.next_below(kPages));
        PageFlag f = kAllFlags[rng.next_below(6)];
        switch (rng.next_below(5)) {
          case 0:
            pt.set(p, f);
            oracle[p].set(f);
            break;
          case 1:
            pt.clear(p, f);
            oracle[p].clear(f);
            break;
          case 2: {
            std::uint8_t a = static_cast<std::uint8_t>(rng.next_below(256));
            pt.set_age(p, a);
            oracle[p].age = a;
            break;
          }
          case 3:
            pt.bump_version(p);
            ++oracle[p].version;
            break;
          default: {
            auto c = static_cast<ContentClass>(rng.next_below(
                static_cast<std::uint32_t>(ContentClass::kNumClasses)));
            pt.set_content(p, c);
            oracle[p].content = c;
            break;
          }
        }
        expect_page_matches(pt, oracle, p);
    }
    expect_table_matches(pt, oracle);

    // Point writes only widened the summaries: they still bound every
    // age, and a rebuild makes them exact.
    for (PageId p = 0; p < kPages; ++p) {
        std::uint32_t r = p / kPageRegionPages;
        EXPECT_LE(pt.region_min_age(r), oracle[p].age) << p;
        EXPECT_GE(pt.region_max_age(r), oracle[p].age) << p;
    }
    pt.check_invariants();

    // The oracle's wire bytes restore to the same table.
    std::vector<std::uint8_t> wire = oracle_wire(oracle);
    PageTable back;
    std::uint64_t flagged_zswap = 0;
    std::uint64_t flagged_tier = 0;
    Deserializer d(wire);
    ASSERT_TRUE(back.ckpt_load(d, flagged_zswap, flagged_tier));
    ASSERT_TRUE(d.at_end());
    expect_table_matches(back, oracle);
    std::uint64_t want_zswap = 0;
    std::uint64_t want_tier = 0;
    for (const PageMeta &meta : oracle) {
        want_zswap += meta.test(kPageInZswap) ? 1u : 0u;
        want_tier += meta.test(kPageInFarTier) ? 1u : 0u;
    }
    EXPECT_EQ(flagged_zswap, want_zswap);
    EXPECT_EQ(flagged_tier, want_tier);
    back.check_invariants();
}

// ---------------------------------------------------------------------
// Word-level edge cases
// ---------------------------------------------------------------------

TEST(PageTable, LiveMaskCoversPartialTailWord)
{
    for (std::uint32_t n : {63u, 64u, 65u, 128u, 700u}) {
        PageTable pt(n);
        std::size_t words = (n + 63) / 64;
        EXPECT_EQ(pt.num_words(), words) << n;
        for (std::size_t w = 0; w + 1 < words; ++w)
            EXPECT_EQ(pt.live_mask(w), ~0ULL) << n << " word " << w;
        std::uint32_t rem = n - static_cast<std::uint32_t>(words - 1) * 64;
        std::uint64_t want =
            rem == 64 ? ~0ULL : (1ULL << rem) - 1;
        EXPECT_EQ(pt.live_mask(words - 1), want) << n;
    }
}

TEST(PageTable, TailBitsStayZeroAcrossSetsAtWordBoundaries)
{
    PageTable pt(65);  // one full word + one bit
    pt.set(63, kPageAccessed);
    pt.set(64, kPageAccessed);
    EXPECT_TRUE(pt.test(63, kPageAccessed));
    EXPECT_TRUE(pt.test(64, kPageAccessed));
    EXPECT_FALSE(pt.test(62, kPageAccessed));
    EXPECT_EQ(pt.accessed_words()[0], 1ULL << 63);
    EXPECT_EQ(pt.accessed_words()[1], 1ULL);
    EXPECT_EQ(std::popcount(pt.accessed_words()[0]) +
                  std::popcount(pt.accessed_words()[1]),
              2);
    pt.clear(63, kPageAccessed);
    EXPECT_EQ(pt.accessed_words()[0], 0u);
    pt.check_invariants();
}

TEST(PageTable, FlagsGatherMatchesPopulationCounts)
{
    constexpr std::uint32_t kPages = 320;
    PageTable pt(kPages);
    Rng rng(11);
    std::uint64_t expect_accessed = 0;
    for (PageId p = 0; p < kPages; ++p) {
        if (rng.next_bool(0.37)) {
            pt.set(p, kPageAccessed);
            ++expect_accessed;
        }
    }
    std::uint64_t pop = 0;
    for (std::size_t w = 0; w < pt.num_words(); ++w)
        pop += static_cast<std::uint64_t>(
            std::popcount(pt.accessed_words()[w]));
    EXPECT_EQ(pop, expect_accessed);
    std::uint64_t gathered = 0;
    for (PageId p = 0; p < kPages; ++p)
        if (pt.flags(p) & kPageAccessed)
            ++gathered;
    EXPECT_EQ(gathered, expect_accessed);
}

// ---------------------------------------------------------------------
// Region summaries
// ---------------------------------------------------------------------

TEST(PageTable, PointWritesWidenSummariesAndRebuildTightens)
{
    PageTable pt(2 * kPageRegionPages);
    EXPECT_EQ(pt.num_summary_regions(), 2u);
    // Fresh table: all ages zero, summaries exact.
    EXPECT_EQ(pt.region_min_age(0), 0);
    EXPECT_EQ(pt.region_max_age(0), 0);

    // A point write widens the max bound but cannot shrink the min.
    pt.set_age(10, 200);
    EXPECT_EQ(pt.region_min_age(0), 0);
    EXPECT_EQ(pt.region_max_age(0), 200);
    EXPECT_EQ(pt.region_max_age(1), 0);  // other region untouched

    // Overwriting the only old page leaves a stale (conservative,
    // still sound) upper bound...
    pt.set_age(10, 3);
    EXPECT_EQ(pt.region_max_age(0), 200);
    // ...until a rebuild computes the exact bounds.
    pt.rebuild_region_summaries();
    EXPECT_EQ(pt.region_min_age(0), 0);
    EXPECT_EQ(pt.region_max_age(0), 3);
    pt.check_invariants();
}

// ---------------------------------------------------------------------
// Checkpoint wire format
// ---------------------------------------------------------------------

TEST(PageTable, CkptRoundTripRestoresEveryField)
{
    PageTable pt(130);
    pt.set_age(0, 9);
    pt.set_age(129, 255);
    pt.set(5, kPageInZswap);
    pt.set(64, kPageInFarTier);
    pt.set(65, kPageUnevictable);
    pt.bump_version(7);
    pt.set_content(8, ContentClass::kZero);

    Serializer s;
    pt.ckpt_save(s);

    PageTable back;
    std::uint64_t flagged_zswap = 0;
    std::uint64_t flagged_tier = 0;
    Deserializer d(s.bytes());
    ASSERT_TRUE(back.ckpt_load(d, flagged_zswap, flagged_tier));
    ASSERT_TRUE(d.at_end());
    EXPECT_EQ(flagged_zswap, 1u);
    EXPECT_EQ(flagged_tier, 1u);
    EXPECT_EQ(back.size(), 130u);
    EXPECT_EQ(back.age(0), 9);
    EXPECT_EQ(back.age(129), 255);
    EXPECT_TRUE(back.test(5, kPageInZswap));
    EXPECT_TRUE(back.test(64, kPageInFarTier));
    EXPECT_TRUE(back.test(65, kPageUnevictable));
    EXPECT_EQ(back.version(7), 1u);
    EXPECT_EQ(back.content(8), ContentClass::kZero);
    EXPECT_EQ(table_digest(back), table_digest(pt));
    back.check_invariants();
    // Summaries are rebuilt exactly on restore.
    EXPECT_EQ(back.region_max_age(0), 255);
    EXPECT_EQ(back.region_min_age(0), 0);
}

TEST(PageTable, CkptLoadRejectsUnknownFlagBitsAndBadContent)
{
    PageTable pt(4);
    Serializer good;
    pt.ckpt_save(good);

    {  // flip an unknown (reserved) flag bit in page 0's record
        std::vector<std::uint8_t> bytes = good.bytes();
        // Wire: u64 count, then per page age u8, flags u8, ...
        bytes[8 + 1] = 0x40;
        PageTable back;
        std::uint64_t fz = 0;
        std::uint64_t ft = 0;
        Deserializer d(bytes);
        EXPECT_FALSE(back.ckpt_load(d, fz, ft));
    }
    {  // out-of-range content class
        std::vector<std::uint8_t> bytes = good.bytes();
        bytes[8 + 2] =
            static_cast<std::uint8_t>(ContentClass::kNumClasses);
        PageTable back;
        std::uint64_t fz = 0;
        std::uint64_t ft = 0;
        Deserializer d(bytes);
        EXPECT_FALSE(back.ckpt_load(d, fz, ft));
    }
}

// ---------------------------------------------------------------------
// Pinned fleet trajectories
// ---------------------------------------------------------------------

FleetConfig
small_fleet_config()
{
    FleetConfig config;
    config.num_clusters = 2;
    config.seed = 33;
    config.serial_step = true;
    config.cluster.num_machines = 3;
    config.cluster.machine.dram_pages = 16 * 1024;
    config.cluster.mix = typical_fleet_mix();
    return config;
}

/** Populate plus 20 serial steps; the digests after each end. */
void
expect_pinned_trajectory(const FleetConfig &config,
                         std::uint64_t populated, std::uint64_t stepped)
{
    FarMemorySystem fleet(config);
    fleet.populate();
    EXPECT_EQ(fleet.state_digest(), populated);
    for (int i = 0; i < 20; ++i)
        fleet.step();
    EXPECT_EQ(fleet.state_digest(), stepped);
}

// The digests were captured from the build that still carried the
// array-of-PageMeta layout, on a run where both layouts agreed after
// populate and after every step.
TEST(PageTableFleet, SmallFleetMatchesPinnedDigests)
{
    expect_pinned_trajectory(small_fleet_config(), 0x18fc7d77a63b1127ULL,
                             0x9dd1f6d88f745c1eULL);
}

// A quarter of every job's regions huge-mapped, and a small NVM tier
// in the stack: kstaled takes its huge-region paths, and kreclaimd
// runs with a route that accepts incompressible pages, so marked
// pages stay demotion candidates.
TEST(PageTableFleet, HugePageNvmFleetMatchesPinnedDigests)
{
    FleetConfig config = small_fleet_config();
    for (JobProfile &profile : config.cluster.mix.profiles)
        profile.huge_page_frac = 0.25;
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = 512;
    nvm.band_lo = 1.0;
    nvm.band_hi = 4.0;
    config.cluster.machine.tiers = {nvm};
    expect_pinned_trajectory(config, 0xfbfdf9c0d8859314ULL,
                             0x93d5e6a4aa0e5c93ULL);
}

/** RAII checkpoint path, removed on scope exit. */
struct TempFile
{
    explicit TempFile(std::string name) : path(std::move(name)) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

/** StateDigest over every byte of a file. */
std::uint64_t
file_hash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    StateDigest d;
    for (char c : bytes)
        d.mix(static_cast<unsigned char>(c));
    return d.value();
}

// 600 steps is 300 kstaled scans: step 300 sits mid-way up the 8-bit
// age ramp, step 600 is 45 scans past the point where pages never
// touched since populate saturate at 255. The digests and the
// checkpoint files' bytes at both steps are pinned, and restores from
// step 300 (before saturation) and step 560 (after it) must rejoin the
// uninterrupted trajectory. The digests were captured on the build
// that still kept one 8-bit age per page and aged idle pages by
// incrementing them. The checkpoint hashes were re-pinned for format
// version 5, whose config section no longer carries the single-tier
// machine fields, and for version 6, which lists each job's access
// events as one ascending key array instead of the event heap's
// layout; the digests did not move.
TEST(PageTableFleet, SmallFleetPastSaturationMatchesPinnedCheckpoints)
{
    constexpr std::uint64_t kDigest300 = 0x9b07c6ba63e9e8feULL;
    constexpr std::uint64_t kDigest600 = 0xf70e82bbef772d84ULL;
    constexpr std::uint64_t kCkptHash300 = 0x88e955ce0a3226d3ULL;
    constexpr std::uint64_t kCkptHash600 = 0x5bb25b8937e73d60ULL;
    const FleetConfig config = small_fleet_config();
    TempFile at300("page_table_fleet_300.ckpt");
    TempFile at560("page_table_fleet_560.ckpt");
    TempFile at600("page_table_fleet_600.ckpt");

    FarMemorySystem fleet(config);
    fleet.populate();
    for (int step = 1; step <= 600; ++step) {
        fleet.step();
        if (step == 300) {
            EXPECT_EQ(fleet.state_digest(), kDigest300);
            ASSERT_EQ(fleet.checkpoint(at300.path), CkptStatus::kOk);
            EXPECT_EQ(file_hash(at300.path), kCkptHash300);
        } else if (step == 560) {
            ASSERT_EQ(fleet.checkpoint(at560.path), CkptStatus::kOk);
        }
    }
    EXPECT_EQ(fleet.state_digest(), kDigest600);
    ASSERT_EQ(fleet.checkpoint(at600.path), CkptStatus::kOk);
    EXPECT_EQ(file_hash(at600.path), kCkptHash600);

    for (const auto &[path, from] :
         {std::pair{at300.path, 300}, std::pair{at560.path, 560}}) {
        FarMemorySystem resumed(config);
        ASSERT_EQ(resumed.restore(path), CkptStatus::kOk) << path;
        for (int step = from; step < 600; ++step)
            resumed.step();
        EXPECT_EQ(resumed.state_digest(), kDigest600)
            << "restored at step " << from;
    }
}

}  // namespace
}  // namespace sdfm

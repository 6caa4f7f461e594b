/**
 * @file
 * The zswap store: compresses cold pages into a machine-global
 * zsmalloc arena and decompresses them on access (Section 5.1).
 *
 * Differences from upstream Linux zswap that the paper describes are
 * implemented here: proactive store driven by kreclaimd rather than
 * direct reclaim; payloads larger than kMaxZswapPayload are rejected
 * and the page marked incompressible; one global arena per machine
 * with an explicit compaction hook for the node agent.
 */

#ifndef SDFM_MEM_ZSWAP_H
#define SDFM_MEM_ZSWAP_H

#include <cstdint>

#include "compression/compressor.h"
#include "mem/far_tier.h"
#include "mem/memcg.h"
#include "telemetry/metric.h"
#include "util/rng.h"
#include "zsmalloc/zsmalloc.h"

namespace sdfm {

/** Machine-level zswap counters. */
struct ZswapStats
{
    std::uint64_t stores = 0;
    std::uint64_t rejects = 0;
    std::uint64_t promotions = 0;
    std::uint64_t verified_roundtrips = 0;  ///< verify mode only
    std::uint64_t poisoned_entries = 0;     ///< checksum-detected corruption
    std::uint64_t corruptions_injected = 0; ///< fault-plane injections
    double compress_cycles = 0.0;
    double decompress_cycles = 0.0;

    /**
     * Compressed payload sizes of every store attempt, accepted or
     * rejected (zswap.payload_bytes). The rejection threshold
     * (kMaxZswapPayload) sits inside the grid so the accept/reject
     * boundary is visible in the distribution. Telemetry only:
     * checkpointed, not digested.
     */
    HistogramData payload_bytes{{256, 512, 1024, 1536, 2048, 2560,
                                 static_cast<double>(kMaxZswapPayload),
                                 static_cast<double>(kPageSize)}};
};

/**
 * Latency charged when a promotion finds a poisoned (corrupted)
 * entry and the page must be re-faulted from backing store instead
 * of decompressed -- an SSD-swap-class stall, an order of magnitude
 * above a decompression.
 */
inline constexpr double kZswapRefaultLatencyUs = 80.0;

/**
 * Per-machine zswap instance. A FarTier like the deep tiers, but with
 * elastic capacity (the arena grows in DRAM) and content-dependent
 * rejection: a store can fail because the page does not compress, in
 * which case the page is marked kPageIncompressible.
 */
class Zswap : public FarTier
{
  public:
    /**
     * @param compressor Backend (real or modeled); not owned.
     * @param rng_seed Seed for decompression-latency jitter sampling.
     * @param verify_roundtrip When true and the backend produces
     *        payload bytes, compressed payloads are kept in the arena
     *        and every promotion decompresses them for real and
     *        verifies the bytes against the regenerated page contents
     *        -- an end-to-end codec integrity check for tests and
     *        qualification runs. The modeled backend has no bytes.
     */
    Zswap(Compressor *compressor, std::uint64_t rng_seed = 1,
          bool verify_roundtrip = false);

    // -- FarTier interface -------------------------------------------

    TierKind kind() const override { return TierKind::kZswap; }

    /** Rejections mark the page; routing must not retry it here. */
    bool rejects_incompressible() const override { return true; }

    /** The arena grows in DRAM, so a slot always exists. */
    bool has_space() const override { return true; }

    /**
     * Compress page @p p of @p cg into the arena. The page must be
     * resident, evictable, and not already in zswap. Returns false on
     * rejection (payload larger than kMaxZswapPayload), in which case
     * the page is marked kPageIncompressible. CPU cycles are charged
     * to the job either way (the paper's "opportunity cost of wasted
     * cycles" on incompressible data).
     */
    bool store(Memcg &cg, PageId p) override;

    /**
     * Promote (decompress) page @p p back to DRAM. The page must be
     * in zswap. Charges decompression cycles and samples a latency
     * for the distribution figures. Pages stay decompressed until
     * they become cold again.
     *
     * Every entry carries a checksum taken at store time; a mismatch
     * on promotion (a corrupted payload) is not fatal: the entry is
     * counted as poisoned, the page re-faults from backing store at
     * kZswapRefaultLatencyUs, and the caller proceeds as if promoted.
     */
    void load(Memcg &cg, PageId p) override;

    /**
     * Fault plane: corrupt one randomly chosen stored entry (its
     * checksum is flipped, which is how payload damage manifests to
     * the promotion path). Returns false when nothing is stored.
     */
    bool corrupt_entry(Rng &rng);

    /**
     * Drop a stored page without decompressing (job teardown or data
     * invalidation). No CPU charge.
     */
    void drop(Memcg &cg, PageId p) override;

    /** Release every stored page of a job (teardown). */
    void drop_all(Memcg &cg) override;

    /** Pages stored (the elastic arena has no fixed capacity). */
    std::uint64_t used_pages() const override { return stored_pages(); }
    std::uint64_t capacity_pages() const override { return 0; }

    /** Node-agent-triggered arena compaction; returns bytes freed. */
    std::uint64_t compact() { return arena_.compact(); }

    /** Physical bytes consumed by compressed payloads (arena pool). */
    std::uint64_t pool_bytes() const { return arena_.pool_bytes(); }

    /** Total pages currently stored. */
    std::uint64_t stored_pages() const { return arena_.live_objects(); }

    const ZsmallocArena &arena() const { return arena_; }
    const ZswapStats &stats() const { return stats_; }
    Compressor &compressor() { return *compressor_; }

    /**
     * Whole-store consistency check (SDFM_INVARIANT tier): the arena's
     * own accounting reconciles (ZsmallocArena::check_invariants) and
     * promotions never outrun stores. A no-op unless the build defines
     * SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

    /**
     * Checkpointable: snapshots the arena (entry table + size-class
     * occupancy), the cumulative counters, the payload-size
     * histogram, the latency-jitter RNG, and each live handle's
     * integrity checksum as (handle, checksum) pairs in ascending
     * handle order. The compressor backend is reconstructed wiring,
     * not state. ckpt_load() rejects checksum lists that do not cover
     * exactly the live arena handles.
     */
    void ckpt_save(Serializer &s) const override;
    bool ckpt_load(Deserializer &d) override;

#ifdef SDFM_CHECK_INVARIANTS
    /** Test-only: non-const arena access for accounting corruption. */
    ZsmallocArena &debug_arena() { return arena_; }
#endif

  private:
    /** Checksum over what an entry should decompress to. */
    static std::uint64_t entry_checksum(std::uint64_t content_seed,
                                        std::uint32_t payload_size);

    // sdfm-state: rebuilt-on-resolve(borrowed stateless functor,
    // wired by the owning Machine at construction and after restore)
    Compressor *compressor_;
    /** Requested, and the backend produces payload bytes. */
    bool verify_roundtrip_;
    /** Keeps bytes iff verify_roundtrip_; tags are the checksums. */
    ZsmallocArena arena_;
    ZswapStats stats_;
    Rng rng_;
};

}  // namespace sdfm

#endif  // SDFM_MEM_ZSWAP_H

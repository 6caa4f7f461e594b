/**
 * @file
 * Model of the Linux zsmalloc arena that zswap stores compressed
 * payloads in (Section 5.1 of the paper).
 *
 * Like the kernel allocator, payloads are binned into size classes;
 * each class allocates "zspages" (groups of 1-4 physical pages) that
 * hold floor(pages * 4096 / class_size) objects. Freeing leaves holes
 * inside zspages (external fragmentation); an explicit compaction
 * interface -- the one the paper's node agent triggers -- migrates
 * objects out of sparse zspages and releases emptied ones.
 *
 * The paper keeps ONE arena per machine rather than one per memcg:
 * per-memcg arenas fragmented to the point of negative gains when
 * hundreds of jobs share a machine. Tests and a micro-bench reproduce
 * that comparison by instantiating many small arenas vs one global.
 */

#ifndef SDFM_ZSMALLOC_ZSMALLOC_H
#define SDFM_ZSMALLOC_ZSMALLOC_H

#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "util/logging.h"

namespace sdfm {

/** Opaque handle to a stored payload; 0 is invalid. A handle is the
 *  index of its entry, and the entry table stays below 2^32 - 1. */
using ZsHandle = std::uint32_t;

/** Aggregate arena statistics. */
struct ZsmallocStats
{
    std::uint64_t live_objects = 0;    ///< currently stored payloads
    std::uint64_t stored_bytes = 0;    ///< sum of payload sizes
    std::uint64_t pool_bytes = 0;      ///< physical pages backing the arena
    std::uint64_t total_allocs = 0;
    std::uint64_t total_frees = 0;
    std::uint64_t compactions = 0;
    std::uint64_t compaction_moved_bytes = 0;
};

/** Size-class compressed-payload arena. */
class ZsmallocArena : public Checkpointable
{
  public:
    /**
     * @param keep_payload_bytes When true, store() copies the payload
     *        bytes into a side table and payload() returns them
     *        (zswap's verify mode); when false only sizes are tracked.
     */
    explicit ZsmallocArena(bool keep_payload_bytes = false);

    /**
     * Store a payload of @p size bytes (1..4096).
     *
     * @param data Optional payload bytes (copied). In a
     *        keep_payload_bytes arena, passing null stores the size
     *        only and payload() returns null for that handle.
     * @return A non-zero handle.
     */
    ZsHandle store(std::uint32_t size, const std::uint8_t *data = nullptr);

    /** Release a stored payload. The handle must be live. */
    void release(ZsHandle handle);

    /** Payload size for a live handle. */
    std::uint32_t payload_size(ZsHandle handle) const;

    /**
     * Stored bytes for a live handle; null when the arena does not
     * keep payload bytes or none were provided at store time.
     */
    const std::uint8_t *payload(ZsHandle handle) const;

    /** The owner's word for a live handle (zswap's checksum); 0 after
     *  store(), and written by the owner's checkpoint, not the arena's. */
    std::uint64_t
    tag(ZsHandle handle) const
    {
        SDFM_ASSERT(is_live(handle));
        return entries_[handle].tag;
    }

    void
    set_tag(ZsHandle handle, std::uint64_t tag)
    {
        SDFM_ASSERT(is_live(handle));
        entries_[handle].tag = tag;
    }

    /** Every live handle is in [1, handle_limit()). */
    ZsHandle
    handle_limit() const
    {
        return static_cast<ZsHandle>(entries_.size());
    }

    /**
     * Compact: migrate objects out of sparse zspages within each size
     * class, releasing emptied zspages. A class that already meets its
     * minimum zspage count is skipped in O(1); one walk of the entry
     * table moves the objects of all the others, each class's in slot
     * order.
     *
     * @return Pool bytes released.
     */
    std::uint64_t compact();

    /** Bytes of physical memory backing the arena right now. */
    std::uint64_t pool_bytes() const { return stats_.pool_bytes; }

    /** Sum of live payload sizes. */
    std::uint64_t stored_bytes() const { return stats_.stored_bytes; }

    /**
     * External fragmentation: 1 - stored/pool (0 when empty). This is
     * the quantity that made per-memcg arenas lose money at scale.
     */
    double fragmentation() const;

    const ZsmallocStats &stats() const { return stats_; }

    /** Number of live objects. */
    std::uint64_t live_objects() const { return stats_.live_objects; }

    /** True iff @p handle currently references a live payload. */
    bool
    is_live(ZsHandle handle) const
    {
        return handle > 0 && handle < entries_.size() &&
               entries_[handle].live;
    }

    /**
     * Whole-arena consistency check (SDFM_INVARIANT tier): recompute
     * live-object count, stored bytes, per-class occupancy and pool
     * bytes from the entry table and compare against the running
     * stats. O(entries); compiled to a no-op unless the build defines
     * SDFM_CHECK_INVARIANTS.
     */
    void check_invariants() const;

    /**
     * Checkpointable: snapshots the entry table, the free-entry list
     * (verbatim order -- handle reuse order is trajectory state), and
     * each size class's dynamic occupancy. Handles stay stable across
     * a round trip because a handle IS the entry index. The static
     * class geometry is rebuilt by the constructor; ckpt_load()
     * rejects payloads whose accounting does not reconcile, or whose
     * free-slot lists do not hold every empty zspage exactly once.
     */
    void ckpt_save(Serializer &s) const override;
    bool ckpt_load(Deserializer &d) override;

#ifdef SDFM_CHECK_INVARIANTS
    /** Test-only: damage the byte accounting so the invariant tests
     *  can prove check_invariants() actually trips. */
    void debug_corrupt_stored_bytes(std::uint64_t delta)
    {
        stats_.stored_bytes += delta;
    }
#endif

  private:
    struct SizeClass
    {
        std::uint32_t object_size = 0;
        std::uint32_t pages_per_zspage = 0;
        std::uint32_t objects_per_zspage = 0;
        /** occupancy per zspage; index = zspage id within the class. */
        std::vector<std::uint32_t> zspage_occupancy;
        /** ids of zspages with free slots (may contain stale entries). */
        std::vector<std::uint32_t> candidates;
        /** ids of fully-freed zspage slots available for reuse. */
        std::vector<std::uint32_t> free_zspage_slots;
        std::uint64_t live = 0;
    };

    /** One handle's slot. Dead slots keep their last size, class and
     *  zspage: the checkpoint writes them. */
    struct Entry
    {
        std::uint64_t tag = 0;
        std::uint32_t zspage = 0;
        std::uint16_t size = 0;
        std::uint8_t class_idx = 0;
        bool live = false;
    };
    static_assert(sizeof(Entry) <= 16);

    static std::uint16_t class_for_size(std::uint32_t size);
    SizeClass &size_class(std::uint16_t idx) { return classes_[idx]; }
    std::uint32_t acquire_zspage_slot(SizeClass &cls);

    bool keep_payload_bytes_;
    std::vector<SizeClass> classes_;
    std::vector<Entry> entries_;
    /** Payload bytes by handle; empty unless keep_payload_bytes_. */
    std::vector<std::vector<std::uint8_t>> payloads_;
    std::vector<ZsHandle> free_entries_;
    ZsmallocStats stats_;
};

}  // namespace sdfm

#endif  // SDFM_ZSMALLOC_ZSMALLOC_H

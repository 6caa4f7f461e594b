/**
 * @file
 * Queue of (time, page) access events, the innermost data structure of
 * the whole simulator: every simulated page access hands over one event
 * and takes its page's next event back, so fleet steps spend most of
 * their cycles here.
 *
 * Events pack into one 64-bit key (time in the high 32 bits, page in
 * the low 32), and the queue hands them over in exactly the packed key
 * order: by time, then by page. Times are whole seconds, each page has
 * at most one queued event, and a handed-over page's next event lands
 * at least 1 s later. That fits a two-level timing wheel (Varghese &
 * Lauck, SOSP 1987), which does O(1) work per event:
 *
 *  - Level 0 holds the 256 one-second slots of the current 256-s
 *    block; level 1 holds the next 256 blocks (about 18.2 h), one slot
 *    per block. A 4-ary min-heap of packed keys keeps only the events
 *    beyond that, and hands them to level 1 as the blocks advance.
 *  - A slot is an intrusive list through a per-page u32 link. Each
 *    page also keeps its u8 second within its block, so that a level-1
 *    page drops into its level-0 slot when its block comes due.
 *  - A due second with more than one event is handed over in page
 *    order: its pages set their bits in a per-queue page bitmap, with
 *    one summary bit per 64 pages, and a scan of the bitmap hands them
 *    over and clears it. Nothing is sorted. A 512-bit occupancy mask
 *    over both levels lets a sparse queue skip empty seconds and
 *    blocks.
 *
 * That is 5 bytes per page plus the bitmap, about 5.1 B per page.
 *
 * raw() lists the queued events as one strictly ascending key array,
 * without a comparison sort. restore_raw() keeps such an array as it
 * is until the first drain or emplace builds the wheel from it, so a
 * restored queue that never steps holds 8 B per event, not per page.
 */

#ifndef SDFM_WORKLOAD_EVENT_QUEUE_H
#define SDFM_WORKLOAD_EVENT_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/page.h"
#include "util/logging.h"
#include "util/sim_time.h"

namespace sdfm {

/** Two-level timing wheel of packed (time, page) access events. */
class EventQueue
{
  public:
    /** Pack (time, page) into the queue's key order.
     *  @p t must fit in 32 bits (~136 simulated years). */
    static std::uint64_t
    make_key(SimTime t, PageId page)
    {
        SDFM_ASSERT(t >= 0 && t <= 0xffffffffLL);
        return (static_cast<std::uint64_t>(t) << 32) | page;
    }

    /** A queue over no pages: the target of restore_raw(). */
    EventQueue() = default;

    /** An empty queue over pages [0, @p num_pages) whose events all
     *  lie at or after @p start. */
    EventQueue(SimTime start, std::uint32_t num_pages)
        : num_pages_(num_pages)
    {
        SDFM_ASSERT(num_pages < kNil);
        build_wheel(block_of(make_key(start, 0)));
    }

    /**
     * Queue an access to @p page, which has no queued event, at time
     * @p t, which must not precede the queue's start or the end of its
     * last drain. A restored queue does not know when its last drain
     * ended, so one that has not drained since starts its wheel at
     * time 0, and its next drain moves it to its first event.
     */
    void
    emplace(SimTime t, PageId page)
    {
        const std::uint64_t key = make_key(t, page);
        SDFM_ASSERT(page < num_pages_);
        if (!wheel_built())
            build_wheel(0);
        SDFM_ASSERT(block_of(key) >= block_);
        place(key);
        ++size_;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /**
     * Every queued event's key, strictly ascending: the checkpoint
     * wire. O(events + slots) plus a bitmap scan, with no comparison
     * sort: the wheel's pages come out of a page bitmap in page order,
     * two stable counting passes order them by second and then by
     * block, and the far heap's events are radix-sorted.
     */
    std::vector<std::uint64_t>
    raw() const
    {
        if (!wheel_built())
            return array_;
        // Mark every wheel page, noting the block it waits in: 0 for
        // level 0, up to 256 blocks ahead for level 1.
        auto ahead =
            std::make_unique_for_overwrite<std::uint16_t[]>(num_pages_);
        std::vector<std::uint64_t> bits(bits_.size(), 0);
        std::vector<std::uint64_t> summary(summary_.size(), 0);
        walk_slots([&](PageId p, std::uint32_t slot) {
            mark(bits.data(), summary.data(), p);
            ahead[p] = static_cast<std::uint16_t>(
                slot < kSlots ? 0 : ((slot - block_ - 1) & kSlotMask) + 1);
        });
        // Relative keys (blocks ahead, second, page) in page order, then
        // one stable pass by second and one by block, which also adds
        // the current block back.
        std::vector<std::uint64_t> rel;
        rel.reserve(size_ - far_.size());
        visit_marked(bits.data(), summary, [&](PageId p) {
            rel.push_back((std::uint64_t{ahead[p]} << 40) |
                          (std::uint64_t{second_[p]} << 32) | p);
        });
        std::vector<std::uint64_t> by_second(rel.size());
        stable_by(rel, by_second.data(), 0,
                  [](std::uint64_t r) { return (r >> 32) & kSlotMask; });
        std::vector<std::uint64_t> out(size_);
        stable_by(by_second, out.data(), std::uint64_t{block_} << 40,
                  [](std::uint64_t r) { return r >> 40; });
        const std::size_t at = rel.size();
        std::copy(far_.begin(), far_.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(at));
        radix_sort(out.data() + at, far_.size());
        return out;
    }

    /**
     * Replace the queue with a raw() array, unless it is not one over
     * pages [0, @p num_pages): a page out of range, a page queued
     * twice, or a key not above the one before it. A rejected array
     * leaves the queue untouched. O(n); the wheel is built from the
     * array at the first drain or emplace.
     */
    bool
    restore_raw(std::vector<std::uint64_t> keys, std::uint32_t num_pages)
    {
        std::vector<std::uint64_t> queued((std::size_t{num_pages} + 63) / 64);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const std::uint64_t page = keys[i] & 0xffffffffu;
            if (page >= num_pages || (i > 0 && keys[i - 1] >= keys[i]))
                return false;
            std::uint64_t &word = queued[page >> 6];
            const std::uint64_t bit = std::uint64_t{1} << (page & 63);
            if (word & bit)
                return false;
            word |= bit;
        }
        *this = EventQueue();
        num_pages_ = num_pages;
        size_ = keys.size();
        array_ = std::move(keys);
        return true;
    }

    /**
     * Hand over every event earlier than @p end, in key order, calling
     * handler(t, page) for each. The handler returns the event's
     * replacement key (from make_key) to reschedule its page, or 0 to
     * retire it. A replacement lies at least 1 s after @p t, so 0 is
     * never a live key here, and a replacement never lands in the
     * second being handed over.
     *
     * @return Number of events handled.
     */
    template <typename Handler>
    std::uint64_t
    drain_until(SimTime end, Handler &&handler)
    {
        const std::uint64_t end_key = make_key(end, 0);
        if (!wheel_built())
            build_wheel(block_of(end_key));
        std::uint64_t handled = 0;
        for (;;) {
            const std::uint32_t s = next_set(mask_, 0, kSlots);
            if (s == kSlots) {
                if (!advance_block(end_key))
                    break;
                continue;
            }
            const std::uint64_t time = (std::uint64_t{block_} << 8) | s;
            if ((time << 32) >= end_key)
                break;
            handled += hand_over(static_cast<SimTime>(time), s, handler);
        }
        return handled;
    }

  private:
    /** Slots per level: [0, kSlots) are level 0's seconds,
     *  [kSlots, 2 * kSlots) level 1's blocks. */
    static constexpr std::uint32_t kSlots = 256;
    static constexpr std::uint32_t kSlotMask = kSlots - 1;
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::size_t kArity = 4;

    using Mask = std::array<std::uint64_t, 2 * kSlots / 64>;
    using Heads = std::array<std::uint32_t, 2 * kSlots>;

    static constexpr Heads
    nil_heads()
    {
        Heads heads{};
        heads.fill(kNil);
        return heads;
    }

    /** A key's 256-s block. */
    static std::uint32_t
    block_of(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key >> 40);
    }

    static std::uint32_t
    level1_slot(std::uint32_t block)
    {
        return kSlots + (block & kSlotMask);
    }

    static std::uint32_t
    ctz(std::uint64_t bits)
    {
        return static_cast<std::uint32_t>(std::countr_zero(bits));
    }

    static bool
    test(const Mask &mask, std::uint32_t slot)
    {
        return (mask[slot >> 6] >> (slot & 63)) & 1;
    }

    static void
    set(Mask &mask, std::uint32_t slot)
    {
        mask[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }

    static void
    clear(Mask &mask, std::uint32_t slot)
    {
        mask[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }

    /** Lowest set slot in [@p from, @p end), or @p end. */
    static std::uint32_t
    next_set(const Mask &mask, std::uint32_t from, std::uint32_t end)
    {
        for (std::uint32_t w = from >> 6; (w << 6) < end; ++w) {
            std::uint64_t bits = mask[w];
            if (w == from >> 6)
                bits &= ~std::uint64_t{0} << (from & 63);
            if (bits != 0)
                return std::min(end, (w << 6) | ctz(bits));
        }
        return end;
    }

    bool
    any_set(std::uint32_t from, std::uint32_t end) const
    {
        return next_set(mask_, from, end) != end;
    }

    static void
    mark(std::uint64_t *bits, std::uint64_t *summary, PageId page)
    {
        bits[page >> 6] |= std::uint64_t{1} << (page & 63);
        summary[page >> 12] |= std::uint64_t{1} << ((page >> 6) & 63);
    }

    /** Call fn(page) for every marked page in ascending order, clearing
     *  the marks; fn must not mark pages. */
    template <typename Fn>
    static void
    visit_marked(std::uint64_t *bits, std::vector<std::uint64_t> &summary,
                 Fn &&fn)
    {
        for (std::size_t w = 0; w < summary.size(); ++w) {
            std::uint64_t sum = std::exchange(summary[w], 0);
            while (sum != 0) {
                const std::size_t i = (w << 6) | ctz(sum);
                sum &= sum - 1;
                std::uint64_t word = std::exchange(bits[i], 0);
                do {
                    fn(static_cast<PageId>((i << 6) | ctz(word)));
                    word &= word - 1;
                } while (word != 0);
            }
        }
    }

    /**
     * fn(page, slot) for every page in the wheel. Several lists are
     * walked at once: each step is a load that depends on the one
     * before in its own list only, so the lists' cache misses overlap.
     */
    template <typename Fn>
    void
    walk_slots(Fn &&fn) const
    {
        constexpr std::size_t kLanes = 8;
        std::array<std::uint32_t, 2 * kSlots> slots;
        std::size_t num_slots = 0;
        for (std::uint32_t w = 0; w < mask_.size(); ++w) {
            for (std::uint64_t bits = mask_[w]; bits != 0; bits &= bits - 1)
                slots[num_slots++] = (w << 6) | ctz(bits);
        }
        std::array<std::uint32_t, kLanes> page, slot;
        std::size_t lanes = 0;
        std::size_t next = 0;
        auto start_lane = [&](std::size_t l) {
            slot[l] = slots[next++];
            page[l] = head_[slot[l]];
        };
        for (; lanes < kLanes && next < num_slots; ++lanes)
            start_lane(lanes);
        while (lanes > 0) {
            for (std::size_t l = 0; l < lanes;) {
                fn(page[l], slot[l]);
                page[l] = link_[page[l]];
                if (page[l] != kNil) {
                    ++l;
                } else if (next < num_slots) {
                    start_lane(l++);
                } else {
                    // The lane's list is done: the last lane takes its
                    // place and steps next.
                    --lanes;
                    page[l] = page[lanes];
                    slot[l] = slot[lanes];
                }
            }
        }
    }

    /** Copy @p src, each plus @p add, into @p dst ordered by key(r),
     *  a value in [0, kSlots], keeping the order of equal keys. */
    template <typename Key>
    static void
    stable_by(const std::vector<std::uint64_t> &src, std::uint64_t *dst,
              std::uint64_t add, Key &&key)
    {
        std::array<std::uint32_t, kSlots + 2> start{};
        for (std::uint64_t r : src)
            ++start[key(r) + 1];
        for (std::size_t k = 1; k < start.size(); ++k)
            start[k] += start[k - 1];
        for (std::uint64_t r : src)
            dst[start[key(r)]++] = r + add;
    }

    /** Sort @p n keys ascending: LSD radix over bytes, skipping any
     *  byte that every key shares. */
    static void
    radix_sort(std::uint64_t *keys, std::size_t n)
    {
        if (n < 2)
            return;
        std::array<std::array<std::uint32_t, 256>, 8> count{};
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t d = 0; d < 8; ++d)
                ++count[d][(keys[i] >> (8 * d)) & 0xff];
        }
        std::vector<std::uint64_t> tmp(n);
        std::uint64_t *src = keys;
        std::uint64_t *dst = tmp.data();
        for (std::size_t d = 0; d < 8; ++d) {
            std::array<std::uint32_t, 256> &at = count[d];
            if (at[(src[0] >> (8 * d)) & 0xff] == n)
                continue;
            std::uint32_t sum = 0;
            for (std::uint32_t &a : at)
                sum += std::exchange(a, sum);
            for (std::size_t i = 0; i < n; ++i)
                dst[at[(src[i] >> (8 * d)) & 0xff]++] = src[i];
            std::swap(src, dst);
        }
        if (src != keys)
            std::copy(src, src + n, keys);
    }

    /** A restored queue keeps its array until the first drain or
     *  emplace allocates the per-page state. */
    bool wheel_built() const { return link_.size() == num_pages_; }

    /**
     * Allocate the per-page state and place the restored array's
     * events (none for a new queue), with the current block at or
     * before @p block. The array's tail beyond level 1 is ascending,
     * so it is already a valid far heap.
     */
    void
    build_wheel(std::uint32_t block)
    {
        std::vector<std::uint64_t> keys = std::move(array_);
        array_ = {};
        block_ = keys.empty() ? block : std::min(block, block_of(keys[0]));
        link_.assign(num_pages_, kNil);
        second_.assign(num_pages_, 0);
        bits_.assign((std::size_t{num_pages_} + 63) / 64, 0);
        summary_.assign((std::size_t{num_pages_} + 4095) / 4096, 0);
        std::size_t i = 0;
        for (; i < keys.size() && block_of(keys[i]) - block_ <= kSlots; ++i)
            place(keys[i]);
        far_.assign(keys.begin() + static_cast<std::ptrdiff_t>(i),
                    keys.end());
    }

    void
    push(std::uint32_t slot, PageId page)
    {
        link_[page] = head_[slot];
        head_[slot] = page;
        set(mask_, slot);
    }

    /** File @p key, whose block is not before the current one. */
    void
    place(std::uint64_t key)
    {
        const PageId page = static_cast<PageId>(key & 0xffffffffu);
        const std::uint32_t time = static_cast<std::uint32_t>(key >> 32);
        const std::uint32_t ahead = (time >> 8) - block_;
        if (ahead > kSlots) {
            far_push(key);
            return;
        }
        second_[page] = static_cast<std::uint8_t>(time & kSlotMask);
        push(ahead == 0 ? time & kSlotMask : level1_slot(time >> 8), page);
    }

    /**
     * Make the next block that holds events the current one, unless it
     * starts at or after @p end_key's second: its level-1 pages drop
     * into their level-0 slots, and far events that the new level-1
     * span reaches leave the heap.
     */
    bool
    advance_block(std::uint64_t end_key)
    {
        std::uint32_t next;
        if (any_set(kSlots, 2 * kSlots)) {
            // Level 1 holds blocks block_ + 1 ... block_ + 256, which
            // wrap around its slot ring.
            const std::uint32_t from = level1_slot(block_ + 1);
            std::uint32_t slot = next_set(mask_, from, 2 * kSlots);
            if (slot == 2 * kSlots)
                slot = next_set(mask_, kSlots, from);
            next = block_ + 1 + ((slot - from) & kSlotMask);
        } else if (!far_.empty()) {
            next = block_of(far_.front());
        } else {
            return false;
        }
        if ((std::uint64_t{next} << 40) >= end_key)
            return false;
        block_ = next;
        const std::uint32_t slot = level1_slot(next);
        if (test(mask_, slot)) {
            std::uint32_t p = std::exchange(head_[slot], kNil);
            clear(mask_, slot);
            while (p != kNil) {
                const std::uint32_t rest = link_[p];
                push(second_[p], p);
                p = rest;
            }
        }
        while (!far_.empty() && block_of(far_.front()) - block_ <= kSlots) {
            const std::uint64_t key = far_.front();
            far_pop();
            place(key);
        }
        return true;
    }

    /** Hand over level-0 second @p s, at @p time, in page order. */
    template <typename Handler>
    std::uint64_t
    hand_over(SimTime time, std::uint32_t s, Handler &handler)
    {
        std::uint32_t page = std::exchange(head_[s], kNil);
        clear(mask_, s);
        if (link_[page] == kNil) {
            deliver(time, page, handler);
            return 1;
        }
        // Mark the whole second before any handler runs: replacements
        // reuse the links of pages already handed over.
        std::uint64_t n = 0;
        for (; page != kNil; page = link_[page], ++n)
            mark(bits_.data(), summary_.data(), page);
        visit_marked(bits_.data(), summary_,
                     [&](PageId p) { deliver(time, p, handler); });
        return n;
    }

    template <typename Handler>
    void
    deliver(SimTime time, PageId page, Handler &handler)
    {
        const std::uint64_t next = handler(time, page);
        if (next != 0)
            place(next);
        else
            --size_;
    }

    void
    far_push(std::uint64_t key)
    {
        far_.push_back(key);
        std::size_t i = far_.size() - 1;
        while (i > 0) {
            const std::size_t parent = (i - 1) / kArity;
            if (far_[parent] <= key)
                break;
            far_[i] = far_[parent];
            i = parent;
        }
        far_[i] = key;
    }

    /** Remove the far heap's earliest event: place the last element
     *  from the root down, walking the min child at each level. */
    void
    far_pop()
    {
        const std::uint64_t key = far_.back();
        far_.pop_back();
        const std::size_t n = far_.size();
        if (n == 0)
            return;
        std::uint64_t *h = far_.data();
        std::size_t i = 0;
        for (;;) {
            const std::size_t first = i * kArity + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            for (std::size_t c = first + 1; c < std::min(first + kArity, n);
                 ++c) {
                if (h[c] < h[best])
                    best = c;
            }
            if (h[best] >= key)
                break;
            h[i] = h[best];
            i = best;
        }
        h[i] = key;
    }

    std::uint32_t num_pages_ = 0;
    std::size_t size_ = 0;
    /** Block of level 0; every queued event lies in it or later. */
    std::uint32_t block_ = 0;
    Mask mask_{};               ///< occupied slots of both levels
    Heads head_ = nil_heads();  ///< first page of each slot's list
    std::vector<std::uint32_t> link_;   ///< next page in the same slot
    std::vector<std::uint8_t> second_;  ///< a wheel page's second in block
    std::vector<std::uint64_t> bits_;   ///< page marks of one second
    std::vector<std::uint64_t> summary_;  ///< one bit per bits_ word
    std::vector<std::uint64_t> far_;    ///< 4-ary heap beyond level 1
    /** A restored raw() array, until the wheel is built from it. */
    std::vector<std::uint64_t> array_;
};

}  // namespace sdfm

#endif  // SDFM_WORKLOAD_EVENT_QUEUE_H

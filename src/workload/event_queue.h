/**
 * @file
 * Min-queue of (time, page) access events, the innermost data
 * structure of the whole simulator: every simulated page access hands
 * over one event and takes its page's next event back in a single
 * sift-down, so fleet steps spend most of their cycles here.
 *
 * Three choices keep that sift cheap:
 *
 *  - Events pack into one 64-bit word (time in the high 32 bits,
 *    page in the low 32), so an element is 8 bytes and ordering is a
 *    single integer compare. The packed order is the lexicographic
 *    (time, page) order.
 *  - The heap is 4-ary rather than binary: half the levels, and the
 *    four children of a node share a cache line, which matters when
 *    the heap spans hundreds of thousands of far-future events.
 *  - The sift picks the smallest of four children with two pairwise
 *    compares and a final select, not a compare-and-branch loop: which
 *    child wins is a coin flip, so a branch on it mispredicts about
 *    half the time at every level.
 *
 * Each page has at most one queued event, so keys are unique: the pop
 * order is a total order, and any child-selection rule that finds the
 * minimum yields the same heap layout, so raw() and checkpoint bytes
 * do not depend on how the minimum is found.
 */

#ifndef SDFM_WORKLOAD_EVENT_QUEUE_H
#define SDFM_WORKLOAD_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "mem/page.h"
#include "util/logging.h"
#include "util/sim_time.h"

namespace sdfm {

/** 4-ary min-heap of packed (time, page) access events. */
class EventQueue
{
  public:
    /** Pack (time, page) into the heap's key order.
     *  @p t must fit in 32 bits (~136 simulated years). */
    static std::uint64_t
    make_key(SimTime t, PageId page)
    {
        SDFM_ASSERT(t >= 0 && t <= 0xffffffffLL);
        return (static_cast<std::uint64_t>(t) << 32) | page;
    }

    /** Queue an access to @p page at time @p t. */
    void
    emplace(SimTime t, PageId page)
    {
        heap_.push_back(make_key(t, page));
        sift_up(heap_.size() - 1);
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    void reserve(std::size_t n) { heap_.reserve(n); }

    /** Timestamp of the earliest event. */
    SimTime top_time() const
    {
        return static_cast<SimTime>(heap_.front() >> 32);
    }

    /** Page of the earliest event. */
    PageId top_page() const
    {
        return static_cast<PageId>(heap_.front() & 0xffffffffu);
    }

    /**
     * The packed heap array, verbatim. Checkpointing serializes this
     * raw representation (rather than draining the queue) so a
     * restored queue is bit-identical: pop order is a total order
     * over unique keys either way, but the heap layout also feeds
     * nothing downstream, so copying it wholesale is both exact and
     * O(n).
     */
    const std::vector<std::uint64_t> &raw() const { return heap_; }

    /**
     * Replace the heap with a serialized raw() array, unless it is not
     * a queue over pages [0, @p num_pages): a page out of range, a
     * page queued twice, or a child ordered before its parent. A
     * rejected array leaves the queue untouched. O(n).
     */
    bool
    restore_raw(std::vector<std::uint64_t> heap, std::uint32_t num_pages)
    {
        std::vector<bool> queued(num_pages, false);
        for (std::size_t i = 0; i < heap.size(); ++i) {
            const std::uint64_t page = heap[i] & 0xffffffffu;
            if (page >= num_pages || queued[page])
                return false;
            queued[page] = true;
            if (i > 0 && heap[(i - 1) / kArity] > heap[i])
                return false;
        }
        heap_ = std::move(heap);
        return true;
    }

    /** Remove the earliest event. */
    void
    pop()
    {
        std::uint64_t last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            sift_down(last);
    }

    /**
     * Replace the earliest event with @p key in one sift instead of a
     * pop (full sift from the back) plus an emplace (sift up from the
     * back) -- the common pop-reschedule step does half the heap work.
     * The heap layout this produces can differ from pop+emplace, but
     * layout feeds nothing: pop order is a total order over unique
     * keys, and raw() is only ever copied verbatim.
     */
    void
    replace_top(std::uint64_t key)
    {
        SDFM_ASSERT(!heap_.empty());
        sift_down(key);
    }

    /**
     * Pop every event earlier than @p end, in time order, calling
     * handler(t, page) for each. The handler returns the event's
     * replacement key (from make_key) to reschedule its page, or 0 to
     * retire it. 0 is never a live key here: rescheduled times are
     * always >= 1 s in the future.
     *
     * This is the simulator's hottest loop; batching it here lets one
     * call amortize the end-key computation and use replace_top for
     * rescheduled events instead of pop+emplace.
     *
     * @return Number of events handled.
     */
    template <typename Handler>
    std::uint64_t
    drain_until(SimTime end, Handler &&handler)
    {
        const std::uint64_t end_key = make_key(end, 0);
        std::uint64_t handled = 0;
        while (!heap_.empty() && heap_.front() < end_key) {
            const std::uint64_t cur = heap_.front();
            std::uint64_t next =
                handler(static_cast<SimTime>(cur >> 32),
                        static_cast<PageId>(cur & 0xffffffffu));
            if (next != 0)
                replace_top(next);
            else
                pop();
            ++handled;
        }
        return handled;
    }

  private:
    static constexpr std::size_t kArity = 4;

    void
    sift_up(std::size_t i)
    {
        std::uint64_t key = heap_[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / kArity;
            if (heap_[parent] <= key)
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = key;
    }

    /** Place @p key (the displaced last element) starting at the
     *  root, walking the min child at each level. */
    void
    sift_down(std::uint64_t key)
    {
        const std::size_t n = heap_.size();
        std::uint64_t *h = heap_.data();
        std::size_t i = 0;
        for (;;) {
            const std::size_t first = i * kArity + 1;
            std::size_t best;
            std::uint64_t min;
            if (first + kArity <= n) {
                // Full group: the smaller of each pair (conditional
                // moves), then the smaller pair winner through an
                // all-ones-or-zero mask; GCC compiles a plain ternary
                // for this last pick into a branch. Ties would keep
                // the leftmost child, as a scan would; keys are
                // unique anyway.
                const std::uint64_t *c = h + first;
                const bool right01 = c[1] < c[0];
                const bool right23 = c[3] < c[2];
                const std::uint64_t min01 = right01 ? c[1] : c[0];
                const std::uint64_t min23 = right23 ? c[3] : c[2];
                const std::size_t off01 = right01;
                const std::size_t off23 = 2 + std::size_t{right23};
                const std::uint64_t take23 =
                    0 - static_cast<std::uint64_t>(min23 < min01);
                min = min01 ^ ((min01 ^ min23) & take23);
                best = first + (off01 ^ ((off01 ^ off23) & take23));
            } else if (first < n) {
                // The one partial group, at the bottom of the heap.
                best = first;
                for (std::size_t c = first + 1; c < n; ++c) {
                    if (h[c] < h[best])
                        best = c;
                }
                min = h[best];
            } else {
                break;
            }
            if (min >= key)
                break;
            h[i] = min;
            i = best;
        }
        h[i] = key;
    }

    std::vector<std::uint64_t> heap_;
};

}  // namespace sdfm

#endif  // SDFM_WORKLOAD_EVENT_QUEUE_H

#include "zsmalloc/zsmalloc.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "util/invariant.h"
#include "util/units.h"
#include "util/logging.h"

namespace sdfm {

namespace {

/** Size-class granularity, matching the spirit of the kernel's. */
constexpr std::uint32_t kClassDelta = 32;
constexpr std::uint32_t kMinAlloc = kClassDelta;
constexpr std::uint32_t kMaxAlloc = kPageSize;
constexpr std::uint32_t kNumClasses = kMaxAlloc / kClassDelta;
constexpr std::uint32_t kMaxPagesPerZspage = 4;
/** Largest handle: handles are u32 entry indices. */
constexpr std::uint64_t kMaxHandle = std::numeric_limits<ZsHandle>::max();

/** Bytes of one entry record on the wire: u32 size, u16 class,
 *  u32 zspage, u8 live, u64 payload byte count. */
constexpr std::size_t kEntryRecordBytes = 19;

static_assert(kNumClasses <= 256, "class indices fit the entry's u8");
static_assert(kMaxAlloc <= 65535, "payload sizes fit the entry's u16");

/** Pick pages-per-zspage minimizing tail waste (like the kernel). */
std::uint32_t
best_pages_per_zspage(std::uint32_t object_size)
{
    std::uint32_t best = 1;
    std::uint32_t best_waste = kPageSize % object_size;
    for (std::uint32_t p = 2; p <= kMaxPagesPerZspage; ++p) {
        std::uint32_t waste = (p * kPageSize) % object_size;
        // Prefer fewer pages on ties; compare waste per page.
        if (waste * best < best_waste * p) {
            best = p;
            best_waste = waste;
        }
    }
    return best;
}

}  // namespace

ZsmallocArena::ZsmallocArena(bool keep_payload_bytes)
    : keep_payload_bytes_(keep_payload_bytes)
{
    classes_.resize(kNumClasses);
    for (std::uint32_t i = 0; i < kNumClasses; ++i) {
        SizeClass &cls = classes_[i];
        cls.object_size = (i + 1) * kClassDelta;
        cls.pages_per_zspage = best_pages_per_zspage(cls.object_size);
        cls.objects_per_zspage =
            cls.pages_per_zspage * kPageSize / cls.object_size;
    }
    entries_.emplace_back();  // slot 0 reserved: handle 0 is invalid
    if (keep_payload_bytes_)
        payloads_.emplace_back();
}

std::uint16_t
ZsmallocArena::class_for_size(std::uint32_t size)
{
    SDFM_ASSERT(size >= 1 && size <= kMaxAlloc);
    std::uint32_t rounded = std::max(size, kMinAlloc);
    std::uint32_t idx = (rounded + kClassDelta - 1) / kClassDelta - 1;
    return static_cast<std::uint16_t>(idx);
}

std::uint32_t
ZsmallocArena::acquire_zspage_slot(SizeClass &cls)
{
    if (!cls.free_zspage_slots.empty()) {
        std::uint32_t id = cls.free_zspage_slots.back();
        cls.free_zspage_slots.pop_back();
        return id;
    }
    cls.zspage_occupancy.push_back(0);
    return static_cast<std::uint32_t>(cls.zspage_occupancy.size() - 1);
}

ZsHandle
ZsmallocArena::store(std::uint32_t size, const std::uint8_t *data)
{
    std::uint16_t class_idx = class_for_size(size);
    SizeClass &cls = classes_[class_idx];

    // Find a zspage with a free slot (first-fit over the candidate
    // list, dropping stale entries as we go). A candidate with zero
    // occupancy has been fully released -- its backing pages are gone
    // and its slot sits in free_zspage_slots -- so it is stale too.
    std::uint32_t target = UINT32_MAX;
    while (!cls.candidates.empty()) {
        std::uint32_t id = cls.candidates.back();
        std::uint32_t occ = cls.zspage_occupancy[id];
        if (occ > 0 && occ < cls.objects_per_zspage) {
            target = id;
            break;
        }
        cls.candidates.pop_back();
    }
    if (target == UINT32_MAX) {
        target = acquire_zspage_slot(cls);
        cls.candidates.push_back(target);
        stats_.pool_bytes +=
            static_cast<std::uint64_t>(cls.pages_per_zspage) * kPageSize;
    }
    ++cls.zspage_occupancy[target];
    if (cls.zspage_occupancy[target] == cls.objects_per_zspage &&
        !cls.candidates.empty() && cls.candidates.back() == target) {
        cls.candidates.pop_back();
    }
    ++cls.live;

    ZsHandle slot;
    if (!free_entries_.empty()) {
        slot = free_entries_.back();
        free_entries_.pop_back();
    } else {
        SDFM_ASSERT(entries_.size() < kMaxHandle);
        slot = static_cast<ZsHandle>(entries_.size());
        entries_.emplace_back();
        if (keep_payload_bytes_)
            payloads_.emplace_back();
    }
    Entry &entry = entries_[slot];
    entry.tag = 0;
    entry.zspage = target;
    entry.size = static_cast<std::uint16_t>(size);
    entry.class_idx = static_cast<std::uint8_t>(class_idx);
    entry.live = true;
    if (keep_payload_bytes_ && data != nullptr)
        payloads_[slot].assign(data, data + size);

    ++stats_.total_allocs;
    ++stats_.live_objects;
    stats_.stored_bytes += size;
    return slot;
}

void
ZsmallocArena::release(ZsHandle handle)
{
    SDFM_ASSERT(is_live(handle));
    Entry &entry = entries_[handle];
    SizeClass &cls = classes_[entry.class_idx];
    SDFM_ASSERT(cls.zspage_occupancy[entry.zspage] > 0);
    std::uint32_t occ = --cls.zspage_occupancy[entry.zspage];
    --cls.live;
    if (occ == 0) {
        cls.free_zspage_slots.push_back(entry.zspage);
        stats_.pool_bytes -=
            static_cast<std::uint64_t>(cls.pages_per_zspage) * kPageSize;
    } else if (occ == cls.objects_per_zspage - 1) {
        // Transitioned from full to having space: allocatable again.
        cls.candidates.push_back(entry.zspage);
    }

    stats_.stored_bytes -= entry.size;
    --stats_.live_objects;
    ++stats_.total_frees;
    entry.live = false;
    if (keep_payload_bytes_) {
        payloads_[handle].clear();
        payloads_[handle].shrink_to_fit();
    }
    free_entries_.push_back(handle);
}

std::uint32_t
ZsmallocArena::payload_size(ZsHandle handle) const
{
    SDFM_ASSERT(is_live(handle));
    return entries_[handle].size;
}

const std::uint8_t *
ZsmallocArena::payload(ZsHandle handle) const
{
    SDFM_ASSERT(is_live(handle));
    if (!keep_payload_bytes_ || payloads_[handle].empty())
        return nullptr;
    return payloads_[handle].data();
}

std::uint64_t
ZsmallocArena::compact()
{
    ++stats_.compactions;

    // Per class: the minimum number of zspages that can hold the live
    // objects. Migrate objects out of the sparsest zspages until that
    // bound is met. We model migration by rewriting entry zspage ids.
    // A zspage is backed iff it is not in the free-slot list, so a
    // class that already meets its bound is skipped in O(1).
    struct ClassPlan
    {
        std::uint16_t class_idx = 0;
        /** Backed zspages, sparsest first: the first evacuate_count
         *  are emptied, the rest receive in order. */
        std::vector<std::uint32_t> live_zspages;
        std::size_t evacuate_count = 0;
        std::vector<bool> evacuate;
        std::size_t recv_pos = 0;
    };
    std::vector<ClassPlan> plans;
    constexpr std::uint32_t kNoPlan = UINT32_MAX;
    std::array<std::uint32_t, kNumClasses> plan_of;
    plan_of.fill(kNoPlan);
    for (std::uint16_t class_idx = 0; class_idx < classes_.size();
         ++class_idx) {
        SizeClass &cls = classes_[class_idx];
        if (cls.live == 0)
            continue;
        std::uint64_t needed = (cls.live + cls.objects_per_zspage - 1) /
                               cls.objects_per_zspage;
        if (cls.zspage_occupancy.size() - cls.free_zspage_slots.size() <=
            needed) {
            continue;
        }
        ClassPlan plan;
        plan.class_idx = class_idx;
        for (std::uint32_t id = 0; id < cls.zspage_occupancy.size(); ++id) {
            if (cls.zspage_occupancy[id] > 0)
                plan.live_zspages.push_back(id);
        }
        // Sort by occupancy: evacuate the sparsest.
        std::sort(plan.live_zspages.begin(), plan.live_zspages.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return cls.zspage_occupancy[a] <
                             cls.zspage_occupancy[b];
                  });
        plan.evacuate_count = plan.live_zspages.size() - needed;
        plan.evacuate.assign(cls.zspage_occupancy.size(), false);
        for (std::size_t i = 0; i < plan.evacuate_count; ++i)
            plan.evacuate[plan.live_zspages[i]] = true;
        plan.recv_pos = plan.evacuate_count;
        plan_of[class_idx] = static_cast<std::uint32_t>(plans.size());
        plans.push_back(std::move(plan));
    }
    if (plans.empty())
        return 0;

    // One walk of the entry table serves every class with work; each
    // class still moves its objects in slot order.
    for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
        Entry &entry = entries_[slot];
        if (!entry.live || plan_of[entry.class_idx] == kNoPlan)
            continue;
        ClassPlan &plan = plans[plan_of[entry.class_idx]];
        if (!plan.evacuate[entry.zspage])
            continue;
        SizeClass &cls = classes_[entry.class_idx];
        while (plan.recv_pos < plan.live_zspages.size() &&
               cls.zspage_occupancy[plan.live_zspages[plan.recv_pos]] >=
                   cls.objects_per_zspage) {
            ++plan.recv_pos;
        }
        SDFM_ASSERT(plan.recv_pos < plan.live_zspages.size());
        std::uint32_t dst = plan.live_zspages[plan.recv_pos];
        --cls.zspage_occupancy[entry.zspage];
        ++cls.zspage_occupancy[dst];
        entry.zspage = dst;
        stats_.compaction_moved_bytes += entry.size;
    }

    std::uint64_t released = 0;
    for (const ClassPlan &plan : plans) {
        SizeClass &cls = classes_[plan.class_idx];
        // Release evacuated zspages.
        for (std::size_t i = 0; i < plan.evacuate_count; ++i) {
            std::uint32_t id = plan.live_zspages[i];
            SDFM_ASSERT(cls.zspage_occupancy[id] == 0);
            cls.free_zspage_slots.push_back(id);
            std::uint64_t bytes =
                static_cast<std::uint64_t>(cls.pages_per_zspage) * kPageSize;
            stats_.pool_bytes -= bytes;
            released += bytes;
        }
        // Candidate list may hold stale ids; rebuild it.
        cls.candidates.clear();
        for (std::uint32_t id = 0; id < cls.zspage_occupancy.size(); ++id) {
            if (cls.zspage_occupancy[id] > 0 &&
                cls.zspage_occupancy[id] < cls.objects_per_zspage) {
                cls.candidates.push_back(id);
            }
        }
    }
    return released;
}

void
ZsmallocArena::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;

    // Recompute the aggregate stats from the entry table.
    std::uint64_t live = 0;
    std::uint64_t stored = 0;
    std::vector<std::uint64_t> class_live(classes_.size(), 0);
    SDFM_INVARIANT(payloads_.size() ==
                       (keep_payload_bytes_ ? entries_.size() : 0),
                   "only keep-bytes arenas have payload slots, one each");
    for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
        const Entry &entry = entries_[slot];
        if (!entry.live)
            continue;
        ++live;
        stored += entry.size;
        SDFM_INVARIANT(entry.class_idx < classes_.size(),
                       "live entry references a valid size class");
        ++class_live[entry.class_idx];
        const SizeClass &cls = classes_[entry.class_idx];
        SDFM_INVARIANT(entry.size <= cls.object_size,
                       "payload fits its size class");
        SDFM_INVARIANT(entry.zspage < cls.zspage_occupancy.size(),
                       "live entry references a valid zspage");
        SDFM_INVARIANT(cls.zspage_occupancy[entry.zspage] > 0,
                       "live entry sits in a backed zspage");
    }
    SDFM_INVARIANT(live == stats_.live_objects,
                   "live-object count matches the entry table");
    SDFM_INVARIANT(stored == stats_.stored_bytes,
                   "stored-byte accounting matches summed entry sizes");
    SDFM_INVARIANT(stats_.total_allocs - stats_.total_frees == live,
                   "alloc/free counters reconcile with live objects");

    // Per-class occupancy vs live objects, and pool-byte accounting:
    // a zspage is backed by physical pages iff it holds objects.
    std::uint64_t pool = 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const SizeClass &cls = classes_[c];
        std::uint64_t occupied = 0;
        std::uint64_t backed = 0;
        for (std::uint32_t occ : cls.zspage_occupancy) {
            SDFM_INVARIANT(occ <= cls.objects_per_zspage,
                           "zspage occupancy within capacity");
            occupied += occ;
            if (occ > 0) {
                ++backed;
                pool += static_cast<std::uint64_t>(cls.pages_per_zspage) *
                        kPageSize;
            }
        }
        SDFM_INVARIANT(occupied == cls.live,
                       "class live count matches summed occupancy");
        SDFM_INVARIANT(cls.live == class_live[c],
                       "class live count matches the entry table");
        SDFM_INVARIANT(cls.zspage_occupancy.size() -
                               cls.free_zspage_slots.size() ==
                           backed,
                       "every empty zspage is in the free-slot list "
                       "(compact() counts backed zspages from it)");
        for (std::uint32_t id : cls.free_zspage_slots) {
            SDFM_INVARIANT(id < cls.zspage_occupancy.size(),
                           "free zspage slot id in range");
            SDFM_INVARIANT(cls.zspage_occupancy[id] == 0,
                           "free zspage slots are empty");
        }
    }
    SDFM_INVARIANT(pool == stats_.pool_bytes,
                   "pool-byte accounting matches backed zspages");

    // The free list holds exactly the dead entry slots.
    for (ZsHandle slot : free_entries_) {
        SDFM_INVARIANT(slot > 0 && slot < entries_.size(),
                       "free-list slot in range");
        SDFM_INVARIANT(!entries_[slot].live,
                       "free-list slots are dead");
    }
    SDFM_INVARIANT(free_entries_.size() + live == entries_.size() - 1,
                   "every non-reserved slot is either live or free");
}

void
ZsmallocArena::ckpt_save(Serializer &s) const
{
    s.put_bool(keep_payload_bytes_);
    s.put_u64(entries_.size());
    // One record run: every slot's record, each followed by its
    // payload bytes when the arena keeps them.
    std::size_t run = kEntryRecordBytes * (entries_.size() - 1);
    for (const std::vector<std::uint8_t> &bytes : payloads_)
        run += bytes.size();
    std::uint8_t *out = s.claim(run);
    for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
        const Entry &entry = entries_[slot];
        const std::size_t num_bytes =
            keep_payload_bytes_ ? payloads_[slot].size() : 0;
        store_le(out, std::uint32_t{entry.size});
        store_le(out + 4, std::uint16_t{entry.class_idx});
        store_le(out + 6, entry.zspage);
        out[10] = entry.live ? 1 : 0;
        store_le(out + 11, std::uint64_t{num_bytes});
        out += kEntryRecordBytes;
        if (num_bytes > 0) {
            std::memcpy(out, payloads_[slot].data(), num_bytes);
            out += num_bytes;
        }
    }
    s.put_u64(free_entries_.size());
    for (ZsHandle slot : free_entries_)
        s.put_u64(slot);
    s.put_u64(classes_.size());
    for (const SizeClass &cls : classes_) {
        // Static geometry (object_size, pages/objects per zspage) is
        // rebuilt by the constructor; only dynamic state is written.
        s.put_u64(cls.zspage_occupancy.size());
        for (std::uint32_t occ : cls.zspage_occupancy)
            s.put_u32(occ);
        s.put_u64(cls.candidates.size());
        for (std::uint32_t id : cls.candidates)
            s.put_u32(id);
        s.put_u64(cls.free_zspage_slots.size());
        for (std::uint32_t id : cls.free_zspage_slots)
            s.put_u32(id);
        s.put_u64(cls.live);
    }
    s.put_u64(stats_.live_objects);
    s.put_u64(stats_.stored_bytes);
    s.put_u64(stats_.pool_bytes);
    s.put_u64(stats_.total_allocs);
    s.put_u64(stats_.total_frees);
    s.put_u64(stats_.compactions);
    s.put_u64(stats_.compaction_moved_bytes);
}

bool
ZsmallocArena::ckpt_load(Deserializer &d)
{
    bool keep_bytes = d.get_bool();
    if (!d.ok() || keep_bytes != keep_payload_bytes_)
        return false;
    std::size_t num_entries = d.get_size(kMaxHandle, 12);
    if (!d.ok() || num_entries == 0)
        return false;
    entries_.assign(num_entries, Entry{});
    payloads_.assign(keep_payload_bytes_ ? num_entries : 0, {});
    std::uint64_t live_count = 0;
    for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
        const std::uint8_t *in = d.consume(kEntryRecordBytes);
        if (in == nullptr)
            return false;
        Entry &entry = entries_[slot];
        std::uint32_t size = load_le<std::uint32_t>(in);
        std::uint16_t class_idx = load_le<std::uint16_t>(in + 4);
        entry.zspage = load_le<std::uint32_t>(in + 6);
        entry.live = in[10] != 0;
        std::uint64_t num_bytes = load_le<std::uint64_t>(in + 11);
        // Every slot was written by a store, dead ones included.
        if (size > kMaxAlloc || class_idx >= kNumClasses)
            return false;
        entry.size = static_cast<std::uint16_t>(size);
        entry.class_idx = static_cast<std::uint8_t>(class_idx);
        if (num_bytes > kMaxAlloc || num_bytes > d.remaining())
            return false;
        if (num_bytes > 0) {
            // Bytes belong to live entries of keep-bytes arenas and
            // cover the whole payload.
            if (!keep_payload_bytes_ || !entry.live || num_bytes != size)
                return false;
            const std::uint8_t *bytes = d.consume(num_bytes);
            payloads_[slot].assign(bytes, bytes + num_bytes);
        }
        if (entry.live) {
            ++live_count;
            if (entry.size == 0)
                return false;
        }
    }
    std::vector<std::uint64_t> free_list = d.get_u64_vec();
    // Each dead slot is listed once: a repeat would hand one handle
    // to two stores.
    std::vector<bool> free_listed(entries_.size(), false);
    free_entries_.clear();
    free_entries_.reserve(free_list.size());
    for (std::uint64_t slot : free_list) {
        if (slot == 0 || slot >= entries_.size() || entries_[slot].live ||
            free_listed[slot]) {
            return false;
        }
        free_listed[slot] = true;
        free_entries_.push_back(static_cast<ZsHandle>(slot));
    }
    std::size_t num_classes = d.get_size(kNumClasses);
    if (!d.ok() || num_classes != classes_.size())
        return false;
    for (SizeClass &cls : classes_) {
        std::size_t num_zspages = d.get_size(d.remaining() / 4, 4);
        if (!d.ok())
            return false;
        cls.zspage_occupancy.assign(num_zspages, 0);
        for (std::uint32_t &occ : cls.zspage_occupancy)
            occ = d.get_u32();
        std::size_t num_candidates = d.get_size(d.remaining() / 4, 4);
        if (!d.ok())
            return false;
        cls.candidates.assign(num_candidates, 0);
        for (std::uint32_t &id : cls.candidates) {
            id = d.get_u32();
            if (id >= num_zspages)
                return false;
        }
        std::size_t num_free = d.get_size(num_zspages, 4);
        if (!d.ok())
            return false;
        cls.free_zspage_slots.assign(num_free, 0);
        for (std::uint32_t &id : cls.free_zspage_slots) {
            id = d.get_u32();
            if (id >= num_zspages)
                return false;
        }
        cls.live = d.get_u64();
    }
    stats_.live_objects = d.get_u64();
    stats_.stored_bytes = d.get_u64();
    stats_.pool_bytes = d.get_u64();
    stats_.total_allocs = d.get_u64();
    stats_.total_frees = d.get_u64();
    stats_.compactions = d.get_u64();
    stats_.compaction_moved_bytes = d.get_u64();
    if (!d.ok())
        return false;

    // The free list and the live entries must partition the slots,
    // and every live entry must sit in a backed zspage.
    if (stats_.live_objects != live_count ||
        free_entries_.size() + live_count != entries_.size() - 1) {
        return false;
    }
    for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
        const Entry &entry = entries_[slot];
        if (entry.live &&
            (entry.zspage >=
                 classes_[entry.class_idx].zspage_occupancy.size() ||
             classes_[entry.class_idx].zspage_occupancy[entry.zspage] ==
                 0)) {
            return false;
        }
    }
    // Each class's free-slot list holds every empty zspage exactly
    // once: compact() counts backed zspages from its length.
    for (const SizeClass &cls : classes_) {
        std::vector<bool> listed(cls.zspage_occupancy.size(), false);
        for (std::uint32_t id : cls.free_zspage_slots) {
            if (cls.zspage_occupancy[id] != 0 || listed[id])
                return false;
            listed[id] = true;
        }
        for (std::uint32_t id = 0; id < cls.zspage_occupancy.size(); ++id) {
            if (cls.zspage_occupancy[id] == 0 && !listed[id])
                return false;
        }
    }
    return true;
}

double
ZsmallocArena::fragmentation() const
{
    if (stats_.pool_bytes == 0)
        return 0.0;
    return 1.0 - static_cast<double>(stats_.stored_bytes) /
                     static_cast<double>(stats_.pool_bytes);
}

}  // namespace sdfm

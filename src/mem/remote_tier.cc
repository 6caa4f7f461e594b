#include "mem/remote_tier.h"

#include <algorithm>
#include <iterator>

#include "util/logging.h"

namespace sdfm {

RemoteTier::RemoteTier(const RemoteTierParams &params,
                       std::uint64_t rng_seed)
    : params_(params), rng_(rng_seed)
{
}

std::uint64_t
RemoteTier::key(const Memcg &cg, PageId p)
{
    // Jobs are unique within one machine's tier, and 24 bits of job
    // id plus the page id cannot collide across the handful of jobs a
    // machine hosts; mix the full id to be safe.
    std::uint64_t x = cg.id() * 0x9E3779B97F4A7C15ULL;
    return (x << 32) ^ p;
}

bool
RemoteTier::has_space() const
{
    for (const auto &[id, slot] : lease_slots_) {
        if (!slot.draining && slot.used < slot.capacity)
            return true;
    }
    return false;
}

std::uint32_t
RemoteTier::pick_store_slot()
{
    // First non-draining slot with space at or after the cursor,
    // wrapping once -- a deterministic round-robin over lease ids.
    auto usable = [](const LeaseSlot &slot) {
        return !slot.draining && slot.used < slot.capacity;
    };
    for (auto it = lease_slots_.lower_bound(slot_cursor_);
         it != lease_slots_.end(); ++it) {
        if (usable(it->second))
            return it->first;
    }
    for (auto it = lease_slots_.begin();
         it != lease_slots_.lower_bound(slot_cursor_); ++it) {
        if (usable(it->second))
            return it->first;
    }
    return ~0u;
}

bool
RemoteTier::store(Memcg &cg, PageId p)
{
    SDFM_ASSERT(!cg.page_test(p, kPageInZswap) &&
                !cg.page_test(p, kPageInFarTier));
    SDFM_ASSERT(!cg.page_test(p, kPageUnevictable));
    std::uint32_t lease = pick_store_slot();
    if (lease == ~0u) {
        ++stats_.rejected_full;
        return false;
    }
    ++lease_slots_[lease].used;
    slot_cursor_ = lease + 1;
    auto [it, inserted] =
        placements_.emplace(key(cg, p), Placement{&cg, p, lease});
    SDFM_ASSERT(inserted);
    ++used_pages_;
    cg.note_stored_in_tier(p, stack_index());
    ++stats_.stores;
    ++cg.stats().nvm_stores;
    // Pages leaving the machine must be encrypted (Section 2.1).
    stats_.crypto_cycles += params_.crypto_cycles_per_page;
    cg.stats().compress_cycles += params_.crypto_cycles_per_page;
    return true;
}

void
RemoteTier::load(Memcg &cg, PageId p)
{
    SDFM_ASSERT(cg.page_test(p, kPageInFarTier));
    auto it = placements_.find(key(cg, p));
    SDFM_ASSERT(it != placements_.end());
    auto slot = lease_slots_.find(it->second.lease);
    SDFM_ASSERT(slot != lease_slots_.end() && slot->second.used > 0);
    --slot->second.used;
    placements_.erase(it);
    SDFM_ASSERT(used_pages_ > 0);
    --used_pages_;
    cg.note_loaded_from_tier(p);

    double latency = params_.read_latency_us *
                     rng_.next_lognormal(0.0, params_.jitter_sigma);
    if (transient_read_failure_prob_ > 0.0) {
        // Degraded network path: each attempt fails independently and
        // a failed attempt pays exponential backoff plus another
        // round-trip. After max_read_retries the read is counted
        // exhausted (the tier circuit breaker's trip signal) but the
        // promotion still completes -- the step loop never aborts.
        std::uint32_t failures = 0;
        while (rng_.next_bool(transient_read_failure_prob_)) {
            ++stats_.read_failures;
            if (failures == params_.max_read_retries) {
                ++stats_.reads_exhausted;
                break;
            }
            ++failures;
            ++stats_.read_retries;
            // The backoff doubles per attempt up to 64x; an uncapped
            // shift is undefined past 63 retries.
            std::uint32_t shift = std::min(failures - 1, 6U);
            latency += params_.retry_backoff_base_us *
                           static_cast<double>(1ULL << shift) +
                       params_.read_latency_us *
                           rng_.next_lognormal(0.0, params_.jitter_sigma);
        }
    }
    ++stats_.promotions;
    stats_.read_latency_us_sum += latency;
    ++cg.stats().nvm_promotions;
    cg.stats().nvm_read_latency_us_sum += latency;
    cg.stats().nvm_stall_cycles += latency * 2.6e3;
    // Decryption on arrival.
    stats_.crypto_cycles += params_.crypto_cycles_per_page;
    cg.stats().decompress_cycles += params_.crypto_cycles_per_page;
}

void
RemoteTier::drop(Memcg &cg, PageId p)
{
    SDFM_ASSERT(cg.page_test(p, kPageInFarTier));
    auto it = placements_.find(key(cg, p));
    SDFM_ASSERT(it != placements_.end());
    auto slot = lease_slots_.find(it->second.lease);
    SDFM_ASSERT(slot != lease_slots_.end() && slot->second.used > 0);
    --slot->second.used;
    placements_.erase(it);
    SDFM_ASSERT(used_pages_ > 0);
    --used_pages_;
    cg.note_loaded_from_tier(p);
}

void
RemoteTier::drop_all(Memcg &cg)
{
    for (PageId p : cg.tier_page_ids(stack_index()))
        drop(cg, p);
}

std::vector<JobId>
RemoteTier::lose_lease_pages(std::uint32_t lease_id)
{
    std::set<JobId> affected;
    std::vector<std::uint64_t> lost_keys;
    // sdfm-lint: allow(unordered-iter) -- lost_keys is sorted below
    // and `affected` is an ordered set, so iteration order of the
    // placement map cannot leak into the failure trajectory.
    for (const auto &[k, placement] : placements_) {
        if (placement.lease != lease_id)
            continue;
        lost_keys.push_back(k);
        affected.insert(placement.cg->id());
    }
    std::sort(lost_keys.begin(), lost_keys.end());
    for (std::uint64_t k : lost_keys) {
        Placement placement = placements_[k];
        placements_.erase(k);
        SDFM_ASSERT(used_pages_ > 0);
        --used_pages_;
        ++stats_.pages_lost;
        // The page's data is gone; the owning job is about to be
        // killed, so just restore the residency accounting.
        placement.cg->note_loaded_from_tier(placement.page);
    }
    return {affected.begin(), affected.end()};
}

std::vector<JobId>
RemoteTier::fail_donor(std::uint32_t lease_id)
{
    if (lease_slots_.find(lease_id) == lease_slots_.end())
        return {};
    ++stats_.donor_failures;
    std::vector<JobId> victims = fail_lease(lease_id);
    dead_leases_.push_back(lease_id);
    return victims;
}

std::vector<JobId>
RemoteTier::fail_random_lease(Rng &rng)
{
    if (lease_slots_.empty())
        return {};
    // Victim draw over the sorted lease ids (std::map iterates in key
    // order), so the trajectory is independent of insertion history.
    std::uint64_t pick = rng.next_below(lease_slots_.size());
    auto it = lease_slots_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick));
    return fail_donor(it->first);
}

std::vector<JobId>
RemoteTier::fail_lease(std::uint32_t lease_id)
{
    auto it = lease_slots_.find(lease_id);
    SDFM_ASSERT(it != lease_slots_.end());
    std::vector<JobId> victims = lose_lease_pages(lease_id);
    slot_capacity_total_ -= it->second.capacity;
    lease_slots_.erase(it);
    return victims;
}

void
RemoteTier::grant_lease(std::uint32_t lease_id, std::uint64_t pages)
{
    SDFM_ASSERT(pages > 0);
    auto [it, inserted] =
        lease_slots_.emplace(lease_id, LeaseSlot{pages, 0, false});
    SDFM_ASSERT(inserted);
    slot_capacity_total_ += pages;
}

void
RemoteTier::begin_drain(std::uint32_t lease_id)
{
    auto it = lease_slots_.find(lease_id);
    SDFM_ASSERT(it != lease_slots_.end());
    it->second.draining = true;
}

std::uint64_t
RemoteTier::lease_used(std::uint32_t lease_id) const
{
    auto it = lease_slots_.find(lease_id);
    SDFM_ASSERT(it != lease_slots_.end());
    return it->second.used;
}

void
RemoteTier::finish_lease(std::uint32_t lease_id)
{
    auto it = lease_slots_.find(lease_id);
    SDFM_ASSERT(it != lease_slots_.end());
    SDFM_ASSERT(it->second.used == 0);
    slot_capacity_total_ -= it->second.capacity;
    lease_slots_.erase(it);
}

std::vector<std::pair<Memcg *, PageId>>
RemoteTier::lease_page_refs(std::uint32_t lease_id,
                            std::uint64_t limit) const
{
    std::vector<std::uint64_t> keys;
    // sdfm-lint: allow(unordered-iter) -- keys are sorted below, so
    // the drain order is independent of hash-map iteration order.
    for (const auto &[k, placement] : placements_) {
        if (placement.lease == lease_id)
            keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    if (keys.size() > limit)
        keys.resize(limit);
    std::vector<std::pair<Memcg *, PageId>> refs;
    refs.reserve(keys.size());
    for (std::uint64_t k : keys) {
        const Placement &placement = placements_.at(k);
        refs.emplace_back(placement.cg, placement.page);
    }
    return refs;
}

std::vector<std::uint32_t>
RemoteTier::take_dead_leases()
{
    std::vector<std::uint32_t> dead = std::move(dead_leases_);
    dead_leases_.clear();
    return dead;
}

std::uint64_t
RemoteTier::free_slot_pages() const
{
    std::uint64_t free = 0;
    for (const auto &[id, slot] : lease_slots_) {
        if (!slot.draining)
            free += slot.capacity - slot.used;
    }
    return free;
}

std::vector<RemoteTier::LeaseSlotView>
RemoteTier::lease_slots() const
{
    std::vector<LeaseSlotView> views;
    views.reserve(lease_slots_.size());
    for (const auto &[id, slot] : lease_slots_) {
        views.push_back(
            {id, slot.capacity, slot.used, slot.draining});
    }
    return views;
}

void
RemoteTier::ckpt_save(Serializer &s) const
{
    s.put_u64(stats_.stores);
    s.put_u64(stats_.promotions);
    s.put_u64(stats_.rejected_full);
    s.put_u64(stats_.donor_failures);
    s.put_u64(stats_.pages_lost);
    s.put_double(stats_.read_latency_us_sum);
    s.put_double(stats_.crypto_cycles);
    s.put_u64(stats_.read_failures);
    s.put_u64(stats_.read_retries);
    s.put_u64(stats_.reads_exhausted);
    s.put_u64(used_pages_);
    s.put_rng(rng_);
    s.put_double(transient_read_failure_prob_);
    s.put_u32(slot_cursor_);
    s.put_u64(lease_slots_.size());
    for (const auto &[id, slot] : lease_slots_) {
        s.put_u32(id);
        s.put_u64(slot.capacity);
        s.put_bool(slot.draining);
    }
    s.put_u64(dead_leases_.size());
    for (std::uint32_t id : dead_leases_)
        s.put_u32(id);

    struct Row
    {
        std::uint64_t key;
        JobId job;
        PageId page;
        std::uint32_t lease;
    };
    std::vector<Row> rows;
    rows.reserve(placements_.size());
    // sdfm-lint: allow(unordered-iter) -- extraction only; rows are
    // sorted by placement key before serialization so the wire bytes
    // are independent of hash-map iteration order.
    for (const auto &[k, placement] : placements_) {
        rows.push_back(
            {k, placement.cg->id(), placement.page, placement.lease});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.key < b.key; });
    s.put_u64(rows.size());
    for (const Row &row : rows) {
        s.put_u64(row.job);
        s.put_u32(row.page);
        s.put_u32(row.lease);
    }
}

bool
RemoteTier::ckpt_load(Deserializer &d)
{
    stats_.stores = d.get_u64();
    stats_.promotions = d.get_u64();
    stats_.rejected_full = d.get_u64();
    stats_.donor_failures = d.get_u64();
    stats_.pages_lost = d.get_u64();
    stats_.read_latency_us_sum = d.get_double();
    stats_.crypto_cycles = d.get_double();
    stats_.read_failures = d.get_u64();
    stats_.read_retries = d.get_u64();
    stats_.reads_exhausted = d.get_u64();
    used_pages_ = d.get_u64();
    d.get_rng(rng_);
    transient_read_failure_prob_ = d.get_double();

    lease_slots_.clear();
    slot_capacity_total_ = 0;
    dead_leases_.clear();
    slot_cursor_ = d.get_u32();
    std::size_t num_slots = d.get_size(d.remaining() / 13, 13);
    for (std::size_t i = 0; i < num_slots; ++i) {
        std::uint32_t id = d.get_u32();
        LeaseSlot slot;
        slot.capacity = d.get_u64();
        slot.draining = d.get_bool();
        if (!d.ok() || slot.capacity == 0 ||
            !lease_slots_.emplace(id, slot).second) {
            return false;
        }
        slot_capacity_total_ += slot.capacity;
    }
    std::size_t num_dead = d.get_size(d.remaining() / 4, 4);
    for (std::size_t i = 0; i < num_dead; ++i)
        dead_leases_.push_back(d.get_u32());

    placements_.clear();
    pending_placements_.clear();
    std::size_t num = d.get_size(d.remaining() / 16, 16);
    if (!d.ok() || num != used_pages_ || used_pages_ > slot_capacity_total_)
        return false;
    pending_placements_.reserve(num);
    for (std::size_t i = 0; i < num; ++i) {
        PendingPlacement pending;
        pending.job = d.get_u64();
        pending.page = d.get_u32();
        pending.lease = d.get_u32();
        // The lease field names a lease slot; it must exist.
        if (!d.ok() ||
            lease_slots_.find(pending.lease) == lease_slots_.end()) {
            return false;
        }
        pending_placements_.push_back(pending);
    }
    return true;
}

bool
RemoteTier::ckpt_resolve(const std::map<JobId, Memcg *> &jobs)
{
    for (const PendingPlacement &pending : pending_placements_) {
        auto it = jobs.find(pending.job);
        if (it == jobs.end())
            return false;
        Memcg *cg = it->second;
        if (pending.page >= cg->num_pages() ||
            !cg->page_test(pending.page, kPageInFarTier) ||
            cg->tier_of(pending.page) != stack_index()) {
            return false;
        }
        auto [pos, inserted] = placements_.emplace(
            key(*cg, pending.page),
            Placement{cg, pending.page, pending.lease});
        LeaseSlot &slot = lease_slots_[pending.lease];
        if (!inserted || slot.used == slot.capacity)
            return false;
        ++slot.used;
    }
    pending_placements_.clear();
    pending_placements_.shrink_to_fit();
    return true;
}

}  // namespace sdfm

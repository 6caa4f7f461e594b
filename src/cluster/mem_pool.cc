#include "cluster/mem_pool.h"

#include <algorithm>
#include <limits>

#include "util/digest.h"
#include "util/invariant.h"
#include "util/logging.h"

namespace sdfm {

namespace {

/** @p periods control periods after @p now, saturating at the end of
 *  time: a lease whose term runs past it never expires. */
SimTime
deadline_after(SimTime now, std::uint64_t periods, SimTime period)
{
    constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
    SimTime term = 0;
    SimTime deadline = 0;
    if (periods > static_cast<std::uint64_t>(kNever) ||
        __builtin_mul_overflow(static_cast<SimTime>(periods), period,
                               &term) ||
        __builtin_add_overflow(now, term, &deadline)) {
        return kNever;
    }
    return deadline;
}

}  // namespace

MemPoolParams
permanent_lease_pool(std::uint64_t lease_pages,
                     std::uint32_t leases_per_borrower)
{
    MemPoolParams params;
    params.enabled = true;
    params.lease_pages = lease_pages;
    params.max_leases_per_borrower = leases_per_borrower;
    params.lease_term_periods = std::numeric_limits<std::uint64_t>::max();
    params.donor_reserve_frac = 0.0;
    return params;
}

MemoryBroker::MemoryBroker(const MemPoolParams &params,
                           std::uint64_t seed,
                           std::uint32_t num_machines)
    : params_(params), num_machines_(num_machines),
      breakers_(num_machines, CircuitBreaker(params.breaker)),
      fault_(params.fault, seed)
{
    SDFM_ASSERT(num_machines_ > 0);
    SDFM_ASSERT(params_.lease_pages > 0);
}

std::uint32_t
MemoryBroker::borrower_lease_count(std::uint32_t borrower) const
{
    std::uint32_t count = 0;
    for (const auto &[id, lease] : leases_) {
        if (lease.borrower == borrower && !lease.terminal())
            ++count;
    }
    return count;
}

void
MemoryBroker::attempt_revocation(
    Lease &lease, bool expiry,
    std::vector<std::unique_ptr<Machine>> &machines,
    std::vector<bool> &cp_failure)
{
    lease.expiry = expiry;
    if (revocation_losses_ > 0) {
        // The revocation message is lost in flight: the borrower
        // keeps the lease one more period and the broker redelivers.
        --revocation_losses_;
        lease.revoke_pending = true;
        cp_failure[lease.borrower] = true;
        return;
    }
    lease.revoke_pending = false;
    lease.transition(LeaseState::kRevoking);
    lease.grace_remaining = params_.grace_periods;
    RemoteTier *remote = machines[lease.borrower]->remote_tier();
    SDFM_ASSERT(remote != nullptr);
    remote->begin_drain(lease.id);
    ++stats_.revocations;
    if (expiry)
        ++stats_.expiries;
}

BrokerStepResult
MemoryBroker::step(SimTime now, SimTime period,
                   std::vector<std::unique_ptr<Machine>> &machines)
{
    SDFM_ASSERT(machines.size() == num_machines_);
    BrokerStepResult result;

    // 0. Prune last step's terminal leases (they linger one step so
    // post-step state is inspectable; the table stays bounded).
    for (auto it = leases_.begin(); it != leases_.end();) {
        if (it->second.terminal())
            it = leases_.erase(it);
        else
            ++it;
    }

    // 1. Fault plane: this step's control-plane fault events. Loss
    // budgets are per-step -- a lost message that was never sent is a
    // no-op -- so they reset rather than carry over.
    grant_losses_ = 0;
    revocation_losses_ = 0;
    if (fault_.enabled()) {
        for (const FaultEvent &event : fault_.step(now, now + period)) {
            switch (event.kind) {
              case FaultKind::kBrokerStall:
                stalled_until_ =
                    std::max(stalled_until_, now + event.duration);
                break;
              case FaultKind::kLeaseGrantLoss:
                ++grant_losses_;
                break;
              case FaultKind::kRevocationLoss:
                ++revocation_losses_;
                break;
              default:
                // Only pooling kinds belong in the broker's config;
                // anything else is ignored.
                break;
            }
        }
    }

    // 2. A stalled broker makes no control-plane progress: no
    // deliveries, no revocations, no matches -- and every machine's
    // control path observes the outage.
    result.stalled = now < stalled_until_;

    // 3. Reconcile machine-side donor crashes: leases whose pages
    // died with their donor since the last step. The pages are gone
    // and the borrower's jobs were already killed machine-side; here
    // the books close -- the donor's pages come back and the lease
    // terminates. Runs even while stalled (it is local bookkeeping,
    // not a control-plane message).
    for (auto &machine : machines) {
        RemoteTier *remote = machine->remote_tier();
        if (remote == nullptr)
            continue;
        for (std::uint32_t id : remote->take_dead_leases()) {
            auto it = leases_.find(id);
            if (it == leases_.end() || it->second.terminal())
                continue;
            Lease &lease = it->second;
            machines[lease.donor]->return_donated(lease.pages);
            lease.transition(LeaseState::kRevoked);
            ++stats_.donor_crash_revocations;
        }
    }

    // 4. Per-machine control-plane health for this period; a stall is
    // an outage for everyone.
    std::vector<bool> cp_failure(num_machines_, result.stalled);

    if (!result.stalled) {
        // 5. Grant deliveries (issued grants arrive one step after
        // matching -- one control-plane round trip). A delivery can
        // be lost; the broker retries with exponential backoff and
        // aborts the grant after bounded retries.
        for (auto &[id, lease] : leases_) {
            if (lease.state != LeaseState::kGranted)
                continue;
            if (lease.grant_backoff_remaining > 0) {
                --lease.grant_backoff_remaining;
                continue;
            }
            if (grant_losses_ > 0) {
                --grant_losses_;
                cp_failure[lease.borrower] = true;
                ++lease.grant_retries;
                if (lease.grant_retries > params_.max_grant_retries) {
                    machines[lease.donor]->return_donated(lease.pages);
                    lease.transition(LeaseState::kRevoked);
                    ++stats_.grants_aborted;
                } else {
                    // Doubles per retry up to 64x; an uncapped shift
                    // is undefined past 63 retries.
                    std::uint32_t shift =
                        std::min(lease.grant_retries - 1, 6U);
                    lease.grant_backoff_remaining =
                        params_.grant_backoff_base << shift;
                }
                continue;
            }
            RemoteTier *remote =
                machines[lease.borrower]->remote_tier();
            SDFM_ASSERT(remote != nullptr);
            remote->grant_lease(lease.id, lease.pages);
            lease.deadline =
                deadline_after(now, params_.lease_term_periods, period);
            lease.transition(LeaseState::kActive);
            ++stats_.leases_granted;
        }

        // 6. Redeliver revocations whose message was lost.
        for (auto &[id, lease] : leases_) {
            if (lease.state == LeaseState::kActive &&
                lease.revoke_pending) {
                attempt_revocation(lease, lease.expiry, machines,
                                   cp_failure);
            }
        }

        // 7a. Natural expiry: an active lease past its term drains
        // out through the same revocation path, terminating in
        // kExpired instead of kRevoked.
        for (auto &[id, lease] : leases_) {
            if (lease.state == LeaseState::kActive &&
                !lease.revoke_pending && now >= lease.deadline) {
                attempt_revocation(lease, true, machines, cp_failure);
            }
        }

        // 7b. Donor pressure: a donor whose free DRAM dips under its
        // reserve gets relief -- the broker revokes its newest active
        // lease (LIFO; one per donor per period, so relief ramps
        // rather than shocks).
        for (std::uint32_t d = 0; d < num_machines_; ++d) {
            if (machines[d]->donated_pages() == 0)
                continue;
            auto reserve = static_cast<std::uint64_t>(
                params_.donor_reserve_frac *
                static_cast<double>(machines[d]->config().dram_pages));
            if (machines[d]->free_pages() >= reserve)
                continue;
            for (auto it = leases_.rbegin(); it != leases_.rend();
                 ++it) {
                Lease &lease = it->second;
                if (lease.donor == d &&
                    lease.state == LeaseState::kActive &&
                    !lease.revoke_pending) {
                    attempt_revocation(lease, false, machines,
                                       cp_failure);
                    break;
                }
            }
        }
    }

    // 8. Grace-window drains. Borrower-local work: it proceeds even
    // while the broker is stalled (the revocation was already
    // delivered). A lease that empties within grace terminates
    // cleanly; one that does not forfeits its pages and the owning
    // jobs are killed -- the only pooling path that still kills jobs
    // besides an actual donor crash.
    for (auto &[id, lease] : leases_) {
        if (lease.state != LeaseState::kRevoking)
            continue;
        Machine &borrower = *machines[lease.borrower];
        RemoteTier *remote = borrower.remote_tier();
        SDFM_ASSERT(remote != nullptr);
        if (remote->lease_used(id) > 0) {
            std::uint64_t drained = borrower.drain_lease(
                id, params_.drain_pages_per_period);
            stats_.grace_drain_pages += drained;
        }
        if (remote->lease_used(id) == 0) {
            remote->finish_lease(id);
            machines[lease.donor]->return_donated(lease.pages);
            lease.transition(lease.expiry ? LeaseState::kExpired
                                          : LeaseState::kRevoked);
            ++stats_.clean_drains;
        } else if (lease.grace_remaining == 0) {
            std::vector<JobId> victims = borrower.fail_lease(id);
            machines[lease.donor]->return_donated(lease.pages);
            lease.transition(LeaseState::kRevoked);
            stats_.forced_kills += victims.size();
            result.killed.insert(result.killed.end(), victims.begin(),
                                 victims.end());
        } else {
            --lease.grace_remaining;
        }
    }

    if (!result.stalled) {
        // 9. Matching: memory-starved borrowers (free lease capacity
        // under a quarter lease) are granted a lease against the
        // donor with the largest surplus above its reserve, lowest
        // index on ties. Machines whose breaker is open sit the
        // market out on both sides.
        for (std::uint32_t b = 0; b < num_machines_; ++b) {
            RemoteTier *remote = machines[b]->remote_tier();
            if (remote == nullptr)
                continue;
            if (params_.breaker_enabled &&
                breakers_[b].state() == BreakerState::kOpen) {
                continue;
            }
            if (remote->free_slot_pages() >= params_.lease_pages / 4)
                continue;
            if (borrower_lease_count(b) >=
                params_.max_leases_per_borrower) {
                continue;
            }
            std::uint32_t best = num_machines_;
            std::uint64_t best_free = 0;
            for (std::uint32_t d = 0; d < num_machines_; ++d) {
                if (d == b)
                    continue;
                if (params_.breaker_enabled &&
                    breakers_[d].state() == BreakerState::kOpen) {
                    continue;
                }
                auto reserve = static_cast<std::uint64_t>(
                    params_.donor_reserve_frac *
                    static_cast<double>(
                        machines[d]->config().dram_pages));
                std::uint64_t free = machines[d]->free_pages();
                if (free < reserve + params_.lease_pages)
                    continue;
                if (best == num_machines_ || free > best_free) {
                    best = d;
                    best_free = free;
                }
            }
            if (best == num_machines_)
                continue;
            Lease lease;
            lease.id = next_lease_id_++;
            lease.donor = best;
            lease.borrower = b;
            lease.pages = params_.lease_pages;
            lease.state = LeaseState::kGranted;
            machines[best]->donate_pages(lease.pages);
            leases_.emplace(lease.id, lease);
            ++stats_.leases_issued;
        }
    }

    // 10. Per-machine control-plane breakers. While a machine's
    // breaker is open its remote tier is gated to zero budget and
    // demotions fall through the route table to shallower tiers.
    std::uint64_t open_breakers = 0;
    if (params_.breaker_enabled) {
        for (std::uint32_t i = 0; i < num_machines_; ++i) {
            if (cp_failure[i]) {
                if (breakers_[i].record_failure()) {
                    ++stats_.breaker_opens;
                }
            } else {
                breakers_[i].record_success();
            }
            breakers_[i].tick();
            bool open = breakers_[i].state() == BreakerState::kOpen;
            machines[i]->set_pool_gate(open);
            if (open)
                ++open_breakers;
        }
    }

    // 11. Step-end levels for the pool.* gauges.
    stats_.leases_active = 0;
    for (const auto &[id, lease] : leases_) {
        if (lease.state == LeaseState::kActive ||
            lease.state == LeaseState::kRevoking) {
            ++stats_.leases_active;
        }
    }
    stats_.open_breakers = open_breakers;

    return result;
}

void
MemoryBroker::check_invariants(
    const std::vector<std::unique_ptr<Machine>> &machines) const
{
    if constexpr (!kInvariantsEnabled)
        return;
    SDFM_INVARIANT(machines.size() == num_machines_,
                   "broker machine count matches the cluster");
    std::vector<std::uint64_t> donated(num_machines_, 0);
    for (const auto &[id, lease] : leases_) {
        SDFM_INVARIANT(id == lease.id, "lease keyed by its own id");
        SDFM_INVARIANT(id < next_lease_id_,
                       "lease id below the allocator");
        if (lease.terminal())
            continue;
        SDFM_INVARIANT(lease.donor < num_machines_ &&
                           lease.borrower < num_machines_ &&
                           lease.donor != lease.borrower &&
                           lease.pages > 0,
                       "non-terminal lease is well-formed");
        donated[lease.donor] += lease.pages;
    }
    for (std::uint32_t i = 0; i < num_machines_; ++i) {
        SDFM_INVARIANT(machines[i]->donated_pages() == donated[i],
                       "outstanding lease pages match the donor's "
                       "donation account");
    }
}

std::uint64_t
MemoryBroker::state_digest(
    const std::vector<std::unique_ptr<Machine>> &machines) const
{
    StateDigest d;
    d.mix(next_lease_id_);
    d.mix(static_cast<std::uint64_t>(stalled_until_));
    d.mix(leases_.size());
    for (const auto &[id, lease] : leases_)
        d.mix(lease.state_digest());
    for (std::uint32_t i = 0; i < num_machines_; ++i) {
        d.mix(static_cast<std::uint64_t>(
            static_cast<std::uint8_t>(breakers_[i].state())));
        d.mix(machines[i]->donated_pages());
    }
    d.mix(stats_.leases_issued);
    d.mix(stats_.leases_granted);
    d.mix(stats_.grants_aborted);
    d.mix(stats_.revocations);
    d.mix(stats_.expiries);
    d.mix(stats_.grace_drain_pages);
    d.mix(stats_.clean_drains);
    d.mix(stats_.forced_kills);
    d.mix(stats_.donor_crash_revocations);
    d.mix(stats_.breaker_opens);
    // Control-plane fault streams advance with every broker step.
    fault_.digest_into(d);
    return d.value();
}

void
MemoryBroker::ckpt_save(Serializer &s) const
{
    s.put_u32(next_lease_id_);
    s.put_i64(stalled_until_);
    s.put_u64(stats_.leases_issued);
    s.put_u64(stats_.leases_granted);
    s.put_u64(stats_.grants_aborted);
    s.put_u64(stats_.revocations);
    s.put_u64(stats_.expiries);
    s.put_u64(stats_.grace_drain_pages);
    s.put_u64(stats_.clean_drains);
    s.put_u64(stats_.forced_kills);
    s.put_u64(stats_.donor_crash_revocations);
    s.put_u64(stats_.breaker_opens);
    fault_.ckpt_save(s);
    s.put_u64(breakers_.size());
    for (const CircuitBreaker &breaker : breakers_)
        breaker.ckpt_save(s);
    s.put_u64(leases_.size());
    for (const auto &[id, lease] : leases_)
        lease.ckpt_save(s);
    s.put_u64(stats_.leases_active);
    s.put_u64(stats_.open_breakers);
}

bool
MemoryBroker::ckpt_load(Deserializer &d)
{
    next_lease_id_ = d.get_u32();
    stalled_until_ = d.get_i64();
    stats_.leases_issued = d.get_u64();
    stats_.leases_granted = d.get_u64();
    stats_.grants_aborted = d.get_u64();
    stats_.revocations = d.get_u64();
    stats_.expiries = d.get_u64();
    stats_.grace_drain_pages = d.get_u64();
    stats_.clean_drains = d.get_u64();
    stats_.forced_kills = d.get_u64();
    stats_.donor_crash_revocations = d.get_u64();
    stats_.breaker_opens = d.get_u64();
    if (!d.ok() || next_lease_id_ == 0)
        return false;
    if (!fault_.ckpt_load(d))
        return false;
    std::uint64_t num_breakers = d.get_u64();
    if (!d.ok() || num_breakers != breakers_.size())
        return false;
    for (CircuitBreaker &breaker : breakers_) {
        if (!breaker.ckpt_load(d))
            return false;
    }
    leases_.clear();
    std::size_t num_leases = d.get_size(d.remaining() / 51, 51);
    LeaseId prev_id = 0;
    for (std::size_t i = 0; i < num_leases; ++i) {
        Lease lease;
        if (!lease.ckpt_load(d))
            return false;
        // Ids strictly increase in table order and stay below the
        // allocator; machine indices must name real machines.
        if ((i > 0 && lease.id <= prev_id) ||
            lease.id >= next_lease_id_ ||
            lease.donor >= num_machines_ ||
            lease.borrower >= num_machines_) {
            return false;
        }
        prev_id = lease.id;
        leases_.emplace(lease.id, lease);
    }
    stats_.leases_active = d.get_u64();
    stats_.open_breakers = d.get_u64();
    return d.ok();
}

MetricsSnapshot
MemoryBroker::telemetry_snapshot() const
{
    MetricsSnapshot snap;
    snap.counters["pool.leases_granted"] = stats_.leases_granted;
    snap.counters["pool.grants_aborted"] = stats_.grants_aborted;
    snap.counters["pool.revocations"] = stats_.revocations;
    snap.counters["pool.grace_drains"] = stats_.grace_drain_pages;
    snap.counters["pool.forced_kills"] = stats_.forced_kills;
    snap.counters["pool.broker_stalls"] = fault_.stats().broker_stalls;
    snap.counters["pool.broker_breaker_opens"] = stats_.breaker_opens;
    snap.gauges["pool.leases_active"] =
        static_cast<double>(stats_.leases_active);
    snap.gauges["pool.broker_breaker_state"] =
        static_cast<double>(stats_.open_breakers);
    return snap;
}

bool
MemoryBroker::ckpt_resolve(
    std::vector<std::unique_ptr<Machine>> &machines)
{
    if (machines.size() != num_machines_)
        return false;

    // Re-derive each donor's donation account from the lease table
    // (it is intentionally not serialized machine-side).
    std::vector<std::uint64_t> donated(num_machines_, 0);
    for (const auto &[id, lease] : leases_) {
        if (!lease.terminal())
            donated[lease.donor] += lease.pages;
    }
    for (std::uint32_t i = 0; i < num_machines_; ++i)
        machines[i]->set_donated_pages(donated[i]);

    // Cross-check borrower-side lease slots against the table: every
    // slot belongs to a live lease of that borrower with matching
    // capacity and drain state, and every live lease is backed by a
    // slot -- unless its donor died machine-side after the last
    // broker step (the unreconciled dead-lease window).
    for (std::uint32_t b = 0; b < num_machines_; ++b) {
        RemoteTier *remote = machines[b]->remote_tier();
        std::uint64_t slots_seen = 0;
        if (remote != nullptr) {
            for (const auto &slot : remote->lease_slots()) {
                auto it = leases_.find(slot.id);
                if (it == leases_.end())
                    return false;
                const Lease &lease = it->second;
                if (lease.borrower != b ||
                    lease.pages != slot.capacity ||
                    (lease.state != LeaseState::kActive &&
                     lease.state != LeaseState::kRevoking) ||
                    slot.draining !=
                        (lease.state == LeaseState::kRevoking)) {
                    return false;
                }
                ++slots_seen;
            }
        }
        std::uint64_t leases_expected = 0;
        for (const auto &[id, lease] : leases_) {
            if (lease.borrower != b ||
                (lease.state != LeaseState::kActive &&
                 lease.state != LeaseState::kRevoking)) {
                continue;
            }
            if (remote == nullptr)
                return false;
            const std::vector<std::uint32_t> &dead =
                remote->dead_leases();
            if (std::find(dead.begin(), dead.end(), id) != dead.end())
                continue;
            ++leases_expected;
        }
        if (leases_expected != slots_seen)
            return false;
    }

    // Re-apply the breaker gates (TierStack entries are not part of
    // the machine checkpoint wire).
    if (params_.breaker_enabled) {
        for (std::uint32_t i = 0; i < num_machines_; ++i) {
            machines[i]->set_pool_gate(breakers_[i].state() ==
                                       BreakerState::kOpen);
        }
    }
    return true;
}

}  // namespace sdfm

/**
 * @file
 * A revocable memory lease: the unit of account of the cluster
 * memory market (MemoryBroker).
 *
 * A borrower machine holds all of its remote capacity as leases
 * granted by the broker against a specific donor machine's free DRAM;
 * the static donor capacity the paper describes (and rejects) in
 * Section 2.1 is a lease that is never revoked. Every lease walks one
 * state machine:
 *
 *     kGranted ---------> kActive ----------> kRevoking
 *        |   (delivered)      (revocation /       |
 *        |                     natural expiry)    |
 *        v                                        v
 *     kRevoked <---------------------------- kRevoked / kExpired
 *     (grant aborted                         (drained or forcibly
 *      after retries)                         killed within grace)
 *
 * Terminal states carry the failure semantics: kExpired means the
 * lease ran its natural term and the borrower drained cleanly;
 * kRevoked covers donor-pressure revocation, aborted grants, and
 * donor crashes. Transitions are validated (invariant-gated) so an
 * illegal hop is caught at its source in checked builds.
 */

#ifndef SDFM_CLUSTER_LEASE_H
#define SDFM_CLUSTER_LEASE_H

#include <cstdint>

#include "ckpt/checkpoint.h"
#include "util/sim_time.h"

namespace sdfm {

/** Lease identifier, unique within one cluster's broker. */
using LeaseId = std::uint32_t;

/** Lease lifecycle states. */
enum class LeaseState : std::uint8_t
{
    kGranted,   ///< grant issued; delivery to the borrower in flight
    kActive,    ///< borrower holds the donor pages
    kRevoking,  ///< revocation delivered; borrower draining in grace
    kRevoked,   ///< terminal: revoked, aborted, or donor-crashed
    kExpired,   ///< terminal: natural expiry, drained cleanly
};

/** Human-readable state name (tables, logs, tests). */
const char *lease_state_name(LeaseState state);

/** True iff @p from -> @p to is a legal lifecycle transition. */
bool lease_transition_legal(LeaseState from, LeaseState to);

/** One lease. Plain data plus the validated transition method. */
struct Lease
{
    LeaseId id = 0;
    std::uint32_t donor = 0;     ///< donor machine index
    std::uint32_t borrower = 0;  ///< borrower machine index
    std::uint64_t pages = 0;     ///< granted capacity in pages
    LeaseState state = LeaseState::kGranted;

    /** Natural expiry time; set when the grant is delivered. */
    SimTime deadline = 0;

    /** Remaining grace periods while kRevoking. */
    std::uint64_t grace_remaining = 0;

    /** The pending revocation is a natural expiry (-> kExpired). */
    bool expiry = false;

    /** A revocation was decided but its message was lost; redelivery
     *  is retried next period. */
    bool revoke_pending = false;

    /** Grant deliveries lost so far (bounded retry). */
    std::uint32_t grant_retries = 0;

    /** Periods until the next grant delivery attempt (exponential
     *  backoff after each lost delivery). */
    std::uint64_t grant_backoff_remaining = 0;

    bool
    terminal() const
    {
        return state == LeaseState::kRevoked ||
               state == LeaseState::kExpired;
    }

    /** Move to @p to; the transition must be legal
     *  (SDFM_INVARIANT-gated, caught in checked builds). */
    void transition(LeaseState to);

    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);

    /** Order-sensitive digest over every field. */
    std::uint64_t state_digest() const;
};

}  // namespace sdfm

#endif  // SDFM_CLUSTER_LEASE_H

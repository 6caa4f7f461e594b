/**
 * @file
 * The cluster memory market: a lease-based pooling broker.
 *
 * Section 2.1 of the paper rejects remote memory partly because a
 * donor machine's failure expands every borrower's failure domain.
 * Every remote tier in a cluster gets its capacity here: borrower
 * machines hold leases granted by a per-cluster MemoryBroker against
 * specific donors' free DRAM. A static donor pool is the degenerate
 * market -- a lease term longer than the run and no donor reserve, so
 * leases are never revoked. The mitigation the paper alludes to but
 * does not build is the revocable market: donors keep a reserve; when
 * their own demand grows, the broker revokes leases (newest first)
 * and the borrower drains pages back to its local tiers within a
 * bounded grace window. Only an actual donor crash -- or a borrower
 * that cannot drain in time -- still kills jobs.
 *
 * The broker's control plane is failure-modelled end to end: grant
 * deliveries and revocation messages can be lost (bounded retry with
 * exponential backoff; redelivery), and the broker itself can stall.
 * Each machine's view of the control plane feeds a per-machine
 * circuit breaker; while a machine's breaker is open its remote tier
 * is gated to zero budget and demotions fall through the existing
 * route table to shallower tiers (NVM/zswap). Everything is
 * deterministic: the broker steps machines in index order, leases in
 * id order, and draws faults from its own seeded injector, so serial
 * and parallel fleet stepping agree digest for digest.
 */

#ifndef SDFM_CLUSTER_MEM_POOL_H
#define SDFM_CLUSTER_MEM_POOL_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cluster/lease.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "node/machine.h"
#include "telemetry/snapshot.h"

namespace sdfm {

/** Memory-pooling configuration (part of ClusterConfig). */
struct MemPoolParams
{
    /** Master switch; false (the default) leaves the cluster without
     *  a broker. Required exactly when the machines have a remote
     *  tier: the broker is its only source of capacity. */
    bool enabled = false;

    /** Pages per lease (the market's allocation unit). */
    std::uint64_t lease_pages = 4096;

    /** Concurrent (non-terminal) leases one borrower may hold. */
    std::uint32_t max_leases_per_borrower = 4;

    /** Natural lease term, in control periods from delivery. A term
     *  that ends past the representable end of time never expires. */
    std::uint64_t lease_term_periods = 60;

    /** Grace periods a borrower gets to drain a revoked lease before
     *  the broker force-kills the owning jobs. */
    std::uint64_t grace_periods = 3;

    /** Pages a borrower drains from a revoking lease per period. */
    std::uint64_t drain_pages_per_period = 2048;

    /** Fraction of DRAM a donor keeps free; dipping below it is the
     *  donor-pressure signal that triggers revocation (0: never). */
    double donor_reserve_frac = 0.10;

    /** Lost grant deliveries tolerated before the grant is aborted. */
    std::uint32_t max_grant_retries = 3;

    /** Base of the exponential grant-redelivery backoff, in periods
     *  (retry k waits base << min(k-1, 6)). */
    std::uint64_t grant_backoff_base = 1;

    /** Per-machine control-plane breaker over broker reachability. */
    bool breaker_enabled = true;
    CircuitBreakerParams breaker;

    /** The broker's own fault plane (lease-grant loss, revocation
     *  loss, broker stalls); per-machine injectors never draw these
     *  kinds. */
    FaultConfig fault;
};

/**
 * A static donor pool as a lease market: leases of @p lease_pages
 * whose term outlasts any run, from donors that keep no reserve, so
 * the broker never revokes one and only a donor crash takes one back.
 */
MemPoolParams permanent_lease_pool(std::uint64_t lease_pages,
                                   std::uint32_t leases_per_borrower);

/** Broker lifetime counters; the last two are the levels sampled at
 *  the end of the last broker step (telemetry only, not digested). */
struct MemPoolStats
{
    std::uint64_t leases_issued = 0;    ///< matches made (kGranted)
    std::uint64_t leases_granted = 0;   ///< deliveries (-> kActive)
    std::uint64_t grants_aborted = 0;   ///< retries exhausted
    std::uint64_t revocations = 0;      ///< delivered revocations
    std::uint64_t expiries = 0;         ///< of those, natural expiry
    std::uint64_t grace_drain_pages = 0;
    std::uint64_t clean_drains = 0;     ///< leases drained in grace
    std::uint64_t forced_kills = 0;     ///< jobs killed at grace end
    std::uint64_t donor_crash_revocations = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t leases_active = 0;  ///< active or revoking leases
    std::uint64_t open_breakers = 0;  ///< machines gated off the pool
};

/** Result of one broker step. */
struct BrokerStepResult
{
    /** Jobs killed by grace-window expiry (the cluster reschedules
     *  them exactly like OOM evictions). */
    std::vector<JobId> killed;

    /** The broker was stalled for this whole period. */
    bool stalled = false;
};

/**
 * The per-cluster memory broker. Owned by Cluster and stepped once
 * per control period *before* the machines, so grants and revocations
 * issued in step N are visible to demotion routing in step N.
 */
class MemoryBroker
{
  public:
    MemoryBroker(const MemPoolParams &params, std::uint64_t seed,
                 std::uint32_t num_machines);

    /**
     * One control period of the memory market, in fixed phase order:
     * prune terminal leases, draw faults, reconcile machine-side
     * donor crashes, deliver pending grants (bounded retry), initiate
     * natural-expiry and donor-pressure revocations (newest lease
     * first), run grace-window drains, match borrowers to donors, and
     * feed each machine's control-plane health into its breaker.
     */
    BrokerStepResult
    step(SimTime now, SimTime period,
         std::vector<std::unique_ptr<Machine>> &machines);

    /** The lease table, id-ordered. Terminal leases linger until the
     *  start of the next step (inspectable post-step). */
    const std::map<LeaseId, Lease> &leases() const { return leases_; }

    const MemPoolStats &stats() const { return stats_; }
    const FaultInjector &fault_injector() const { return fault_; }
    const CircuitBreaker &breaker(std::uint32_t machine) const
    {
        return breakers_[machine];
    }

    /** The pool.* metrics, read from the stats and the broker's
     *  fault injector; Cluster merges them into its rollup. */
    MetricsSnapshot telemetry_snapshot() const;

    /**
     * Broker consistency check (SDFM_INVARIANT tier): every
     * non-terminal lease is well-formed (donor != borrower, pages >
     * 0, in-range machine indices), per-donor outstanding lease pages
     * equal the donor's donated_pages(), and only revoking leases
     * have draining slots. A no-op unless the build defines
     * SDFM_CHECK_INVARIANTS.
     */
    void check_invariants(
        const std::vector<std::unique_ptr<Machine>> &machines) const;

    /** Order-sensitive digest over the full lease table, the breaker
     *  states, the stall window, and the counters. */
    std::uint64_t state_digest(
        const std::vector<std::unique_ptr<Machine>> &machines) const;

    /**
     * Checkpointable-shaped snapshot: the lease-id allocator, the
     * stall window, the counters, the fault injector, every
     * per-machine breaker, the full lease table in id order, and the
     * sampled pool.* levels. Params are not stored (they come from
     * the config). ckpt_load() parses and validates the table
     * (well-formed leases, strictly increasing ids below the
     * allocator); ckpt_resolve() then rebinds the restored table to
     * the restored machines -- re-deriving each donor's
     * donated_pages(), cross-checking borrower-side lease slots
     * against the table, and re-applying breaker gates -- and fails
     * on any disagreement.
     */
    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);
    bool ckpt_resolve(
        std::vector<std::unique_ptr<Machine>> &machines);

  private:
    /** Deliver (or lose) one revocation for @p lease. */
    void attempt_revocation(
        Lease &lease, bool expiry,
        std::vector<std::unique_ptr<Machine>> &machines,
        std::vector<bool> &cp_failure);

    /** Non-terminal leases currently held by @p borrower. */
    std::uint32_t borrower_lease_count(std::uint32_t borrower) const;

    // sdfm-state: config(fixed at construction; ckpt_load validates
    // wire compatibility against it, the fingerprint covers the rest)
    MemPoolParams params_;
    // sdfm-state: config(cluster topology input, fixed at
    // construction; ckpt_load cross-checks the wire against it)
    std::uint32_t num_machines_;
    std::map<LeaseId, Lease> leases_;
    LeaseId next_lease_id_ = 1;
    SimTime stalled_until_ = 0;
    /** Lost-delivery budgets for the current step (from this step's
     *  fault events). Zero at any step boundary, which is where
     *  checkpoints and digests are taken. */
    // sdfm-state: derived(reset from the step's fault events at the
    // top of every broker step; zero at every ckpt/digest boundary)
    std::uint32_t grant_losses_ = 0;
    // sdfm-state: derived(reset from the step's fault events at the
    // top of every broker step; zero at every ckpt/digest boundary)
    std::uint32_t revocation_losses_ = 0;
    std::vector<CircuitBreaker> breakers_;
    FaultInjector fault_;
    MemPoolStats stats_;
};

}  // namespace sdfm

#endif  // SDFM_CLUSTER_MEM_POOL_H

// Probe: kill/resume soak for the checkpoint/restore path.
//
// Two fleets run from one config. The reference fleet runs the full
// horizon uninterrupted, recording state_digest() after every step.
// The victim fleet runs the same horizon under Bernoulli fault
// injection while the harness checkpoints it at seeded random
// intervals and "crashes" it at seeded random points: the whole
// FarMemorySystem object is destroyed, a fresh fleet is built from
// the config, and the last checkpoint is restored into it -- exactly
// a process kill plus a cold-start resume. After every step (and
// immediately after every resume) the victim's digest must equal the
// reference digest for the same simulated step; any disagreement
// means restore lost or invented trajectory state.
//
// Exits 0 only if every digest matched AND at least --min-crashes
// kill/resume cycles actually happened.
//
// Usage: soak_probe [--minutes N] [--clusters N] [--seed S]
//                   [--tiers 1|2|3] [--pooling] [--min-crashes N]
//                   [--ckpt PATH]
//
// --tiers picks the victim's memory stack: 1 = zswap only, 2 = one
// remote tier (default), 3 = an NVM + remote stack so kill/resume
// covers the per-tier checkpoint sections at every depth. A remote
// tier holds leases from the cluster's memory broker, whose lease
// table and breaker bank ride in their own checkpoint section;
// without --pooling the leases are permanent (a static donor pool:
// never revoked, lost only with their donor).
//
// --pooling (tiers 2 and 3 only) makes the leases revocable -- short
// terms, a donor reserve, grace-window drains -- and fires the broker
// fault kinds (grant loss, revocation loss, broker stall) alongside
// the machine fault plane, so kill/resume lands mid-revocation and
// mid-grant.
//
// --rollout enables the staged-config-rollout plane with the config
// push fault kinds (push loss, stall, split brain) lit, and proposes
// a mild (K, S) candidate at a fixed early step in both the reference
// and the victim loops: the campaign's cohort draws, guardrail
// windows, push ledger, and retry queue all ride the "rollout"
// checkpoint section, so kill/resume lands mid-baseline, mid-stage,
// and mid-retry, and any state the section forgets shows up as a
// digest mismatch. Off by default; with the flag absent the run is
// bit-identical to the pre-rollout probe.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "core/far_memory_system.h"
#include "util/rng.h"

using namespace sdfm;

namespace {

/** Step (1-based) at which --rollout proposes its candidate. */
constexpr std::uint64_t kProposeStep = 6;

/** The --rollout candidate: a mild, plausibly-good (K, S). */
SloConfig
rollout_candidate(const FleetConfig &config)
{
    SloConfig slo = config.cluster.machine.slo;
    slo.percentile_k = 96.5;
    slo.enable_delay = 4 * kMinute;
    return slo;
}

FleetConfig
soak_config(std::uint32_t num_clusters, std::uint64_t seed, int tiers,
            bool pooling, bool rollout)
{
    // Small remote-tier fleet with the full fault plane lit up, so
    // checkpoints cover tiers, breakers, and injector streams -- the
    // states most likely to be forgotten by a serialization path.
    FleetConfig config;
    config.seed = seed;
    config.num_clusters = num_clusters;
    config.cluster.mix = typical_fleet_mix();
    config.cluster.num_machines = 4;
    config.cluster.machine.dram_pages = 16 * 1024;
    config.cluster.machine.slo_breaker_enabled = true;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.breaker_enabled = true;
    if (tiers == 2) {
        remote.band_hi = 4.0;
        config.cluster.machine.tiers = {remote};
    } else if (tiers == 3) {
        TierConfig nvm;
        nvm.kind = TierKind::kNvm;
        nvm.nvm.capacity_pages = 1ull << 16;
        nvm.band_lo = 1.0;
        nvm.band_hi = 2.0;
        nvm.breaker_enabled = true;
        remote.band_lo = 2.0;
        config.cluster.machine.tiers = {nvm, remote};
    }

    FaultConfig &fault = config.cluster.machine.fault;
    fault.enabled = true;
    fault.donor_failure_prob = 0.05;
    fault.zswap_corruption_prob = 0.2;
    fault.corruption_batch = 4;
    fault.remote_degrade_prob = 0.05;
    fault.agent_crash_prob = 0.01;

    if (tiers > 1) {
        // Scaled to the 16k-page machines above: leases small enough
        // that several circulate per borrower.
        config.cluster.pool = permanent_lease_pool(1024, 2);
    }
    if (pooling) {
        // Terms short enough that natural expiry and donor-pressure
        // revocation both happen inside a 30-minute soak.
        MemPoolParams &pool = config.cluster.pool;
        pool.lease_term_periods = 20;
        pool.grace_periods = 2;
        pool.drain_pages_per_period = 512;
        pool.donor_reserve_frac = 0.08;
        pool.fault.enabled = true;
        pool.fault.lease_grant_loss_prob = 0.05;
        pool.fault.revocation_loss_prob = 0.05;
        pool.fault.broker_stall_prob = 0.02;
    }

    if (rollout) {
        RolloutParams &ro = config.rollout;
        ro.enabled = true;
        ro.seed = seed ^ 0x5107BAD5ULL;
        ro.stage_fractions = {0.25, 0.5, 1.0};
        ro.baseline_periods = 5;
        ro.observe_periods = 8;
        // The push plane is hostile so checkpoints land mid-retry and
        // mid-reconcile, not just between clean stages.
        ro.fault.enabled = true;
        ro.fault.config_push_loss_prob = 0.25;
        ro.fault.config_push_stall_prob = 0.05;
        ro.fault.config_split_brain_prob = 0.15;
    }
    return config;
}

std::uint64_t
steps_done(const FarMemorySystem &system, const FleetConfig &config)
{
    return static_cast<std::uint64_t>(
        (system.now() - config.start_time) /
        config.cluster.machine.control_period);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::uint64_t minutes = 45;
    std::uint32_t num_clusters = 2;
    std::uint64_t seed = 1;
    int tiers = 2;
    bool pooling = false;
    bool rollout = false;
    std::uint64_t min_crashes = 3;
    const char *ckpt_path = "soak_probe.ckpt";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--minutes") == 0 && i + 1 < argc) {
            minutes = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--clusters") == 0 &&
                   i + 1 < argc) {
            num_clusters =
                static_cast<std::uint32_t>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--tiers") == 0 && i + 1 < argc) {
            tiers = std::atoi(argv[++i]);
            if (tiers < 1 || tiers > 3) {
                std::fprintf(stderr, "--tiers must be 1, 2, or 3\n");
                return 1;
            }
        } else if (std::strcmp(argv[i], "--pooling") == 0) {
            pooling = true;
        } else if (std::strcmp(argv[i], "--rollout") == 0) {
            rollout = true;
        } else if (std::strcmp(argv[i], "--min-crashes") == 0 &&
                   i + 1 < argc) {
            min_crashes =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--ckpt") == 0 && i + 1 < argc) {
            ckpt_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--minutes N] [--clusters N] "
                         "[--seed S] [--tiers 1|2|3] [--pooling] "
                         "[--rollout] [--min-crashes N] [--ckpt PATH]\n",
                         argv[0]);
            return 1;
        }
    }

    if (pooling && tiers == 1) {
        std::fprintf(stderr,
                     "--pooling needs a remote tier (--tiers 2 or 3)\n");
        return 1;
    }

    FleetConfig config =
        soak_config(num_clusters, seed, tiers, pooling, rollout);

    // Reference trajectory: digest after populate() (index 0) and
    // after each of the N steps (indices 1..N). The rollout proposal
    // lands immediately after step kProposeStep, so reference index
    // kProposeStep already includes its cohort draws.
    std::vector<std::uint64_t> reference;
    reference.reserve(minutes + 1);
    {
        FarMemorySystem ref(config);
        ref.populate();
        reference.push_back(ref.state_digest());
        for (std::uint64_t i = 0; i < minutes; ++i) {
            ref.step();
            if (rollout && i + 1 == kProposeStep)
                ref.propose_slo(rollout_candidate(config));
            reference.push_back(ref.state_digest());
        }
    }

    // The harness's own randomness is a separate stream: it decides
    // *when* to checkpoint and crash, and must not perturb the fleet.
    Rng harness(seed ^ 0x50A4B07EULL);
    auto next_ckpt_gap = [&] { return 3 + harness.next_below(6); };
    auto next_crash_gap = [&] { return 8 + harness.next_below(8); };

    auto victim = std::make_unique<FarMemorySystem>(config);
    victim->populate();

    std::uint64_t checkpoints = 0;
    std::uint64_t crashes = 0;
    std::uint64_t replayed_steps = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t high_water_step = 0;
    bool have_ckpt = false;
    std::uint64_t until_ckpt = next_ckpt_gap();
    std::uint64_t until_crash = next_crash_gap();

    auto check = [&](const char *what) {
        std::uint64_t step = steps_done(*victim, config);
        if (victim->state_digest() != reference.at(step)) {
            ++mismatches;
            std::fprintf(stderr,
                         "DIGEST MISMATCH %s at step %llu\n", what,
                         static_cast<unsigned long long>(step));
        }
    };

    check("after populate");
    while (steps_done(*victim, config) < minutes) {
        victim->step();
        std::uint64_t step = steps_done(*victim, config);
        if (step <= high_water_step)
            ++replayed_steps;
        else
            high_water_step = step;
        // Re-propose on replay only if the restored checkpoint predates
        // the proposal (state still kIdle); otherwise the rollout is
        // already in flight inside the restored state.
        if (rollout && step == kProposeStep &&
            victim->rollout()->state() == RolloutState::kIdle)
            victim->propose_slo(rollout_candidate(config));
        check("after step");

        if (--until_ckpt == 0) {
            until_ckpt = next_ckpt_gap();
            CkptStatus status = victim->checkpoint(ckpt_path);
            if (status != CkptStatus::kOk) {
                std::fprintf(stderr, "checkpoint failed: %s\n",
                             to_string(status));
                return 1;
            }
            ++checkpoints;
            have_ckpt = true;
        }

        if (have_ckpt && --until_crash == 0) {
            until_crash = next_crash_gap();
            // Kill: drop the whole fleet. Resume: cold-build a fresh
            // one from the config and restore the last checkpoint.
            victim.reset();
            victim = std::make_unique<FarMemorySystem>(config);
            CkptStatus status = victim->restore(ckpt_path);
            if (status != CkptStatus::kOk) {
                std::fprintf(stderr, "restore failed: %s\n",
                             to_string(status));
                return 1;
            }
            ++crashes;
            check("after resume");
        }
    }

    std::remove(ckpt_path);

    std::printf("soak: %llu steps (+%llu replayed after resume), "
                "%llu checkpoints, %llu kill/resume cycles, "
                "%llu digest mismatches (seed %llu)\n",
                static_cast<unsigned long long>(minutes),
                static_cast<unsigned long long>(replayed_steps),
                static_cast<unsigned long long>(checkpoints),
                static_cast<unsigned long long>(crashes),
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(seed));
    if (tiers > 1) {
        // Evidence the lease plane was actually exercised across the
        // kill/resume cycles, not just configured.
        FleetFaultReport report = victim->fault_report();
        std::printf("pool: %llu leases granted, %llu revocations, "
                    "%llu grace drains, %llu forced kills, "
                    "%llu broker stalls\n",
                    static_cast<unsigned long long>(
                        report.pool_leases_granted),
                    static_cast<unsigned long long>(
                        report.pool_revocations),
                    static_cast<unsigned long long>(
                        report.pool_grace_drain_pages),
                    static_cast<unsigned long long>(
                        report.pool_forced_kills),
                    static_cast<unsigned long long>(
                        report.pool_broker_stalls));
        std::printf("remote tier: %llu pages stored\n",
                    static_cast<unsigned long long>(
                        victim->fleet_telemetry().counter_or_zero(
                            "tier.remote.demotions")));
    }
    if (mismatches != 0) {
        std::printf("FAIL: restore diverged from the reference run\n");
        return 1;
    }
    if (crashes < min_crashes) {
        std::printf("FAIL: only %llu kill/resume cycles (need %llu); "
                    "raise --minutes\n",
                    static_cast<unsigned long long>(crashes),
                    static_cast<unsigned long long>(min_crashes));
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}

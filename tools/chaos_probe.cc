// Probe: run a short fleet under a canned fault schedule and print
// the recovery telemetry table.
//
// This is the fault plane's end-to-end smoke test: donor failures,
// zswap corruption, remote-tier degradation windows, and node-agent
// crashes all fire from one seeded injector while the step loop keeps
// running; the table at the end is the FleetFaultReport (every row is
// also a counter in metrics_dump frames). With every probability at
// zero the table is all zeros and the run is bit-identical to a
// fault-free fleet.
//
// Usage: chaos_probe [--minutes N] [--clusters N] [--seed S]
//                    [--tiers 1|2|3] [--pooling] [--rollout]
//                    [--rollout-bad] [--donor-fph F] [--corrupt P]
//                    [--degrade P] [--agent-crash P]
//
// --tiers picks the memory stack: 1 = zswap only, 2 = one remote
// tier (default), 3 = an NVM + remote stack so the fault plane fires
// against every depth at once. A remote tier holds leases from the
// cluster's memory broker; without --pooling they are permanent (a
// static donor pool: never revoked, lost only with their donor), and
// the table ends with the pool.* rows and the pages the remote tier
// stored.
//
// --pooling (tiers 2 and 3 only) makes the leases revocable -- short
// terms, a donor reserve, grace-window drains -- and lights up the
// broker fault kinds (lease-grant loss, revocation-message loss,
// broker stalls).
//
// --rollout exercises the staged-config-rollout good path end to end:
// the rollout plane is enabled with every config-push fault kind lit
// (push loss, push stall, split brain) and memory-bomb antagonist
// jobs spliced into the fleet mix (on 48 Ki-page machines, which can
// host a memory bomb as a cluster's first job), a mild (K, S)
// candidate is proposed after a warmup third of the run, and the
// probe exits 1 unless the campaign survives the hostile push plane
// and reaches kDeployed. The antagonists matter: guardrails must tell
// a bad *workload* (breakers trip fleet-wide, config stays) from a
// bad *config* (canary regresses against its own baseline).
//
// --rollout-bad exercises the guardrail/rollback path: the machine
// fault plane is off, job churn is zero and, whatever --tiers says,
// the stack is one NVM tier with no remote tier (leases would couple
// donors to borrowers), so machines are fully independent. Two
// identically-seeded fleets run side by side, and the GP-Bandit
// autotuner is run over the fleet's own telemetry with
// deliberately rigged search ranges (K floor in the 50s, S capped at
// two minutes, feasibility margin wide open) so it returns an
// SLO-violating config. That config is proposed on one fleet only;
// the probe exits 1 unless (a) the campaign is caught at the canary
// stage and automatically rolled back with zero deployments, and
// (b) every non-canary machine's state digest is bit-identical to
// the fleet that never proposed -- the blast radius of a bad config
// is exactly the canary cohort.
//
// Both rollout modes are off by default; with the flags absent the
// run is bit-identical to the pre-rollout probe.
//
// Every mode exits 1 when populate() leaves a cluster without a job.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>

#include "autotune/autotuner.h"
#include "core/far_memory_system.h"
#include "probe_args.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace sdfm;

namespace {

/**
 * False, after naming them on stderr, when populate() left any
 * cluster without a job: an empty cluster's machines have nothing to
 * fault, reclaim or canary, so its share of the table means nothing.
 */
bool
every_cluster_placed_jobs(const FarMemorySystem &system)
{
    bool ok = true;
    for (const auto &cluster : system.clusters()) {
        if (cluster->num_jobs() == 0) {
            std::fprintf(stderr, "FAIL: cluster %u placed no job\n",
                         cluster->cluster_id());
            ok = false;
        }
    }
    return ok;
}

/** Rollout plumbing shared by both rollout modes. */
void
enable_rollout(FleetConfig &config, std::uint64_t seed)
{
    RolloutParams &rollout = config.rollout;
    rollout.enabled = true;
    rollout.seed = seed ^ 0x5107BAD5ULL;
    rollout.stage_fractions = {0.25, 1.0};
    rollout.baseline_periods = 5;
    rollout.observe_periods = 8;
}

void
print_rollout_rows(TablePrinter &table, const FleetFaultReport &report)
{
    table.add_row({"rollout pushes delivered", fmt_int(
        static_cast<long long>(report.rollout_pushes_delivered))});
    table.add_row({"rollout pushes lost", fmt_int(
        static_cast<long long>(report.rollout_pushes_lost))});
    table.add_row({"rollout pushes aborted", fmt_int(
        static_cast<long long>(report.rollout_pushes_aborted))});
    table.add_row({"rollout stall periods", fmt_int(
        static_cast<long long>(report.rollout_stall_periods))});
    table.add_row({"rollout split brains", fmt_int(
        static_cast<long long>(report.rollout_split_brains))});
    table.add_row({"rollout guardrail breaches", fmt_int(
        static_cast<long long>(report.rollout_guardrail_breaches))});
    table.add_row({"rollout deployments", fmt_int(
        static_cast<long long>(report.rollout_deployments))});
    table.add_row({"rollout rollbacks", fmt_int(
        static_cast<long long>(report.rollout_rollbacks))});
}

/**
 * The --rollout-bad scenario. Returns the process exit code.
 */
int
run_rollout_bad(FleetConfig config, SimTime minutes, std::uint64_t seed)
{
    // Machines must be fully independent for the blast-radius check:
    // no machine faults (donor selection couples machines), no churn
    // (placement of a replacement job depends on every machine's free
    // DRAM), no remote tier (its leases couple donors to borrowers).
    // A roomy NVM tier claims the remote tier's [T, 4T) band instead,
    // so zswap keeps only the deep cold and the canaries' promotion
    // tail has a quiet baseline to regress against.
    config.cluster.machine.fault = FaultConfig{};
    config.cluster.churn_per_hour = 0.0;
    TierConfig nvm;
    nvm.kind = TierKind::kNvm;
    nvm.nvm.capacity_pages = 1ull << 20;
    nvm.band_hi = 4.0;
    nvm.breaker_enabled = true;
    config.cluster.machine.tiers = {nvm};
    // Every machine must host jobs: the guardrails can only judge a
    // canary by its own workload's telemetry, and the chaos fleet's
    // small machines leave some machines empty -- an empty canary can
    // vouch for any config. Bigger machines, well packed, give every
    // cohort draw real signal.
    config.cluster.machine.dram_pages = 48 * 1024;
    config.cluster.target_utilization = 0.9;
    enable_rollout(config, seed);
    // Production-posture guardrails: with no fault noise and no churn
    // the baseline is quiet, so a canary regressing its promotion
    // tail by more than 20% against the pre-rollout fleet is a config
    // problem, not weather. The window is generous; a breach fires
    // the period it is seen, so an early catch does not wait it out.
    config.rollout.guardrails.promo_headroom = 1.2;
    config.rollout.observe_periods = 14;

    FarMemorySystem tuned(config);    // receives the bad proposal
    FarMemorySystem control(config);  // never proposes
    tuned.populate();
    control.populate();
    if (!every_cluster_placed_jobs(tuned))
        return 1;

    // Phase 1: identical warmup; the tuned fleet's telemetry feeds
    // the autotuner.
    SimTime warmup = minutes / 3;
    tuned.run(warmup * kMinute);
    control.run(warmup * kMinute);

    // The GP-Bandit path with a rigged search space: K far below the
    // production floor and S near zero are exactly the configurations
    // the offline model's granularity cannot vouch for, and the
    // wide-open feasibility margin disables the model's own safety
    // net -- so the search returns the aggressive corner.
    std::vector<JobTrace> traces = tuned.merged_trace().by_job();
    ThreadPool pool;
    FarMemoryModel model(&pool);
    AutotunerConfig rigged;
    rigged.iterations = 12;
    rigged.initial_random = 4;
    rigged.k_min = 50.0;
    rigged.k_max = 55.0;
    rigged.s_min = kMinute;
    rigged.s_max = 2 * kMinute;
    rigged.feasibility_margin = 1e9;
    rigged.seed = seed ^ 0xBADC0F16ULL;
    Autotuner tuner(rigged, config.cluster.machine.slo, &model, &traces);
    SloConfig bad = tuner.run();
    std::printf("autotuner (rigged): K %.1f -> %.1f, S %llds -> %llds "
                "(%zu trials)\n",
                config.cluster.machine.slo.percentile_k, bad.percentile_k,
                static_cast<long long>(
                    config.cluster.machine.slo.enable_delay),
                static_cast<long long>(bad.enable_delay),
                tuner.history().size());

    if (!tuned.propose_slo(bad)) {
        std::printf("FAIL: proposal rejected\n");
        return 1;
    }
    tuned.run((minutes - warmup) * kMinute);
    control.run((minutes - warmup) * kMinute);

    const ConfigRollout *rollout = tuned.rollout();
    const RolloutStats &stats = rollout->stats();
    std::printf("rollout: state %s, %llu guardrail breaches, "
                "%llu rollbacks, %llu deployments\n",
                rollout_state_name(rollout->state()),
                static_cast<unsigned long long>(stats.guardrail_breaches),
                static_cast<unsigned long long>(stats.rollbacks),
                static_cast<unsigned long long>(stats.deployments));

    // Per-machine blast radius: the canary cohort (every machine that
    // saw a config epoch) may diverge; nobody else is allowed to.
    std::uint64_t canaries = 0;
    std::uint64_t bystanders = 0;
    std::uint64_t divergent = 0;
    for (std::size_t c = 0; c < tuned.clusters().size(); ++c) {
        const auto &tuned_machines = tuned.clusters()[c]->machines();
        const auto &control_machines = control.clusters()[c]->machines();
        for (std::size_t m = 0; m < tuned_machines.size(); ++m) {
            if (tuned_machines[m]->agent().config_epoch() != 0) {
                ++canaries;
                continue;
            }
            ++bystanders;
            if (tuned_machines[m]->state_digest() !=
                control_machines[m]->state_digest())
                ++divergent;
        }
    }
    std::printf("blast radius: %llu canaries, %llu bystanders, "
                "%llu divergent bystander digests\n",
                static_cast<unsigned long long>(canaries),
                static_cast<unsigned long long>(bystanders),
                static_cast<unsigned long long>(divergent));

    if (rollout->state() != RolloutState::kRolledBack ||
        stats.deployments != 0 || stats.rollbacks != 1 ||
        stats.guardrail_breaches == 0 || stats.stages_advanced != 0) {
        std::printf("FAIL: bad config was not caught and rolled back "
                    "at the canary stage\n");
        return 1;
    }
    if (canaries == 0 || divergent != 0) {
        std::printf("FAIL: bad config leaked beyond the canary "
                    "cohort\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::uint64_t minutes_arg = 60;
    std::uint64_t clusters_arg = 2;
    std::uint64_t seed = 1;
    std::uint64_t tiers = 2;
    bool pooling = false;
    bool rollout_good = false;
    bool rollout_bad = false;
    double donor_fph = 6.0;     // donor failures per machine-hour
    double corrupt_prob = 0.2;  // zswap corruption events per step
    double degrade_prob = 0.05; // remote degradation windows per step
    double crash_prob = 0.01;   // agent crashes per step
    for (int i = 1; i < argc; ++i) {
        bool ok = true;
        if (std::strcmp(argv[i], "--minutes") == 0 && i + 1 < argc) {
            ok = parse_count(argv[++i], 1,
                             static_cast<std::uint64_t>(
                                 std::numeric_limits<SimTime>::max() /
                                 kMinute),
                             &minutes_arg);
        } else if (std::strcmp(argv[i], "--clusters") == 0 &&
                   i + 1 < argc) {
            ok = parse_count(argv[++i], 1,
                             std::numeric_limits<std::uint32_t>::max(),
                             &clusters_arg);
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            ok = parse_count(argv[++i], 0,
                             std::numeric_limits<std::uint64_t>::max(),
                             &seed);
        } else if (std::strcmp(argv[i], "--tiers") == 0 && i + 1 < argc) {
            if (!parse_count(argv[++i], 1, 3, &tiers)) {
                std::fprintf(stderr, "--tiers must be 1, 2, or 3\n");
                return 1;
            }
        } else if (std::strcmp(argv[i], "--pooling") == 0) {
            pooling = true;
        } else if (std::strcmp(argv[i], "--rollout") == 0) {
            rollout_good = true;
        } else if (std::strcmp(argv[i], "--rollout-bad") == 0) {
            rollout_bad = true;
        } else if (std::strcmp(argv[i], "--donor-fph") == 0 &&
                   i + 1 < argc) {
            donor_fph = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--corrupt") == 0 &&
                   i + 1 < argc) {
            corrupt_prob = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--degrade") == 0 &&
                   i + 1 < argc) {
            degrade_prob = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--agent-crash") == 0 &&
                   i + 1 < argc) {
            crash_prob = std::atof(argv[++i]);
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: %s [--minutes N] [--clusters N] "
                         "[--seed S] [--tiers 1|2|3] [--pooling] "
                         "[--rollout] [--rollout-bad] "
                         "[--donor-fph F] [--corrupt P] [--degrade P] "
                         "[--agent-crash P]   (N >= 1)\n",
                         argv[0]);
            return 1;
        }
    }
    const auto minutes = static_cast<SimTime>(minutes_arg);
    const auto num_clusters = static_cast<std::uint32_t>(clusters_arg);

    if (pooling && tiers == 1) {
        std::fprintf(stderr,
                     "--pooling needs a remote tier (--tiers 2 or 3)\n");
        return 1;
    }
    if (rollout_good && rollout_bad) {
        std::fprintf(stderr,
                     "--rollout and --rollout-bad are exclusive\n");
        return 1;
    }
    if (rollout_bad && pooling) {
        std::fprintf(stderr,
                     "--rollout-bad needs independent machines "
                     "(no --pooling)\n");
        return 1;
    }

    // Small fleet with a remote tier so donor failures and tier
    // degradation have something to break; the tier and SLO breakers
    // are on so the degradation machinery (not just the injector) is
    // exercised.
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
        // One remote tier for the ages in [T, 4T).
        remote.band_hi = 4.0;
        config.cluster.machine.tiers = {remote};
    } else if (tiers == 3) {
        // NVM takes the moderately cold band, remote memory everything
        // colder, zswap the rejects.
        TierConfig nvm;
        nvm.kind = TierKind::kNvm;
        nvm.nvm.capacity_pages = 1ull << 16;
        nvm.band_lo = 1.0;
        nvm.band_hi = 2.0;
        nvm.breaker_enabled = true;
        remote.band_lo = 2.0;
        config.cluster.machine.tiers = {nvm, remote};
    }

    if (rollout_bad)
        return run_rollout_bad(config, minutes, seed);

    FaultConfig &fault = config.cluster.machine.fault;
    fault.enabled = true;
    fault.donor_failure_prob = donor_fph / 60.0;  // per control period
    fault.zswap_corruption_prob = corrupt_prob;
    fault.corruption_batch = 4;
    fault.remote_degrade_prob = degrade_prob;
    fault.agent_crash_prob = crash_prob;

    if (rollout_good) {
        // Antagonists: a few memory bombs in the mix, so the rollout
        // has to hold its guardrails against workload-induced noise
        // that is present in the baseline too.
        config.cluster.mix.profiles.push_back(memory_bomb_profile());
        config.cluster.mix.weights.push_back(0.06);
        // A memory bomb starts at up to 24 Ki pages, more than a
        // 16 Ki-page machine holds, so a cluster that draws one first
        // would place no job. --rollout-bad's 48 Ki pages take any.
        config.cluster.machine.dram_pages = 48 * 1024;
        enable_rollout(config, seed);
        RolloutParams &rollout = config.rollout;
        rollout.fault.enabled = true;
        rollout.fault.config_push_loss_prob = 0.35;
        rollout.fault.config_push_stall_prob = 0.06;
        rollout.fault.config_split_brain_prob = 0.20;
    }

    if (tiers > 1) {
        // Leases of 1/16 of a machine: 1,024 pages on the 16k-page
        // machines above.
        config.cluster.pool = permanent_lease_pool(
            config.cluster.machine.dram_pages / 16, 2);
    }
    if (pooling) {
        // Revocable: leases circulate, expire, and get revoked inside
        // a one-hour chaos run.
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

    FarMemorySystem system(config);
    system.populate();
    if (!every_cluster_placed_jobs(system))
        return 1;
    std::uint64_t jobs_at_start = system.num_jobs();
    if (rollout_good) {
        // Warmup first so the pre-rollout baseline sees steady-state
        // fault noise, then push a mild (K, S) through the campaign.
        SimTime warmup = minutes / 3;
        system.run(warmup * kMinute);
        SloConfig candidate = config.cluster.machine.slo;
        candidate.percentile_k = 97.0;
        candidate.enable_delay = 6 * kMinute;
        if (!system.propose_slo(candidate)) {
            std::fprintf(stderr, "rollout proposal rejected\n");
            return 1;
        }
        system.run((minutes - warmup) * kMinute);
    } else {
        system.run(minutes * kMinute);
    }

    FleetFaultReport report = system.fault_report();
    TablePrinter table({"fault/recovery counter", "value"});
    table.add_row({"faults injected", fmt_int(
        static_cast<long long>(report.faults_injected))});
    table.add_row({"donor failures", fmt_int(
        static_cast<long long>(report.donor_failures))});
    table.add_row({"jobs killed", fmt_int(
        static_cast<long long>(report.jobs_killed))});
    table.add_row({"zswap corruptions", fmt_int(
        static_cast<long long>(report.corruptions))});
    table.add_row({"poisoned entries re-faulted", fmt_int(
        static_cast<long long>(report.poisoned_entries))});
    table.add_row({"remote read retries", fmt_int(
        static_cast<long long>(report.remote_read_retries))});
    table.add_row({"remote reads exhausted", fmt_int(
        static_cast<long long>(report.remote_reads_exhausted))});
    table.add_row({"tier breaker opens", fmt_int(
        static_cast<long long>(report.tier_breaker_opens))});
    table.add_row({"nvm media errors", fmt_int(
        static_cast<long long>(report.nvm_media_errors))});
    table.add_row({"nvm capacity lost (pages)", fmt_int(
        static_cast<long long>(report.nvm_capacity_lost_pages))});
    table.add_row({"nvm spillover to zswap (pages)", fmt_int(
        static_cast<long long>(report.nvm_spillover_pages))});
    table.add_row({"agent restarts", fmt_int(
        static_cast<long long>(report.agent_restarts))});
    table.add_row({"slo breaker trips", fmt_int(
        static_cast<long long>(report.slo_breaker_trips))});
    if (tiers > 1) {
        table.add_row({"pool leases granted", fmt_int(
            static_cast<long long>(report.pool_leases_granted))});
        table.add_row({"pool grants aborted", fmt_int(
            static_cast<long long>(report.pool_grants_aborted))});
        table.add_row({"pool revocations", fmt_int(
            static_cast<long long>(report.pool_revocations))});
        table.add_row({"pool grace drains (pages)", fmt_int(
            static_cast<long long>(report.pool_grace_drain_pages))});
        table.add_row({"pool forced kills", fmt_int(
            static_cast<long long>(report.pool_forced_kills))});
        table.add_row({"pool broker stalls", fmt_int(
            static_cast<long long>(report.pool_broker_stalls))});
        table.add_row({"pool breaker opens", fmt_int(
            static_cast<long long>(report.pool_breaker_opens))});
        table.add_row({"remote tier stores (pages)", fmt_int(
            static_cast<long long>(system.fleet_telemetry().counter_or_zero(
                "tier.remote.demotions")))});
    }
    if (rollout_good)
        print_rollout_rows(table, report);
    table.print(std::cout);

    std::printf("\njobs start=%llu end=%llu  coverage=%s  "
                "(%lld min, seed %llu)\n",
                static_cast<unsigned long long>(jobs_at_start),
                static_cast<unsigned long long>(system.num_jobs()),
                fmt_percent(system.fleet_coverage()).c_str(),
                static_cast<long long>(minutes),
                static_cast<unsigned long long>(seed));

    if (rollout_good) {
        const ConfigRollout *rollout = system.rollout();
        std::printf("rollout: state %s after %llu delivered / %llu "
                    "lost / %llu stalled periods / %llu split brains\n",
                    rollout_state_name(rollout->state()),
                    static_cast<unsigned long long>(
                        report.rollout_pushes_delivered),
                    static_cast<unsigned long long>(
                        report.rollout_pushes_lost),
                    static_cast<unsigned long long>(
                        report.rollout_stall_periods),
                    static_cast<unsigned long long>(
                        report.rollout_split_brains));
        if (rollout->state() != RolloutState::kDeployed) {
            std::printf("FAIL: good config did not survive the push "
                        "plane to kDeployed\n");
            return 1;
        }
        std::printf("PASS\n");
    }
    return 0;
}

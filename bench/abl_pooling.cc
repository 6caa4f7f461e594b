/**
 * @file
 * Ablation: static donor capacity vs lease-based cluster memory
 * pooling (Section 2.1's failure-domain argument, measured).
 *
 * Three fleets run the same workload and machine fault plane:
 *
 *   - permanent leases: a static donor pool -- leases that never
 *     expire from donors that keep no reserve, so capacity never
 *     goes back; a donor failure invalidates stored pages and kills
 *     the borrowing jobs outright.
 *   - leases: the same remote tier on revocable broker leases; donor
 *     crashes still kill, but capacity arrives and leaves through the
 *     grant/revoke/drain control plane.
 *   - leases under donor pressure: donors run hot (high cluster
 *     utilization, larger reserve), so the broker constantly revokes
 *     for donor relief -- the case static capacity cannot express at
 *     all. Kills should stay at the donor-crash baseline while
 *     revocations and grace drains do the capacity clawback.
 *
 * Prints the comparison table and writes BENCH_pooling.json for
 * machine consumption (EXPERIMENTS.md tracks the sweep).
 */

#include <cstdio>
#include <iostream>

#include "common.h"

using namespace sdfm;
using namespace sdfm::bench;

namespace {

struct Outcome
{
    double coverage = 0.0;
    std::uint64_t jobs_killed = 0;      ///< donor-crash kills
    std::uint64_t forced_kills = 0;     ///< grace-window expiries
    std::uint64_t leases_granted = 0;
    std::uint64_t revocations = 0;
    std::uint64_t pressure_revocations = 0;  ///< donor-relief subset
    std::uint64_t grace_drain_pages = 0;
};

enum class Variant
{
    kPermanentLeases,
    kLeases,
    kLeasesUnderPressure,
};

FleetConfig
variant_fleet(Variant variant, std::uint64_t seed)
{
    FleetConfig config;
    config.seed = seed;
    config.num_clusters = 1;
    config.cluster.mix = typical_fleet_mix();
    config.cluster.num_machines = 8;
    // Machines must fit the largest mix archetype (bigtable tops out
    // at 32768 pages) with room to spare, or populate and reschedule
    // starve and the fleet decays to empty.
    config.cluster.machine.dram_pages = 64 * 1024;
    TierConfig remote;
    remote.kind = TierKind::kRemote;
    remote.band_hi = 4.0;
    remote.breaker_enabled = true;
    config.cluster.machine.tiers = {remote};

    // The same machine fault plane everywhere: donor crashes are the
    // failure-domain cost both designs pay.
    FaultConfig &fault = config.cluster.machine.fault;
    fault.enabled = true;
    fault.donor_failure_prob = 0.005;

    MemPoolParams &pool = config.cluster.pool;
    pool = permanent_lease_pool(2048, 4);
    if (variant == Variant::kPermanentLeases)
        return config;

    pool.lease_term_periods = 30;
    pool.grace_periods = 3;
    pool.drain_pages_per_period = 1024;
    pool.donor_reserve_frac = 0.08;
    if (variant == Variant::kLeasesUnderPressure) {
        // Hot donors: heavy churn keeps repacking jobs onto machines
        // that granted leases while roomy, and the larger reserve
        // trips the pressure threshold as soon as they tighten -- so
        // the broker spends the run clawing capacity back.
        config.cluster.target_utilization = 0.90;
        config.cluster.churn_per_hour = 0.50;
        pool.donor_reserve_frac = 0.30;
    }
    return config;
}

Outcome
run_variant(Variant variant, std::uint64_t seed)
{
    FarMemorySystem fleet(variant_fleet(variant, seed));
    fleet.populate();
    fleet.run(4 * kHour);

    FleetFaultReport report = fleet.fault_report();
    Outcome outcome;
    outcome.coverage = fleet.fleet_coverage();
    outcome.jobs_killed = report.jobs_killed;
    outcome.forced_kills = report.pool_forced_kills;
    outcome.leases_granted = report.pool_leases_granted;
    outcome.revocations = report.pool_revocations;
    outcome.grace_drain_pages = report.pool_grace_drain_pages;
    const MemoryBroker *broker = fleet.clusters()[0]->broker();
    if (broker != nullptr) {
        const MemPoolStats &stats = broker->stats();
        outcome.pressure_revocations =
            stats.revocations - stats.expiries;
    }
    return outcome;
}

}  // namespace

int
main()
{
    print_header(
        "Ablation: static donor capacity vs revocable memory leases",
        "Section 2.1: remote memory expands the failure domain; "
        "leases shrink the blast radius to donor crashes only");

    struct Case
    {
        Variant variant;
        const char *label;
        const char *key;
    };
    const Case cases[] = {
        {Variant::kPermanentLeases, "permanent leases",
         "permanent_leases"},
        {Variant::kLeases, "leases", "leases"},
        {Variant::kLeasesUnderPressure, "leases + donor pressure",
         "leases_donor_pressure"},
    };

    TablePrinter table({"remote capacity model", "coverage",
                        "jobs killed (donor crash)",
                        "jobs killed (grace expiry)", "leases granted",
                        "revocations", "donor-pressure revocations",
                        "grace drain pages"});
    Outcome outcomes[3];
    for (int i = 0; i < 3; ++i) {
        outcomes[i] = run_variant(cases[i].variant, 57);
        const Outcome &o = outcomes[i];
        table.add_row(
            {cases[i].label, fmt_percent(o.coverage),
             fmt_int(static_cast<long long>(o.jobs_killed)),
             fmt_int(static_cast<long long>(o.forced_kills)),
             fmt_int(static_cast<long long>(o.leases_granted)),
             fmt_int(static_cast<long long>(o.revocations)),
             fmt_int(static_cast<long long>(o.pressure_revocations)),
             fmt_int(static_cast<long long>(o.grace_drain_pages))});
    }
    table.print(std::cout);

    std::cout << "\nexpected: all three pay for actual donor crashes; "
                 "only permanent leases have no donor-relief story, "
                 "while the pressured lease market sustains heavy "
                 "revocation traffic with few or no grace-expiry "
                 "kills.\n";

    std::FILE *json = std::fopen("BENCH_pooling.json", "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot write BENCH_pooling.json\n");
        return 1;
    }
    std::fprintf(json, "{\n  \"bench\": \"abl_pooling\",\n"
                       "  \"variants\": [\n");
    for (int i = 0; i < 3; ++i) {
        const Outcome &o = outcomes[i];
        std::fprintf(
            json,
            "    {\"name\": \"%s\", \"coverage\": %.6f, "
            "\"jobs_killed\": %llu, \"forced_kills\": %llu, "
            "\"leases_granted\": %llu, \"revocations\": %llu, "
            "\"pressure_revocations\": %llu, "
            "\"grace_drain_pages\": %llu}%s\n",
            cases[i].key, o.coverage,
            static_cast<unsigned long long>(o.jobs_killed),
            static_cast<unsigned long long>(o.forced_kills),
            static_cast<unsigned long long>(o.leases_granted),
            static_cast<unsigned long long>(o.revocations),
            static_cast<unsigned long long>(o.pressure_revocations),
            static_cast<unsigned long long>(o.grace_drain_pages),
            i + 1 < 3 ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_pooling.json\n");
    return 0;
}

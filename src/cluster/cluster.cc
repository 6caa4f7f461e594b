#include "cluster/cluster.h"

#include <algorithm>

#include "util/digest.h"
#include "util/invariant.h"
#include "util/logging.h"

namespace sdfm {

Cluster::Cluster(std::uint32_t cluster_id, const ClusterConfig &config,
                 std::uint64_t seed)
    : cluster_id_(cluster_id), config_(config), rng_(seed),
      next_job_id_(static_cast<JobId>(cluster_id) << 40)
{
    SDFM_ASSERT(config_.num_machines > 0);
    SDFM_ASSERT(!config_.mix.profiles.empty());
    // The broker is the remote tier's only source of capacity, and it
    // feeds the shallowest remote tier alone.
    auto remote_tiers = std::count_if(
        config_.machine.tiers.begin(), config_.machine.tiers.end(),
        [](const TierConfig &tc) { return tc.kind == TierKind::kRemote; });
    SDFM_ASSERT(remote_tiers <= 1 &&
                "machine.tiers holds at most one kRemote tier");
    SDFM_ASSERT((remote_tiers == 0 || config_.pool.enabled) &&
                "a kRemote tier in machine.tiers needs pool.enabled");
    SDFM_ASSERT((remote_tiers == 1 || !config_.pool.enabled) &&
                "pool.enabled needs a kRemote tier in machine.tiers");
    machines_.reserve(config_.num_machines);
    for (std::uint32_t m = 0; m < config_.num_machines; ++m) {
        MachineConfig machine_config = config_.machine;
        if (!config_.platform_ghz.empty()) {
            machine_config.cost_model.cpu_ghz = config_.platform_ghz
                [rng_.next_below(config_.platform_ghz.size())];
        }
        machines_.push_back(std::make_unique<Machine>(
            m, machine_config, rng_.next_u64()));
        if (config_.collect_traces)
            machines_.back()->set_trace_sink(&trace_log_);
    }
    // Broker seed drawn only when pooling is on, after the machine
    // loop, so the RNG streams of fleets without a remote tier do not
    // depend on the pool.
    if (config_.pool.enabled) {
        broker_ = std::make_unique<MemoryBroker>(
            config_.pool, rng_.next_u64(), config_.num_machines);
    }
}

Machine *
Cluster::pick_machine(std::uint64_t pages)
{
    std::vector<Machine *> fits;
    for (auto &machine : machines_) {
        if (machine->has_capacity_for(pages))
            fits.push_back(machine.get());
    }
    if (fits.empty())
        return nullptr;
    switch (config_.placement) {
      case PlacementStrategy::kFirstFit:
        return fits.front();
      case PlacementStrategy::kRandomFit:
        return fits[rng_.next_below(fits.size())];
      case PlacementStrategy::kWorstFit:
      default:
        return *std::max_element(fits.begin(), fits.end(),
                                 [](Machine *a, Machine *b) {
                                     return a->free_pages() <
                                            b->free_pages();
                                 });
    }
}

bool
Cluster::schedule_new_job(SimTime now, std::uint32_t *unplaced_pages)
{
    std::size_t profile_idx = config_.mix.sample(rng_);
    const JobProfile &profile = config_.mix.profiles[profile_idx];
    auto job = std::make_unique<Job>(next_job_id_, profile,
                                     rng_.next_u64(), now);
    Machine *machine = pick_machine(job->memcg().num_pages());
    if (machine == nullptr) {
        if (unplaced_pages != nullptr)
            *unplaced_pages = job->memcg().num_pages();
        return false;
    }
    ++next_job_id_;
    machine->add_job(std::move(job));
    return true;
}

void
Cluster::populate(SimTime now)
{
    std::uint64_t total_dram =
        static_cast<std::uint64_t>(config_.num_machines) *
        config_.machine.dram_pages;
    auto target = static_cast<std::uint64_t>(
        config_.target_utilization * static_cast<double>(total_dram));
    std::uint64_t resident = 0;
    for (const auto &machine : machines_)
        resident += machine->resident_pages();
    while (resident < target) {
        std::uint64_t before = resident;
        std::uint32_t unplaced_pages = 0;
        if (!schedule_new_job(now, &unplaced_pages)) {
            // Population stops at the first job that fits nowhere; if
            // that was the first job, the cluster runs empty.
            if (num_jobs() == 0) {
                warn("cluster %u placed no job: its first job needs %u "
                     "pages, and no machine takes it (dram_pages %llu)",
                     cluster_id_, unplaced_pages,
                     static_cast<unsigned long long>(
                         config_.machine.dram_pages));
            }
            break;
        }
        resident = 0;
        for (const auto &machine : machines_)
            resident += machine->resident_pages();
        SDFM_ASSERT(resident > before);
    }
}

ClusterStepResult
Cluster::step(SimTime now)
{
    ClusterStepResult result;

    // Memory market first: grants and revocations issued this period
    // are visible to the machines' demotion routing below. Jobs the
    // broker kills (grace-window expiry) reschedule like OOM
    // evictions.
    if (broker_ != nullptr) {
        BrokerStepResult pool = broker_->step(
            now, config_.machine.control_period, machines_);
        result.evicted += pool.killed.size();
        for (std::size_t i = 0; i < pool.killed.size(); ++i) {
            if (schedule_new_job(now))
                ++result.rescheduled;
        }
    }

    for (auto &machine : machines_) {
        MachineStepResult step = machine->step(now);
        result.accesses += step.accesses;
        result.promotions += step.promotions;
        result.evicted += step.evicted.size();
        // Evicted best-effort jobs restart fresh on another machine
        // (the cluster scheduler's reschedule path).
        for (std::size_t i = 0; i < step.evicted.size(); ++i) {
            if (schedule_new_job(now))
                ++result.rescheduled;
        }
    }

    // Churn: replace a Poisson-ish number of jobs with fresh samples.
    double per_step = config_.churn_per_hour *
                      static_cast<double>(config_.machine.control_period) /
                      static_cast<double>(kHour) *
                      static_cast<double>(num_jobs());
    std::uint64_t kills = static_cast<std::uint64_t>(per_step);
    if (rng_.next_double() < per_step - static_cast<double>(kills))
        ++kills;
    for (std::uint64_t k = 0; k < kills; ++k) {
        // Pick a random machine with jobs, then a random job on it.
        std::vector<Machine *> occupied;
        for (auto &machine : machines_) {
            if (!machine->jobs().empty())
                occupied.push_back(machine.get());
        }
        if (occupied.empty())
            break;
        Machine *machine = occupied[rng_.next_below(occupied.size())];
        const auto &jobs = machine->jobs();
        JobId victim = jobs[rng_.next_below(jobs.size())]->id();
        machine->remove_job(victim);
        ++result.churned;
        if (schedule_new_job(now))
            ++result.rescheduled;
    }

    return result;
}

std::uint64_t
Cluster::num_jobs() const
{
    std::uint64_t total = 0;
    for (const auto &machine : machines_)
        total += machine->jobs().size();
    return total;
}

double
Cluster::cold_memory_fraction() const
{
    std::uint64_t cold = 0;
    std::uint64_t used = 0;
    for (const auto &machine : machines_) {
        cold += machine->cold_pages_min_threshold();
        used += machine->resident_pages() + machine->zswap_stored_pages();
    }
    if (used == 0)
        return 0.0;
    return static_cast<double>(cold) / static_cast<double>(used);
}

double
Cluster::coverage() const
{
    std::uint64_t cold = 0;
    std::uint64_t stored = 0;
    for (const auto &machine : machines_) {
        cold += machine->cold_pages_min_threshold();
        stored += machine->zswap_stored_pages();
    }
    if (cold == 0)
        return 0.0;
    return static_cast<double>(stored) / static_cast<double>(cold);
}

SampleSet
Cluster::machine_cold_fractions() const
{
    SampleSet samples;
    for (const auto &machine : machines_) {
        std::uint64_t used =
            machine->resident_pages() + machine->zswap_stored_pages();
        if (used == 0)
            continue;
        samples.add(static_cast<double>(
                        machine->cold_pages_min_threshold()) /
                    static_cast<double>(used));
    }
    return samples;
}

SampleSet
Cluster::machine_coverages() const
{
    SampleSet samples;
    for (const auto &machine : machines_) {
        if (machine->cold_pages_min_threshold() == 0)
            continue;
        samples.add(machine->cold_memory_coverage());
    }
    return samples;
}

SampleSet
Cluster::job_cold_fractions() const
{
    SampleSet samples;
    for (const auto &machine : machines_) {
        for (const auto &job : machine->jobs()) {
            const Memcg &cg = job->memcg();
            std::uint64_t used = cg.resident_pages() + cg.zswap_pages();
            if (used == 0)
                continue;
            samples.add(
                static_cast<double>(cg.cold_pages_min_threshold()) /
                static_cast<double>(used));
        }
    }
    return samples;
}

MetricsSnapshot
Cluster::telemetry_snapshot() const
{
    MetricsSnapshot snap;
    for (const auto &machine : machines_)
        snap.merge(machine->telemetry_snapshot());
    if (broker_ != nullptr)
        snap.merge(broker_->telemetry_snapshot());
    snap.gauges["cluster.jobs"] +=
        static_cast<double>(num_jobs());
    return snap;
}

DonorFailureResult
Cluster::inject_donor_failure(SimTime now, std::uint32_t machine_index,
                              std::uint32_t lease_id)
{
    SDFM_ASSERT(machine_index < machines_.size());
    DonorFailureResult result;
    result.killed = machines_[machine_index]->fail_donor(lease_id);
    for (std::size_t i = 0; i < result.killed.size(); ++i) {
        if (schedule_new_job(now))
            ++result.rescheduled;
    }
    return result;
}

void
Cluster::deploy_slo(const SloConfig &slo)
{
    for (auto &machine : machines_)
        machine->agent().set_slo(slo);
}

void
Cluster::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;
    for (const auto &machine : machines_)
        machine->check_invariants();
    if (broker_ != nullptr)
        broker_->check_invariants(machines_);
}

void
Cluster::ckpt_save(Serializer &s) const
{
    s.put_u32(cluster_id_);
    s.put_rng(rng_);
    s.put_u64(next_job_id_);
    trace_log_.ckpt_save(s);
    s.put_u64(machines_.size());
    for (const auto &machine : machines_)
        machine->ckpt_save(s);
}

bool
Cluster::ckpt_load(Deserializer &d)
{
    std::uint32_t id = d.get_u32();
    if (!d.ok() || id != cluster_id_)
        return false;
    d.get_rng(rng_);
    next_job_id_ = d.get_u64();
    // Ids are partitioned per cluster (top bits); a corrupt allocator
    // would hand out ids colliding with another cluster's space.
    if (!d.ok() || (next_job_id_ >> 40) != cluster_id_)
        return false;
    if (!trace_log_.ckpt_load(d))
        return false;
    std::uint64_t num = d.get_u64();
    if (!d.ok() || num != machines_.size())
        return false;
    for (auto &machine : machines_) {
        if (!machine->ckpt_load(d))
            return false;
    }
    return d.ok();
}

std::uint64_t
Cluster::state_digest() const
{
    StateDigest d;
    d.mix(cluster_id_);
    d.mix(next_job_id_);
    // Scheduler RNG engine state: arrival-stream divergence shows up
    // here immediately instead of at the next differing placement.
    const RngState rng_state = rng_.state();
    for (std::uint64_t word : rng_state.s)
        d.mix(word);
    d.mix(static_cast<std::uint64_t>(rng_state.have_gauss));
    d.mix_double(rng_state.gauss_spare);
    d.mix(num_jobs());
    d.mix(machines_.size());
    for (const auto &machine : machines_)
        d.mix(machine->state_digest());
    d.mix(trace_log_.entries().size());
    // Appended only when pooling is on, so pooling-off digests stay
    // bit-identical to pre-pooling builds.
    if (broker_ != nullptr)
        d.mix(broker_->state_digest(machines_));
    return d.value();
}

}  // namespace sdfm

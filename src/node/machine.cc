#include "node/machine.h"

#include <algorithm>
#include <map>

#include "util/digest.h"
#include "util/invariant.h"
#include "util/logging.h"

namespace sdfm {

namespace {

/** Pages ever demoted into a deep tier: only kreclaimd stores there. */
std::uint64_t
tier_stores(const FarTier &tier)
{
    switch (tier.kind()) {
      case TierKind::kNvm:
        return static_cast<const NvmTier &>(tier).stats().stores;
      case TierKind::kRemote:
        return static_cast<const RemoteTier &>(tier).stats().stores;
      case TierKind::kZswap:
        break;
    }
    SDFM_ASSERT(!"zswap is always the stack base");
    return 0;
}

}  // namespace

Machine::Machine(std::uint32_t machine_id, const MachineConfig &config,
                 std::uint64_t seed)
    : machine_id_(machine_id), config_(config), rng_(seed),
      compressor_(make_compressor(config.compression,
                                  CostModel(config.cost_model))),
      kstaled_(config.kstaled), kreclaimd_(config.kreclaimd),
      agent_(NodeAgentConfig{config.slo, config.policy,
                             config.static_threshold,
                             config.slo_breaker_enabled,
                             config.slo_breaker}),
      // The injector mixes the machine seed internally rather than
      // drawing from rng_, so enabling faults never shifts the
      // simulation's other random streams.
      fault_(config.fault, seed)
{
    // The zswap seed is always the first draw and tier seeds follow
    // in stack order.
    auto zswap = std::make_unique<Zswap>(compressor_.get(),
                                         rng_.next_u64(),
                                         config_.verify_zswap_roundtrip);
    zswap_ = zswap.get();

    TierSpec base;
    base.label = "zswap";
    tiers_.set_base(base, std::move(zswap));
    for (const TierConfig &tc : config_.tiers) {
        TierSpec spec;
        spec.label =
            tc.label.empty() ? tier_kind_name(tc.kind) : tc.label;
        spec.band_lo = tc.band_lo;
        spec.band_hi = tc.band_hi;
        spec.breaker_enabled = tc.breaker_enabled;
        spec.breaker = tc.breaker;
        std::unique_ptr<FarTier> tier;
        switch (tc.kind) {
          case TierKind::kNvm:
            tier = std::make_unique<NvmTier>(tc.nvm, rng_.next_u64());
            break;
          case TierKind::kRemote:
            tier = std::make_unique<RemoteTier>(tc.remote,
                                                rng_.next_u64());
            break;
          case TierKind::kZswap:
            SDFM_ASSERT(!"zswap is always the stack base");
            break;
        }
        tiers_.add_tier(spec, std::move(tier));
    }
    tiers_.check_invariants();
}

bool
Machine::has_capacity_for(std::uint64_t pages) const
{
    return used_pages() + pages <= config_.dram_pages;
}

Job &
Machine::add_job(std::unique_ptr<Job> job)
{
    SDFM_ASSERT(job != nullptr);
    agent_.register_job(job->memcg());
    jobs_.push_back(std::move(job));
    return *jobs_.back();
}

void
Machine::remove_job(JobId id)
{
    auto it = std::find_if(jobs_.begin(), jobs_.end(),
                           [id](const std::unique_ptr<Job> &j) {
                               return j->id() == id;
                           });
    SDFM_ASSERT(it != jobs_.end());
    zswap_->drop_all((*it)->memcg());
    for (std::size_t i = 1; i < tiers_.size(); ++i)
        tiers_.tier(i).drop_all((*it)->memcg());
    agent_.unregister_job(id);
    jobs_.erase(it);
}

Job *
Machine::find_job(JobId id)
{
    for (auto &job : jobs_) {
        if (job->id() == id)
            return job.get();
    }
    return nullptr;
}

std::vector<Memcg *>
Machine::memcgs()
{
    std::vector<Memcg *> cgs;
    cgs.reserve(jobs_.size());
    for (auto &job : jobs_)
        cgs.push_back(&job->memcg());
    return cgs;
}

MachineStepResult
Machine::step(SimTime now)
{
    MachineStepResult result;
    ++steps_;

    // 1. Applications run; far-memory faults promote pages.
    for (auto &job : jobs_) {
        JobStepStats stats =
            job->run_step(now, config_.control_period, tiers_);
        result.accesses += stats.accesses;
        result.promotions += stats.promotions;
    }
    counters_.accesses += result.accesses;
    counters_.promotions += result.promotions;

    SimTime period_end = now + config_.control_period;

    // 1b. Fault plane: apply this step's injected events (donor
    // failures, payload corruption, tier degradation, agent crashes)
    // and expire elapsed degradation windows. A no-op when fault
    // injection is disabled.
    apply_faults(now, period_end, &result);

    // 2. kstaled scan when due (striped; the phase rotates so every
    // page is visited once per scan_stride periods).
    if (period_end - last_scan_ >= kScanPeriod) {
        for (auto &job : jobs_) {
            ScanResult scan = kstaled_.scan(job->memcg(), scan_phase_);
            counters_.kstaled_cycles += scan.cpu_cycles;
            counters_.kstaled.record(scan);
        }
        ++scan_phase_;
        last_scan_ = period_end;
    }

    // 3. Node agent control.
    std::vector<Memcg *> cgs = memcgs();
    agent_.control(period_end, cgs,
                   static_cast<double>(config_.control_period) /
                       static_cast<double>(kMinute));

    // 4. Proactive reclaim. The routing policy turns the stack's age
    // bands and breaker states into one machine-wide demotion plan;
    // budgets are shared across jobs so a half-open breaker's trial
    // trickle is machine-global, as before.
    if (config_.policy == FarMemoryPolicy::kProactive ||
        config_.policy == FarMemoryPolicy::kStatic) {
        routing_.plan(tiers_, plan_);
        for (auto &job : jobs_) {
            ReclaimResult reclaim =
                kreclaimd_.reclaim_cold(job->memcg(), plan_);
            counters_.kreclaimd_cycles += reclaim.walk_cycles;
            counters_.kreclaimd.record(reclaim, /*direct=*/false);
        }
    }

    // 5. Memory pressure.
    handle_pressure(&result);

    // 5b. Fault plane roll-up: feed tier health into the circuit
    // breakers.
    update_fault_plane();

    // 6. Telemetry. Steps 4-5 may have evicted jobs, so the memcg
    // list from step 3 can hold dangling pointers -- rebuild it.
    if (period_end - last_telemetry_ >= kTraceWindow) {
        std::vector<Memcg *> live_cgs = memcgs();
        agent_.export_telemetry(period_end, live_cgs, trace_sink_);
        last_telemetry_ = period_end;
    }

    // Periodic arena compaction (agent-triggered, Section 5.1).
    if (config_.compact_every > 0 && steps_ % config_.compact_every == 0)
        zswap_->compact();

    // Step-end levels for the machine.* and tier.* gauges: the
    // cluster reschedules and churns jobs after this, before any
    // snapshot is taken.
    counters_.resident_pages = resident_pages();
    counters_.cold_pages = cold_pages_min_threshold();
    counters_.far_memory_pages = far_memory_pages();
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        TierStack::Entry &e = tiers_.entry(i);
        e.step_end_used_pages = e.tier->used_pages();
        e.step_end_utilization = e.tier->utilization();
    }

    check_invariants();
    return result;
}

void
Machine::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;

    std::uint64_t zswap_pages = 0;
    std::vector<std::uint64_t> tier_counts(tiers_.size(), 0);
    bool tiers_in_range = true;
    for (const auto &job : jobs_) {
        const Memcg &cg = job->memcg();
        cg.check_invariants();
        zswap_pages += cg.zswap_pages();
        tiers_in_range &= cg.add_tier_page_counts(tier_counts);
    }
    zswap_->check_invariants();
    tiers_.check_invariants();
    SDFM_INVARIANT(zswap_pages == zswap_->stored_pages(),
                   "per-job zswap residency sums to the store's count");
    SDFM_INVARIANT(handles_match_arena(),
                   "the jobs' zswap pages hold the live arena handles, "
                   "each once");
    SDFM_INVARIANT(tiers_in_range,
                   "every tier-resident page names a configured tier");
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        SDFM_INVARIANT(tier_counts[i] == tiers_.tier(i).used_pages(),
                       "per-job tier residency sums to tier occupancy");
    }
    // handle_pressure() evicts until the machine fits (or is empty),
    // so a completed step always leaves the capacity respected.
    // Donated pool pages are excluded, matching the eviction loop.
    SDFM_INVARIANT(jobs_.empty() ||
                       used_pages() - donated_pages_ <=
                           config_.dram_pages,
                   "post-step DRAM usage within capacity");
}

bool
Machine::handles_match_arena() const
{
    const ZsmallocArena &arena = zswap_->arena();
    std::vector<bool> claimed(arena.handle_limit(), false);
    std::uint64_t pages = 0;
    bool match = true;
    for (const auto &job : jobs_) {
        const Memcg &cg = job->memcg();
        cg.pages().for_each(kPageInZswap, [&](PageId p) {
            ZsHandle h = cg.zswap_handle(p);
            match = match && arena.is_live(h) && !claimed[h];
            if (match)
                claimed[h] = true;
            ++pages;
        });
    }
    return match && pages == arena.live_objects();
}

std::uint64_t
Machine::state_digest() const
{
    StateDigest d;
    d.mix(machine_id_);
    d.mix(steps_);
    d.mix(static_cast<std::uint64_t>(last_scan_));
    d.mix(scan_phase_);
    d.mix(static_cast<std::uint64_t>(last_telemetry_));
    // Machine RNG engine state: a divergent draw count (say, a
    // parallel-phase ordering bug) is caught this step, not one step
    // later through its first behavioural effect.
    const RngState rng_state = rng_.state();
    for (std::uint64_t word : rng_state.s)
        d.mix(word);
    d.mix(static_cast<std::uint64_t>(rng_state.have_gauss));
    d.mix_double(rng_state.gauss_spare);
    // Fault-plane streams and counters advance inside step() too.
    fault_.digest_into(d);
    d.mix(jobs_.size());
    for (const auto &job : jobs_)
        d.mix(job->memcg().state_digest());
    const ZsmallocStats &arena = zswap_->arena().stats();
    d.mix(arena.live_objects);
    d.mix(arena.stored_bytes);
    d.mix(arena.pool_bytes);
    d.mix(arena.total_allocs);
    d.mix(arena.total_frees);
    d.mix(zswap_->stats().stores);
    d.mix(zswap_->stats().rejects);
    d.mix(zswap_->stats().promotions);
    d.mix(zswap_->stats().poisoned_entries);
    // One (occupancy, breaker-state) pair per deep tier, in stack
    // order; a zswap-only machine mixes one pair of zeros.
    if (tiers_.deep_size() == 0) {
        d.mix(std::uint64_t{0});
        d.mix(std::uint64_t{0});
    } else {
        for (std::size_t i = 1; i < tiers_.size(); ++i) {
            d.mix(tiers_.tier(i).used_pages());
            d.mix(static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                tiers_.entry(i).breaker.state())));
        }
    }
    d.mix(counters_.accesses);
    d.mix(counters_.promotions);
    d.mix(counters_.direct_reclaims);
    d.mix(counters_.evictions);
    d.mix_double(counters_.kstaled_cycles);
    d.mix_double(counters_.kreclaimd_cycles);
    return d.value();
}

void
Machine::handle_pressure(MachineStepResult *result)
{
    // Reactive policy: upstream zswap behaviour -- compress from the
    // LRU tail when free memory dips below the watermark, stalling
    // the allocating jobs.
    if (config_.policy == FarMemoryPolicy::kReactive) {
        std::uint64_t watermark = static_cast<std::uint64_t>(
            config_.reactive_free_watermark *
            static_cast<double>(config_.dram_pages));
        if (free_pages() < watermark) {
            ++counters_.direct_reclaims;
            std::uint64_t want = 2 * watermark - free_pages();
            for (auto &job : jobs_) {
                if (want == 0)
                    break;
                double compress_before =
                    job->memcg().stats().compress_cycles;
                ReclaimResult reclaim = kreclaimd_.direct_reclaim(
                    job->memcg(), *zswap_, want);
                counters_.kreclaimd_cycles += reclaim.walk_cycles;
                counters_.kreclaimd.record(reclaim, /*direct=*/true);
                // Allocation stalls: walking and compressing happen
                // in the faulting task's context, so the whole cost
                // is synchronous application slowdown.
                job->memcg().stats().direct_stall_cycles +=
                    reclaim.walk_cycles +
                    (job->memcg().stats().compress_cycles -
                     compress_before);
                want -= std::min<std::uint64_t>(want,
                                                reclaim.pages_stored);
            }
        }
    }

    // Hard OOM: evict best-effort jobs (fail fast + reschedule,
    // Section 4.2), largest first; then anyone, as a last resort.
    // Donated pool pages are excluded: donating memory must never
    // directly kill the donor's jobs (revocation is the relief path).
    while (used_pages() - donated_pages_ > config_.dram_pages &&
           !jobs_.empty()) {
        auto pick = [&](bool best_effort_only) -> Job * {
            Job *victim = nullptr;
            for (auto &job : jobs_) {
                if (best_effort_only && !job->memcg().best_effort())
                    continue;
                if (victim == nullptr ||
                    job->memcg().resident_pages() >
                        victim->memcg().resident_pages()) {
                    victim = job.get();
                }
            }
            return victim;
        };
        Job *victim = pick(true);
        if (victim == nullptr) {
            warn("machine %u: OOM with no best-effort jobs; evicting "
                 "a high-priority job",
                 machine_id_);
            victim = pick(false);
        }
        SDFM_ASSERT(victim != nullptr);
        JobId id = victim->id();
        remove_job(id);
        result->evicted.push_back(id);
        ++counters_.evictions;
        ++counters_.oom_evictions;
    }
}

void
Machine::kill_victims(const std::vector<JobId> &victims,
                      MachineStepResult *result)
{
    for (JobId victim : victims) {
        remove_job(victim);
        result->evicted.push_back(victim);
        ++counters_.evictions;
    }
}

std::vector<JobId>
Machine::fail_donor(std::uint32_t lease_id)
{
    RemoteTier *remote = remote_tier();
    if (remote == nullptr)
        return {};
    std::vector<JobId> victims = remote->fail_donor(lease_id);
    for (JobId victim : victims) {
        remove_job(victim);
        ++counters_.evictions;
    }
    return victims;
}

void
Machine::return_donated(std::uint64_t pages)
{
    SDFM_ASSERT(pages <= donated_pages_);
    donated_pages_ -= pages;
}

RemoteTier *
Machine::remote_tier()
{
    std::size_t ri = tiers_.find(TierKind::kRemote);
    if (ri >= tiers_.size())
        return nullptr;
    return static_cast<RemoteTier *>(&tiers_.tier(ri));
}

void
Machine::set_pool_gate(bool gated)
{
    std::size_t ri = tiers_.find(TierKind::kRemote);
    if (ri < tiers_.size())
        tiers_.entry(ri).pool_gated = gated;
}

std::uint64_t
Machine::drain_lease(std::uint32_t lease_id, std::uint64_t budget)
{
    RemoteTier *remote = remote_tier();
    SDFM_ASSERT(remote != nullptr);
    std::uint64_t drained = 0;
    for (auto &[cg, page] : remote->lease_page_refs(lease_id, budget)) {
        remote->drop(*cg, page);
        ++drained;
        // Re-home in zswap where the contents allow; pages zswap
        // cannot take (incompressible, mlocked) fault back to
        // resident and the pressure path deals with any OOM.
        if (!cg->page_test(page, kPageIncompressible) &&
            !cg->page_test(page, kPageUnevictable)) {
            zswap_->store(*cg, page);
        }
    }
    return drained;
}

std::vector<JobId>
Machine::fail_lease(std::uint32_t lease_id)
{
    RemoteTier *remote = remote_tier();
    SDFM_ASSERT(remote != nullptr);
    std::vector<JobId> victims = remote->fail_lease(lease_id);
    for (JobId victim : victims) {
        remove_job(victim);
        ++counters_.evictions;
    }
    return victims;
}

void
Machine::crash_agent(SimTime now)
{
    std::vector<Memcg *> cgs = memcgs();
    agent_.crash_restart(now, cgs);
}

void
Machine::deploy_slo(SimTime now, const SloConfig &slo,
                    std::uint64_t epoch, bool conservative)
{
    std::vector<Memcg *> cgs = memcgs();
    agent_.deploy_slo(now, slo, epoch, conservative, cgs);
}

std::uint64_t
Machine::spill_tier_overflow(std::size_t tier_index,
                             std::uint64_t overflow)
{
    FarTier &tier = tiers_.tier(tier_index);
    std::uint8_t index = static_cast<std::uint8_t>(tier_index);
    std::uint64_t spilled = 0;
    for (auto &job : jobs_) {
        if (overflow == 0)
            break;
        Memcg &cg = job->memcg();
        for (PageId p : cg.tier_page_ids(index)) {
            if (overflow == 0)
                break;
            tier.drop(cg, p);
            --overflow;
            // Re-home in zswap where possible; pages zswap cannot
            // take (incompressible, mlocked) stay resident and the
            // pressure path deals with any resulting OOM.
            if (!cg.page_test(p, kPageIncompressible) &&
                !cg.page_test(p, kPageUnevictable) &&
                zswap_->store(cg, p)) {
                ++spilled;
            }
        }
    }
    return spilled;
}

void
Machine::apply_faults(SimTime now, SimTime period_end,
                      MachineStepResult *result)
{
    // Expire elapsed degradation windows first so a fresh event can
    // re-arm them below.
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        TierStack::Entry &e = tiers_.entry(i);
        if (e.degraded_until == 0 || now < e.degraded_until)
            continue;
        switch (e.tier->kind()) {
          case TierKind::kRemote:
            static_cast<RemoteTier *>(e.tier)
                ->set_transient_read_failure(0.0);
            break;
          case TierKind::kNvm:
            static_cast<NvmTier *>(e.tier)->set_latency_multiplier(1.0);
            break;
          case TierKind::kZswap:
            break;
        }
        e.degraded_until = 0;
    }

    if (!fault_.enabled())
        return;
    std::vector<FaultEvent> events = fault_.step(now, period_end);
    if (events.empty())
        return;
    result->faults_injected += events.size();

    // Each event targets the shallowest tier of the matching kind;
    // deeper duplicates are only reachable through targeted chaos
    // APIs.
    for (const FaultEvent &event : events) {
        switch (event.kind) {
          case FaultKind::kDonorFailure: {
            RemoteTier *remote = remote_tier();
            if (remote == nullptr)
                break;
            ++result->donor_failures;
            std::size_t before = result->evicted.size();
            // The victim is a live lease, drawn over the sorted lease
            // ids (no draw when none are held).
            kill_victims(remote->fail_random_lease(fault_.target_rng()),
                         result);
            counters_.fault_kills += result->evicted.size() - before;
            break;
          }
          case FaultKind::kZswapCorruption: {
            for (std::uint32_t i = 0; i < event.magnitude; ++i)
                zswap_->corrupt_entry(fault_.target_rng());
            break;
          }
          case FaultKind::kRemoteDegrade: {
            std::size_t ri = tiers_.find(TierKind::kRemote);
            if (ri < tiers_.size()) {
                static_cast<RemoteTier *>(&tiers_.tier(ri))
                    ->set_transient_read_failure(
                        config_.fault.remote_read_failure_prob);
                tiers_.entry(ri).degraded_until =
                    period_end + event.duration;
            }
            break;
          }
          case FaultKind::kNvmLatencySpike: {
            std::size_t ni = tiers_.find(TierKind::kNvm);
            if (ni < tiers_.size()) {
                static_cast<NvmTier *>(&tiers_.tier(ni))
                    ->set_latency_multiplier(
                        config_.fault.nvm_latency_multiplier);
                tiers_.entry(ni).degraded_until =
                    period_end + event.duration;
            }
            break;
          }
          case FaultKind::kNvmMediaErrors: {
            std::size_t ni = tiers_.find(TierKind::kNvm);
            if (ni < tiers_.size()) {
                static_cast<NvmTier *>(&tiers_.tier(ni))
                    ->inject_media_errors(event.magnitude);
            }
            break;
          }
          case FaultKind::kNvmCapacityLoss: {
            std::size_t ni = tiers_.find(TierKind::kNvm);
            if (ni < tiers_.size()) {
                NvmTier *nvm =
                    static_cast<NvmTier *>(&tiers_.tier(ni));
                std::uint64_t overflow = nvm->lose_capacity(
                    config_.fault.capacity_loss_frac);
                counters_.nvm_spillover_pages +=
                    spill_tier_overflow(ni, overflow);
            }
            break;
          }
          case FaultKind::kAgentCrash: {
            crash_agent(now);
            break;
          }
          case FaultKind::kLeaseGrantLoss:
          case FaultKind::kRevocationLoss:
          case FaultKind::kBrokerStall:
            // Pooling control-plane kinds are drawn and applied by the
            // cluster's MemoryBroker, never by per-machine injectors.
            break;
          case FaultKind::kConfigPushLoss:
          case FaultKind::kConfigPushStall:
          case FaultKind::kConfigSplitBrain:
            // Config-rollout control-plane kinds are drawn and applied
            // by the fleet's ConfigRollout, never by per-machine
            // injectors.
            break;
        }
    }
}

void
Machine::update_fault_plane()
{
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        TierStack::Entry &e = tiers_.entry(i);
        std::uint64_t fail_delta = 0;
        if (e.tier->kind() == TierKind::kRemote) {
            const RemoteTierStats &s =
                static_cast<RemoteTier *>(e.tier)->stats();
            fail_delta += s.read_failures - e.seen_read_failures;
            e.seen_read_failures = s.read_failures;
            e.seen_read_retries = s.read_retries;
            e.seen_reads_exhausted = s.reads_exhausted;
        } else if (e.tier->kind() == TierKind::kNvm) {
            const NvmTierStats &s =
                static_cast<NvmTier *>(e.tier)->stats();
            fail_delta += s.media_errors - e.seen_media_errors;
            e.seen_media_errors = s.media_errors;
        }
        if (!e.spec.breaker_enabled)
            continue;
        if (fail_delta > 0)
            e.breaker.record_failure();
        else
            e.breaker.record_success();
        e.breaker.tick();
    }
}

void
Machine::ckpt_save(Serializer &s) const
{
    s.put_u32(machine_id_);
    s.put_rng(rng_);
    s.put_u64(counters_.accesses);
    s.put_u64(counters_.promotions);
    s.put_u64(counters_.direct_reclaims);
    s.put_u64(counters_.evictions);
    s.put_double(counters_.kstaled_cycles);
    s.put_double(counters_.kreclaimd_cycles);
    s.put_i64(last_scan_);
    s.put_u32(scan_phase_);
    s.put_i64(last_telemetry_);
    s.put_u64(steps_);

    fault_.ckpt_save(s);
    // One fault-plane section per deep tier, in stack order.
    s.put_u64(tiers_.deep_size());
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        const TierStack::Entry &e = tiers_.entry(i);
        e.breaker.ckpt_save(s);
        s.put_i64(e.degraded_until);
        s.put_u64(e.seen_read_failures);
        s.put_u64(e.seen_read_retries);
        s.put_u64(e.seen_reads_exhausted);
        s.put_u64(e.seen_media_errors);
    }

    s.put_u64(jobs_.size());
    for (const auto &job : jobs_)
        job->ckpt_save(s);

    zswap_->ckpt_save(s);
    for (std::size_t i = 1; i < tiers_.size(); ++i)
        tiers_.tier(i).ckpt_save(s);
    agent_.ckpt_save(s);

    // Telemetry-only counters and step-end samples.
    s.put_u64(counters_.oom_evictions);
    s.put_u64(counters_.fault_kills);
    s.put_u64(counters_.nvm_spillover_pages);
    counters_.kstaled.ckpt_save(s);
    counters_.kreclaimd.ckpt_save(s);
    s.put_u64(counters_.resident_pages);
    s.put_u64(counters_.cold_pages);
    s.put_u64(counters_.far_memory_pages);
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        s.put_u64(tiers_.entry(i).step_end_used_pages);
        s.put_double(tiers_.entry(i).step_end_utilization);
    }
}

bool
Machine::ckpt_load(Deserializer &d)
{
    std::uint32_t id = d.get_u32();
    if (!d.ok() || id != machine_id_)
        return false;
    d.get_rng(rng_);
    counters_.accesses = d.get_u64();
    counters_.promotions = d.get_u64();
    counters_.direct_reclaims = d.get_u64();
    counters_.evictions = d.get_u64();
    counters_.kstaled_cycles = d.get_double();
    counters_.kreclaimd_cycles = d.get_double();
    last_scan_ = d.get_i64();
    scan_phase_ = d.get_u32();
    last_telemetry_ = d.get_i64();
    steps_ = d.get_u64();

    if (!fault_.ckpt_load(d))
        return false;
    std::uint64_t deep = d.get_u64();
    if (!d.ok() || deep != tiers_.deep_size())
        return false;
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        TierStack::Entry &e = tiers_.entry(i);
        if (!e.breaker.ckpt_load(d))
            return false;
        e.degraded_until = d.get_i64();
        e.seen_read_failures = d.get_u64();
        e.seen_read_retries = d.get_u64();
        e.seen_reads_exhausted = d.get_u64();
        e.seen_media_errors = d.get_u64();
    }

    jobs_.clear();
    std::size_t num_jobs = d.get_size(d.remaining() / 64, 64);
    if (!d.ok())
        return false;
    std::map<JobId, Memcg *> cgs;
    for (std::size_t i = 0; i < num_jobs; ++i) {
        std::unique_ptr<Job> job = Job::ckpt_restore(d);
        if (job == nullptr)
            return false;
        auto [it, inserted] = cgs.emplace(job->id(), &job->memcg());
        if (!inserted)
            return false;
        jobs_.push_back(std::move(job));
    }

    if (!zswap_->ckpt_load(d))
        return false;
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        FarTier &tier = tiers_.tier(i);
        if (!tier.ckpt_load(d) || !tier.ckpt_resolve(cgs))
            return false;
    }
    if (!agent_.ckpt_load(d))
        return false;

    counters_.oom_evictions = d.get_u64();
    counters_.fault_kills = d.get_u64();
    counters_.nvm_spillover_pages = d.get_u64();
    if (!counters_.kstaled.ckpt_load(d) ||
        !counters_.kreclaimd.ckpt_load(d)) {
        return false;
    }
    counters_.resident_pages = d.get_u64();
    counters_.cold_pages = d.get_u64();
    counters_.far_memory_pages = d.get_u64();
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        tiers_.entry(i).step_end_used_pages = d.get_u64();
        tiers_.entry(i).step_end_utilization = d.get_double();
    }

    // Cross-structure accounting: the agent manages exactly the
    // machine's jobs, per-job far-memory residency reconciles with
    // the store and tier, and DRAM capacity is respected (checkpoints
    // are taken between steps, where handle_pressure() guarantees it).
    if (agent_.managed_jobs() != jobs_.size())
        return false;
    std::uint64_t zswap_pages = 0;
    std::vector<std::uint64_t> tier_counts(tiers_.size(), 0);
    for (const auto &job : jobs_) {
        if (agent_.slo_breaker_of(job->id()) == nullptr)
            return false;
        zswap_pages += job->memcg().zswap_pages();
        if (!job->memcg().add_tier_page_counts(tier_counts))
            return false;
    }
    if (zswap_pages != zswap_->stored_pages() || !handles_match_arena())
        return false;
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        if (tier_counts[i] != tiers_.tier(i).used_pages())
            return false;
    }
    if (!jobs_.empty() &&
        used_pages() - donated_pages_ > config_.dram_pages) {
        return false;
    }

    check_invariants();
    return d.ok();
}

MetricsSnapshot
Machine::telemetry_snapshot() const
{
    MetricsSnapshot snap;
    auto &counters = snap.counters;
    auto &gauges = snap.gauges;
    auto &histograms = snap.histograms;
    auto level = [](std::uint64_t v) { return static_cast<double>(v); };

    counters["machine.accesses"] = counters_.accesses;
    counters["machine.promotions"] = counters_.promotions;
    gauges["machine.resident_pages"] = level(counters_.resident_pages);
    gauges["machine.cold_pages"] = level(counters_.cold_pages);
    gauges["machine.far_memory_pages"] = level(counters_.far_memory_pages);
    // Event-driven rows appear with their first event.
    if (counters_.direct_reclaims > 0)
        counters["machine.direct_reclaims"] = counters_.direct_reclaims;
    if (counters_.oom_evictions > 0)
        counters["machine.evictions"] = counters_.oom_evictions;

    const ZswapStats &zs = zswap_->stats();
    counters["zswap.stores"] = zs.stores;
    counters["zswap.rejects"] = zs.rejects;
    counters["zswap.incompressible_marks"] = zs.rejects;
    counters["zswap.promotions"] = zs.promotions;
    counters["zswap.poisoned_entries"] = zs.poisoned_entries;
    gauges["zswap.arena_bytes"] = level(zswap_->pool_bytes());
    gauges["zswap.stored_pages"] = level(zswap_->stored_pages());
    histograms["zswap.payload_bytes"] = zs.payload_bytes;

    const KstaledStats &ks = counters_.kstaled;
    counters["kstaled.scans"] = ks.scans;
    counters["kstaled.pages_scanned"] = ks.pages_scanned;
    counters["kstaled.pages_accessed"] = ks.pages_accessed;
    histograms["kstaled.scan_cycles"] = ks.scan_cycles;

    const KreclaimdStats &kr = counters_.kreclaimd;
    counters["kreclaimd.passes"] = kr.passes;
    counters["kreclaimd.direct_passes"] = kr.direct_passes;
    counters["kreclaimd.pages_walked"] = kr.pages_walked;
    counters["kreclaimd.pages_stored"] = kr.pages_stored;
    // Historical name: "nvm" meant "the (only) deep tier" before the
    // stack generalization. Kept so dashboards and baselines compare.
    counters["kreclaimd.pages_to_nvm"] = kr.pages_to_tier;
    counters["kreclaimd.pages_rejected"] = kr.pages_rejected;
    counters["kreclaimd.huge_splits"] = kr.huge_splits;
    histograms["kreclaimd.pass_cycles"] = kr.pass_cycles;

    const NodeAgentStats &as = agent_.stats();
    counters["agent.control_rounds"] = as.control_rounds;
    counters["agent.slo_violations"] = as.slo_violations;
    counters["agent.restarts"] = as.restarts;
    counters["agent.slo_breaker_trips"] = as.slo_breaker_trips;
    gauges["agent.jobs"] = level(as.jobs);
    gauges["agent.threshold_sum"] = as.threshold_sum;
    histograms["agent.promo_rate"] = as.promo_rate;
    counters["controller.updates"] = as.controller_updates;
    counters["controller.slo_unsatisfiable"] =
        as.controller_slo_unsatisfiable;
    histograms["controller.threshold"] = as.controller_threshold;

    // Fault plane: each row appears with its first event. Donor and
    // NVM faults only land when the stack has a tier of that kind.
    const FaultStats &fs = fault_.stats();
    bool has_remote = tiers_.find(TierKind::kRemote) < tiers_.size();
    std::size_t ni = tiers_.find(TierKind::kNvm);
    if (fs.injected_total > 0)
        counters["fault.injected"] = fs.injected_total;
    if (has_remote && fs.donor_failures > 0) {
        counters["fault.donor_failures"] = fs.donor_failures;
        counters["fault.jobs_killed"] = counters_.fault_kills;
    }
    if (fs.zswap_corruptions > 0)
        counters["fault.corruptions"] = zs.corruptions_injected;
    if (ni < tiers_.size() && fs.nvm_capacity_losses > 0) {
        counters["fault.nvm_capacity_lost_pages"] =
            static_cast<const NvmTier &>(tiers_.tier(ni))
                .stats()
                .capacity_lost_pages;
        counters["fault.nvm_spillover_pages"] =
            counters_.nvm_spillover_pages;
    }
    std::uint64_t read_retries = 0;
    std::uint64_t reads_exhausted = 0;
    std::uint64_t media_errors = 0;
    std::uint64_t breaker_opens = 0;
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        const TierStack::Entry &e = tiers_.entry(i);
        read_retries += e.seen_read_retries;
        reads_exhausted += e.seen_reads_exhausted;
        media_errors += e.seen_media_errors;
        if (e.spec.breaker_enabled)
            breaker_opens += e.breaker.stats().opens;
    }
    if (read_retries > 0)
        counters["fault.remote_read_retries"] = read_retries;
    if (reads_exhausted > 0)
        counters["fault.remote_reads_exhausted"] = reads_exhausted;
    if (media_errors > 0)
        counters["fault.nvm_media_errors"] = media_errors;
    if (breaker_opens > 0)
        counters["fault.tier_breaker_opens"] = breaker_opens;
    auto breaker_level = [](const CircuitBreaker &b) {
        return static_cast<double>(static_cast<std::uint8_t>(b.state()));
    };
    // Historical gauge for the first deep tier's breaker, first set
    // by the first step's fault-plane update.
    if (steps_ > 0 && tiers_.deep_size() > 0 &&
        tiers_.entry(1).spec.breaker_enabled) {
        gauges["fault.tier_breaker_state"] =
            breaker_level(tiers_.entry(1).breaker);
    }

    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        const TierStack::Entry &e = tiers_.entry(i);
        std::string prefix = "tier." + e.spec.label + ".";
        counters[prefix + "demotions"] += tier_stores(*e.tier);
        gauges[prefix + "stored_pages"] = level(e.step_end_used_pages);
        gauges[prefix + "utilization"] = e.step_end_utilization;
        if (e.spec.breaker_enabled)
            gauges[prefix + "breaker_state"] = breaker_level(e.breaker);
    }
    return snap;
}

std::uint64_t
Machine::resident_pages() const
{
    std::uint64_t total = 0;
    for (const auto &job : jobs_)
        total += job->memcg().resident_pages();
    return total;
}

std::uint64_t
Machine::zswap_pool_pages() const
{
    return (zswap_->pool_bytes() + kPageSize - 1) / kPageSize;
}

std::uint64_t
Machine::used_pages() const
{
    return resident_pages() + zswap_pool_pages() + donated_pages_;
}

std::uint64_t
Machine::free_pages() const
{
    std::uint64_t used = used_pages();
    return used >= config_.dram_pages ? 0 : config_.dram_pages - used;
}

std::uint64_t
Machine::cold_pages_min_threshold() const
{
    std::uint64_t total = 0;
    for (const auto &job : jobs_)
        total += job->memcg().cold_pages_min_threshold();
    return total;
}

double
Machine::cold_memory_coverage() const
{
    std::uint64_t cold = cold_pages_min_threshold();
    if (cold == 0)
        return 0.0;
    return static_cast<double>(far_memory_pages()) /
           static_cast<double>(cold);
}

}  // namespace sdfm

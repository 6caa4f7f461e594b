#include "node/node_agent.h"

#include "util/logging.h"

namespace sdfm {

NodeAgent::NodeAgent(const NodeAgentConfig &config) : config_(config)
{
}

void
NodeAgentStats::ckpt_save(Serializer &s) const
{
    s.put_u64(restarts);
    s.put_u64(slo_breaker_trips);
    s.put_u64(control_rounds);
    s.put_u64(slo_violations);
    s.put_u64(jobs);
    s.put_double(threshold_sum);
    promo_rate.ckpt_save(s);
    s.put_u64(controller_updates);
    s.put_u64(controller_slo_unsatisfiable);
    controller_threshold.ckpt_save(s);
}

bool
NodeAgentStats::ckpt_load(Deserializer &d)
{
    restarts = d.get_u64();
    slo_breaker_trips = d.get_u64();
    control_rounds = d.get_u64();
    slo_violations = d.get_u64();
    jobs = d.get_u64();
    threshold_sum = d.get_double();
    if (!promo_rate.ckpt_load(d))
        return false;
    controller_updates = d.get_u64();
    controller_slo_unsatisfiable = d.get_u64();
    return controller_threshold.ckpt_load(d);
}

NodeAgent::JobState
NodeAgent::make_state(const Memcg &cg, SimTime job_start) const
{
    // Snapshots seed from the job's current kernel-side state: zero
    // for a fresh job, the live histograms after an agent restart
    // (the kernel keeps counting while the agent is down, and a
    // restarted agent must not interpret that backlog as one
    // period's delta).
    return JobState{ThresholdController(config_.slo, job_start),
                    cg.promo_hist(), cg.promo_hist(), cg.stats(),
                    cg.stats().zswap_promotions,
                    CircuitBreaker(config_.slo_breaker)};
}

void
NodeAgent::register_job(const Memcg &cg)
{
    auto [it, inserted] =
        jobs_.emplace(cg.id(), make_state(cg, cg.start_time()));
    SDFM_ASSERT(inserted);
}

void
NodeAgent::crash_restart(SimTime now, std::vector<Memcg *> &jobs)
{
    ++stats_.restarts;
    jobs_.clear();
    for (Memcg *cg : jobs) {
        jobs_.emplace(cg->id(), make_state(*cg, now));
        // The restarted agent starts conservative: reclaim off until
        // its controllers re-enter steady state after the S-second
        // warmup, exactly as for a newly started job.
        cg->set_reclaim_threshold(0);
        cg->set_zswap_enabled(false);
    }
}

void
NodeAgent::unregister_job(JobId id)
{
    std::size_t erased = jobs_.erase(id);
    SDFM_ASSERT(erased == 1);
}

NodeAgent::JobState &
NodeAgent::state_of(const Memcg &cg)
{
    auto it = jobs_.find(cg.id());
    SDFM_ASSERT(it != jobs_.end());
    return it->second;
}

void
NodeAgent::control(SimTime now, std::vector<Memcg *> &jobs,
                   double period_minutes)
{
    double threshold_sum = 0.0;
    for (Memcg *cg : jobs) {
        JobState &state = state_of(*cg);

        // Realized promotion-rate SLI for the period just ended (the
        // would-be rate drives the controller; this is what the job
        // actually experienced, the quantity the SLO is stated over).
        std::uint64_t promos = cg->stats().zswap_promotions;
        std::uint64_t delta_promos = promos - state.control_promotions;
        state.control_promotions = promos;
        std::uint64_t wss = cg->wss_pages();
        bool breached = false;
        if (wss > 0) {
            double rate = static_cast<double>(delta_promos) /
                          static_cast<double>(wss) / period_minutes;
            breached = rate > config_.slo.target_promotion_rate;
            stats_.promo_rate.observe(rate);
            if (breached)
                ++stats_.slo_violations;
        }

        // Per-job SLO circuit breaker: N consecutive breached periods
        // disable zswap outright; the half-open probe re-enables it
        // with exponentially longer hold-offs on repeat offenses.
        bool slo_forced_off = false;
        if (config_.slo_breaker_enabled) {
            if (breached) {
                if (state.slo_breaker.record_failure())
                    ++stats_.slo_breaker_trips;
            } else {
                state.slo_breaker.record_success();
            }
            state.slo_breaker.tick();
            slo_forced_off = !state.slo_breaker.allow();
        }

        AgeBucket threshold = 0;
        switch (config_.policy) {
          case FarMemoryPolicy::kProactive: {
            AgeHistogram delta = AgeHistogram::delta(
                cg->promo_hist(), state.control_snapshot);
            state.control_snapshot = cg->promo_hist();
            threshold = state.controller.update(now, delta,
                                                cg->wss_pages(),
                                                period_minutes);
            ++stats_.controller_updates;
            // 255: even the coldest bucket would blow the promotion
            // budget this period; the job is effectively
            // un-zswappable.
            if (state.controller.last_observation() == 255)
                ++stats_.controller_slo_unsatisfiable;
            stats_.controller_threshold.observe(
                static_cast<double>(threshold));
            break;
          }
          case FarMemoryPolicy::kStatic:
            // The delay window is keyed off the controller's start,
            // not the memcg's, so an agent crash_restart re-enters
            // the warmup for static jobs too.
            threshold = (now - state.controller.job_start() >=
                         config_.slo.enable_delay)
                            ? config_.static_threshold
                            : 0;
            break;
          case FarMemoryPolicy::kReactive:
          case FarMemoryPolicy::kOff:
            threshold = 0;  // no proactive reclaim
            break;
        }
        if (slo_forced_off)
            threshold = 0;  // breaker open: job opted out of zswap
        cg->set_reclaim_threshold(threshold);
        cg->set_zswap_enabled(threshold > 0);
        // Soft limit: protect the working set from direct reclaim.
        cg->set_soft_limit_pages(cg->wss_pages());
        threshold_sum += static_cast<double>(threshold);
    }
    ++stats_.control_rounds;
    stats_.jobs = jobs.size();
    stats_.threshold_sum = threshold_sum;
}

void
NodeAgent::export_telemetry(SimTime now, std::vector<Memcg *> &jobs,
                            TraceLog *sink)
{
    for (Memcg *cg : jobs) {
        JobState &state = state_of(*cg);
        TraceEntry entry;
        entry.job = cg->id();
        entry.timestamp = now;
        entry.wss_pages = cg->wss_pages();
        entry.promo_delta =
            AgeHistogram::delta(cg->promo_hist(), state.telemetry_snapshot);
        entry.cold_hist = cg->cold_hist();

        const MemcgStats &cur = cg->stats();
        const MemcgStats &prev = state.sli_snapshot;
        JobSli &sli = entry.sli;
        sli.zswap_promotions_delta =
            cur.zswap_promotions - prev.zswap_promotions;
        sli.zswap_stores_delta = cur.zswap_stores - prev.zswap_stores;
        sli.zswap_rejects_delta = cur.zswap_rejects - prev.zswap_rejects;
        sli.zswap_pages = cg->zswap_pages();
        sli.resident_pages = cg->resident_pages();
        sli.cold_pages_min = cg->cold_pages_min_threshold();
        sli.compressed_bytes = cur.compressed_bytes_stored;
        sli.compress_cycles_delta =
            cur.compress_cycles - prev.compress_cycles;
        sli.decompress_cycles_delta =
            cur.decompress_cycles - prev.decompress_cycles;
        sli.app_cycles_delta = cur.app_cycles - prev.app_cycles;
        sli.decompress_latency_us_delta =
            cur.decompress_latency_us_sum - prev.decompress_latency_us_sum;

        state.telemetry_snapshot = cg->promo_hist();
        state.sli_snapshot = cur;
        if (sink != nullptr)
            sink->append(std::move(entry));
    }
}

const CircuitBreaker *
NodeAgent::slo_breaker_of(JobId id) const
{
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : &it->second.slo_breaker;
}

void
NodeAgent::ckpt_save(Serializer &s) const
{
    ckpt_save_slo(s, config_.slo);
    s.put_u64(config_epoch_);
    stats_.ckpt_save(s);

    s.put_u64(jobs_.size());
    for (const auto &[id, state] : jobs_) {
        s.put_u64(id);
        state.controller.ckpt_save(s);
        s.put_age_histogram(state.control_snapshot);
        s.put_age_histogram(state.telemetry_snapshot);
        ckpt_save_memcg_stats(s, state.sli_snapshot);
        s.put_u64(state.control_promotions);
        state.slo_breaker.ckpt_save(s);
    }
}

bool
NodeAgent::ckpt_load(Deserializer &d)
{
    if (!ckpt_load_slo(d, config_.slo))
        return false;
    config_epoch_ = d.get_u64();
    if (!stats_.ckpt_load(d))
        return false;

    jobs_.clear();
    std::size_t num = d.get_size(d.remaining() / 64, 64);
    if (!d.ok())
        return false;
    JobId prev_id = 0;
    for (std::size_t i = 0; i < num; ++i) {
        JobId id = d.get_u64();
        if (!d.ok() || (i > 0 && id <= prev_id))
            return false;
        prev_id = id;
        JobState state{
            ThresholdController(config_.slo, 0),
            AgeHistogram{}, AgeHistogram{}, MemcgStats{}, 0,
            CircuitBreaker(config_.slo_breaker)};
        if (!state.controller.ckpt_load(d))
            return false;
        d.get_age_histogram(state.control_snapshot);
        d.get_age_histogram(state.telemetry_snapshot);
        if (!ckpt_load_memcg_stats(d, state.sli_snapshot))
            return false;
        state.control_promotions = d.get_u64();
        if (!state.slo_breaker.ckpt_load(d))
            return false;
        jobs_.emplace(id, std::move(state));
    }
    return d.ok();
}

void
NodeAgent::set_slo(const SloConfig &slo)
{
    config_.slo = slo;
    // Controllers keep their observation pools; only the tunables
    // change (staged autotuner deployment, Section 5.3). SLO-breaker
    // streaks do NOT carry over: consecutive breaches accumulated
    // under the old tunables would otherwise trip the breaker on the
    // first breach under the new ones, punishing a config for its
    // predecessor's behaviour.
    for (auto &[id, state] : jobs_) {
        state.controller.set_slo(slo);
        state.slo_breaker.reset_streak();
    }
}

void
NodeAgent::deploy_slo(SimTime now, const SloConfig &slo,
                      std::uint64_t epoch, bool conservative,
                      std::vector<Memcg *> &jobs)
{
    set_slo(slo);
    config_epoch_ = epoch;
    if (!conservative)
        return;
    // Rollback posture: every job re-enters the S-second warmup via
    // the controller's own deployment anchor, mirroring
    // crash_restart() -- but the observation pools survive, so steady
    // state resumes from history once the delay elapses.
    for (Memcg *cg : jobs) {
        auto it = jobs_.find(cg->id());
        if (it == jobs_.end())
            continue;
        it->second.controller.reenter_warmup(now);
        cg->set_reclaim_threshold(0);
        cg->set_zswap_enabled(false);
    }
}

}  // namespace sdfm

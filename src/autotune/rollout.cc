#include "autotune/rollout.h"

#include <algorithm>
#include <cmath>

#include "util/invariant.h"
#include "util/logging.h"

namespace sdfm {

const char *
rollout_state_name(RolloutState state)
{
    switch (state) {
      case RolloutState::kIdle:
        return "idle";
      case RolloutState::kProposed:
        return "proposed";
      case RolloutState::kCanary:
        return "canary";
      case RolloutState::kExpanding:
        return "expanding";
      case RolloutState::kDeployed:
        return "deployed";
      case RolloutState::kRollingBack:
        return "rolling_back";
      case RolloutState::kRolledBack:
        return "rolled_back";
    }
    return "unknown";
}

namespace {

/** The agent.promo_rate bucket bounds on @p machine. */
const std::vector<double> &
promo_bounds_of(const Machine &machine)
{
    return machine.agent().stats().promo_rate.upper_bounds;
}

void
digest_slo(StateDigest &d, const SloConfig &slo)
{
    d.mix_double(slo.target_promotion_rate);
    d.mix_double(slo.percentile_k);
    d.mix(static_cast<std::uint64_t>(slo.enable_delay));
    d.mix(slo.history_window);
}

}  // namespace

ConfigRollout::ConfigRollout(const RolloutParams &params,
                             const SloConfig &initial,
                             std::uint64_t seed_mix,
                             std::vector<std::uint32_t> machines_per_cluster)
    : params_(params),
      machines_per_cluster_(std::move(machines_per_cluster)),
      current_(initial),
      old_(initial),
      candidate_(initial),
      rng_(params.seed ^ seed_mix ^ 0x9D10CA11ULL),
      fault_(params.fault, seed_mix ^ params.seed)
{
    SDFM_ASSERT(!params_.stage_fractions.empty());
    for (std::size_t i = 0; i < params_.stage_fractions.size(); ++i) {
        double frac = params_.stage_fractions[i];
        SDFM_ASSERT(frac > 0.0 && frac <= 1.0);
        if (i > 0)
            SDFM_ASSERT(frac > params_.stage_fractions[i - 1]);
    }
    SDFM_ASSERT(params_.stage_fractions.back() == 1.0);
    SDFM_ASSERT(params_.observe_periods > 0);
}

Machine &
ConfigRollout::machine_at(const MachineView &clusters,
                          std::uint64_t key) const
{
    std::size_t cluster = static_cast<std::size_t>(key >> 32);
    std::size_t machine = static_cast<std::size_t>(key & 0xFFFFFFFFULL);
    SDFM_ASSERT(cluster < clusters.size());
    SDFM_ASSERT(machine < clusters[cluster]->size());
    return *(*clusters[cluster])[machine];
}

ConfigRollout::GuardrailCounters
ConfigRollout::read_counters(const Machine &machine) const
{
    const NodeAgentStats &agent = machine.agent().stats();
    GuardrailCounters g;
    g.breaker_trips = agent.slo_breaker_trips;
    g.poisoned_entries = machine.zswap().stats().poisoned_entries;
    g.evictions = machine.counters().oom_evictions;
    g.promo_counts = agent.promo_rate.counts;
    return g;
}

double
ConfigRollout::p98_of(const std::vector<double> &bounds,
                      const std::vector<std::uint64_t> &counts)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    // Smallest bucket whose cumulative count reaches ceil(0.98 N);
    // integer arithmetic so the rank is exact and deterministic.
    std::uint64_t rank = (total * 98 + 99) / 100;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        cum += counts[i];
        if (cum >= rank) {
            if (i < bounds.size())
                return bounds[i];
            break;  // overflow bucket
        }
    }
    // The p98 observation landed beyond every bucket bound; report a
    // value strictly above them all so the guardrail sees the tail.
    return bounds.empty() ? 0.0 : bounds.back() * 2.0;
}

bool
ConfigRollout::propose(SimTime now, const SloConfig &candidate,
                       const MachineView &clusters)
{
    (void)now;
    if (state_ != RolloutState::kIdle &&
        state_ != RolloutState::kDeployed &&
        state_ != RolloutState::kRolledBack) {
        return false;
    }
    ++stats_.proposals;
    old_ = current_;
    candidate_ = candidate;
    target_epoch_ = ++epoch_counter_;
    state_ = RolloutState::kProposed;
    stage_ = 0;
    baseline_elapsed_ = 0;
    baseline_span_ = 0;
    observed_ = 0;
    window_active_ = false;
    window_base_.clear();
    ledger_.clear();
    pending_.clear();
    base_trips_rate_ = 0.0;
    base_poison_rate_ = 0.0;
    base_evict_rate_ = 0.0;
    base_p98_ = 0.0;

    // Baseline snapshot: every machine's guardrail counters at
    // proposal time, so the kProposed window measures pre-rollout
    // event rates to compare cohorts against.
    baseline_base_.clear();
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        for (std::size_t m = 0; m < clusters[c]->size(); ++m) {
            std::uint64_t key = key_of(static_cast<std::uint32_t>(c),
                                       static_cast<std::uint32_t>(m));
            baseline_base_[key] = read_counters(*(*clusters[c])[m]);
        }
    }

    // Seeded per-cluster cohorts: one Fisher-Yates shuffle per
    // cluster, sliced by the cumulative stage fractions, each slice
    // sorted so later walks are in index order.
    const std::size_t stages = params_.stage_fractions.size();
    cohorts_.assign(clusters.size(), {});
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        const std::size_t count = clusters[c]->size();
        cohorts_[c].assign(stages, {});
        if (count == 0)
            continue;
        std::vector<std::uint32_t> perm(count);
        for (std::size_t i = 0; i < count; ++i)
            perm[i] = static_cast<std::uint32_t>(i);
        for (std::size_t i = count - 1; i > 0; --i) {
            std::size_t j =
                static_cast<std::size_t>(rng_.next_below(i + 1));
            std::swap(perm[i], perm[j]);
        }
        std::size_t prev = 0;
        for (std::size_t s = 0; s < stages; ++s) {
            std::size_t want =
                (s + 1 == stages)
                    ? count
                    : static_cast<std::size_t>(std::ceil(
                          params_.stage_fractions[s] *
                          static_cast<double>(count)));
            want = std::clamp(want, std::size_t{1}, count);
            want = std::max(want, prev);
            cohorts_[c][s].assign(
                perm.begin() + static_cast<std::ptrdiff_t>(prev),
                perm.begin() + static_cast<std::ptrdiff_t>(want));
            std::sort(cohorts_[c][s].begin(), cohorts_[c][s].end());
            prev = want;
        }
    }
    return true;
}

void
ConfigRollout::enqueue_stage(std::size_t stage, SimTime now)
{
    for (std::size_t c = 0; c < cohorts_.size(); ++c) {
        for (std::uint32_t m : cohorts_[c][stage]) {
            pending_.push_back(
                PendingPush{key_of(static_cast<std::uint32_t>(c), m),
                            target_epoch_, true, 0, now});
        }
    }
}

void
ConfigRollout::finish_baseline(const MachineView &clusters)
{
    std::uint64_t trips = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t evictions = 0;
    std::vector<std::uint64_t> promo_delta;
    std::vector<double> bounds;
    std::uint64_t machines = 0;
    for (const auto &[key, base] : baseline_base_) {
        const Machine &m = machine_at(clusters, key);
        GuardrailCounters cur = read_counters(m);
        trips += cur.breaker_trips - base.breaker_trips;
        poisoned += cur.poisoned_entries - base.poisoned_entries;
        evictions += cur.evictions - base.evictions;
        if (cur.promo_counts.size() == base.promo_counts.size()) {
            if (promo_delta.size() < cur.promo_counts.size())
                promo_delta.resize(cur.promo_counts.size(), 0);
            for (std::size_t i = 0; i < cur.promo_counts.size(); ++i)
                promo_delta[i] +=
                    cur.promo_counts[i] - base.promo_counts[i];
        }
        if (bounds.empty())
            bounds = promo_bounds_of(m);
        ++machines;
    }
    // Divide by the real periods the counters span -- push-plane
    // stalls freeze baseline_elapsed_ but not the machines, and an
    // inflated base rate would loosen every guardrail downstream.
    double denom = static_cast<double>(machines) *
                   static_cast<double>(baseline_span_);
    if (denom > 0.0) {
        base_trips_rate_ = static_cast<double>(trips) / denom;
        base_poison_rate_ = static_cast<double>(poisoned) / denom;
        base_evict_rate_ = static_cast<double>(evictions) / denom;
    }
    base_p98_ = p98_of(bounds, promo_delta);
    // The per-machine bases have served their purpose; the rates and
    // tail estimate above are what the stage windows compare against.
    baseline_base_.clear();
}

std::uint32_t
ConfigRollout::audit(SimTime now, const MachineView &clusters)
{
    std::uint32_t mismatches = 0;
    for (const auto &[key, entry] : ledger_) {
        bool in_flight = false;
        for (const PendingPush &p : pending_) {
            if (p.key == key) {
                in_flight = true;
                break;
            }
        }
        if (in_flight)
            continue;
        Machine &m = machine_at(clusters, key);
        if (m.agent().config_epoch() != entry.expected_epoch) {
            // Split brain: the push was acknowledged (the ledger
            // advanced) but the machine still runs an older version.
            // Reconcile by redelivering the expected config.
            ++mismatches;
            ++stats_.split_brains;
            pending_.push_back(PendingPush{key, entry.expected_epoch,
                                           entry.to_new, 0, now});
        }
    }
    return mismatches;
}

bool
ConfigRollout::deliver(SimTime now, SimTime period,
                       const MachineView &clusters, std::uint32_t losses,
                       std::uint32_t splits)
{
    bool aborted = false;
    std::vector<PendingPush> keep;
    keep.reserve(pending_.size());
    for (PendingPush p : pending_) {
        if (p.next_attempt > now) {
            keep.push_back(p);
            continue;
        }
        if (losses > 0) {
            // This delivery is lost in flight. Candidate pushes get
            // bounded retries -- a config that cannot be pushed
            // reliably is treated like one that breached -- while
            // rollback pushes retry forever (abandoning a rollback is
            // never an option).
            --losses;
            ++stats_.pushes_lost;
            ++p.attempts;
            if (p.to_new && p.attempts > params_.max_push_retries) {
                ++stats_.pushes_aborted;
                aborted = true;
                continue;
            }
            std::uint32_t shift = std::min(p.attempts - 1, 6U);
            p.next_attempt =
                now + static_cast<SimTime>(params_.push_backoff_base
                                           << shift) *
                          period;
            keep.push_back(p);
            continue;
        }
        // Delivered (acknowledged): the ledger advances regardless of
        // whether the machine actually applies it.
        LedgerEntry &entry = ledger_[p.key];
        entry.expected_epoch = p.epoch;
        entry.to_new = p.to_new;
        if (splits > 0) {
            // Split brain: acknowledged but never applied. The
            // machine keeps its old config until the epoch audit
            // notices the discrepancy.
            --splits;
            continue;
        }
        Machine &m = machine_at(clusters, p.key);
        const SloConfig &cfg = p.to_new ? candidate_ : old_;
        bool conservative = !p.to_new && params_.conservative_rollback;
        m.deploy_slo(now + period, cfg, p.epoch, conservative);
        ++stats_.pushes_delivered;
    }
    pending_.swap(keep);
    if (aborted && state_ != RolloutState::kRollingBack)
        begin_rollback(now);
    return aborted;
}

bool
ConfigRollout::guardrails_breached(const MachineView &clusters) const
{
    std::uint64_t trips = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t evictions = 0;
    std::vector<std::uint64_t> promo_delta;
    std::vector<double> bounds;
    std::uint64_t switched = 0;
    for (const auto &[key, base] : window_base_) {
        const Machine &m = machine_at(clusters, key);
        GuardrailCounters cur = read_counters(m);
        trips += cur.breaker_trips - base.breaker_trips;
        poisoned += cur.poisoned_entries - base.poisoned_entries;
        evictions += cur.evictions - base.evictions;
        if (cur.promo_counts.size() == base.promo_counts.size()) {
            if (promo_delta.size() < cur.promo_counts.size())
                promo_delta.resize(cur.promo_counts.size(), 0);
            for (std::size_t i = 0; i < cur.promo_counts.size(); ++i)
                promo_delta[i] +=
                    cur.promo_counts[i] - base.promo_counts[i];
        }
        if (bounds.empty())
            bounds = promo_bounds_of(m);
        ++switched;
    }
    if (switched == 0)
        return false;

    const RolloutGuardrails &g = params_.guardrails;
    double machine_periods = static_cast<double>(switched) *
                             static_cast<double>(observed_);
    auto over = [&](std::uint64_t delta, double base_rate) {
        double allowance = static_cast<double>(g.counter_grace) +
                           g.counter_slack * base_rate * machine_periods;
        return static_cast<double>(delta) > allowance;
    };
    if (over(trips, base_trips_rate_) ||
        over(poisoned, base_poison_rate_) ||
        over(evictions, base_evict_rate_)) {
        return true;
    }

    // Tail promotion rate: the cohort's p98 realized rate may exceed
    // neither the SLO target nor the fleet's own pre-rollout tail by
    // more than the configured headroom.
    std::uint64_t observations = 0;
    for (std::uint64_t c : promo_delta)
        observations += c;
    if (observations > 0) {
        double p98 = p98_of(bounds, promo_delta);
        double limit =
            g.promo_headroom *
            std::max(old_.target_promotion_rate, base_p98_);
        if (p98 > limit)
            return true;
    }
    return false;
}

void
ConfigRollout::begin_rollback(SimTime now)
{
    state_ = RolloutState::kRollingBack;
    target_epoch_ = ++epoch_counter_;
    window_active_ = false;
    window_base_.clear();
    observed_ = 0;
    // Every machine the campaign touched (delivered or believed
    // delivered) gets the old config pushed back; candidate pushes
    // still in flight are simply dropped -- their machines never
    // switched.
    pending_.clear();
    for (const auto &[key, entry] : ledger_) {
        (void)entry;
        pending_.push_back(
            PendingPush{key, target_epoch_, false, 0, now});
    }
}

void
ConfigRollout::step(SimTime now, SimTime period,
                    const MachineView &clusters)
{
    if (state_ == RolloutState::kIdle ||
        state_ == RolloutState::kDeployed ||
        state_ == RolloutState::kRolledBack) {
        return;
    }
    SimTime end = now + period;

    // 1. Control-plane faults for this period, from the rollout's own
    // injector (per-machine injectors never draw these kinds).
    std::uint32_t losses = 0;
    std::uint32_t splits = 0;
    for (const FaultEvent &e : fault_.step(now, end)) {
        switch (e.kind) {
          case FaultKind::kConfigPushLoss:
            losses += e.magnitude;
            break;
          case FaultKind::kConfigPushStall:
            stalled_until_ = std::max(
                stalled_until_,
                end + (e.duration > 0
                           ? e.duration
                           : params_.fault.config_push_stall_duration));
            break;
          case FaultKind::kConfigSplitBrain:
            splits += e.magnitude;
            break;
          default:
            break;  // other kinds are not configured on this injector
        }
    }

    // 2. Stalled push plane: nothing is delivered, audited, or
    // observed -- the stage window freezes rather than silently
    // counting periods in which a bad canary could not have been
    // caught.
    if (now < stalled_until_) {
        ++stats_.stall_periods;
        // Machine counters keep accumulating through a stalled
        // baseline period even though baseline_elapsed_ freezes; the
        // rate denominator must span it.
        if (state_ == RolloutState::kProposed)
            ++baseline_span_;
        return;
    }

    // 3. Baseline measurement.
    if (state_ == RolloutState::kProposed) {
        ++baseline_elapsed_;
        ++baseline_span_;
        if (baseline_elapsed_ >= params_.baseline_periods) {
            finish_baseline(clusters);
            state_ = RolloutState::kCanary;
            stage_ = 0;
            enqueue_stage(0, now);
        }
        return;
    }

    // 4. Config-epoch audit before this period's deliveries, so a
    // push that was acknowledged but never applied is exposed for a
    // full period rather than masked by its own redelivery.
    std::uint32_t mismatches = audit(now, clusters);

    // A reconcile redelivery voids an open observation window: the
    // split-brain machine was running the wrong config while the
    // window's counters accumulated, and the redelivery itself may be
    // lost, which must never strand an in-flight push inside an open
    // window (the invariant checkpoints rely on). Close it; it
    // re-opens on the next push-free period, once the redelivery
    // lands.
    if (mismatches > 0 && window_active_) {
        window_active_ = false;
        window_base_.clear();
        observed_ = 0;
    }

    // A rollback is complete once every push landed and a full audit
    // pass found the fleet consistent.
    if (state_ == RolloutState::kRollingBack && mismatches == 0 &&
        pending_.empty()) {
        state_ = RolloutState::kRolledBack;
        ++stats_.rollbacks;
        return;
    }

    // 5. Deliver due pushes (may abort the stage and flip to
    // kRollingBack on retry exhaustion).
    deliver(now, period, clusters, losses, splits);

    if (state_ == RolloutState::kRollingBack || !pending_.empty())
        return;

    // 6. Stage observation. The window opens on the first push-free
    // period (counters snapshotted over the cumulative switched set)
    // and each subsequent period is evaluated against the guardrails.
    if (!window_active_) {
        window_base_.clear();
        for (const auto &[key, entry] : ledger_) {
            (void)entry;
            window_base_[key] =
                read_counters(machine_at(clusters, key));
        }
        observed_ = 0;
        window_active_ = true;
        return;
    }
    ++observed_;
    if (guardrails_breached(clusters)) {
        ++stats_.guardrail_breaches;
        begin_rollback(now);
        return;
    }
    if (observed_ >= params_.observe_periods) {
        ++stats_.stages_advanced;
        window_active_ = false;
        window_base_.clear();
        observed_ = 0;
        if (stage_ + 1 >= params_.stage_fractions.size()) {
            // Every stage held its window: the candidate is the
            // fleet's config.
            current_ = candidate_;
            state_ = RolloutState::kDeployed;
            ++stats_.deployments;
        } else {
            ++stage_;
            state_ = RolloutState::kExpanding;
            enqueue_stage(stage_, now);
        }
    }
}

MetricsSnapshot
ConfigRollout::telemetry_snapshot() const
{
    MetricsSnapshot snap;
    snap.counters["rollout.pushes_delivered"] = stats_.pushes_delivered;
    snap.counters["rollout.pushes_lost"] = stats_.pushes_lost;
    snap.counters["rollout.pushes_aborted"] = stats_.pushes_aborted;
    snap.counters["rollout.stall_periods"] = stats_.stall_periods;
    snap.counters["rollout.split_brains"] = stats_.split_brains;
    snap.counters["rollout.guardrail_breaches"] =
        stats_.guardrail_breaches;
    snap.counters["rollout.rollbacks"] = stats_.rollbacks;
    snap.counters["rollout.deployments"] = stats_.deployments;
    snap.gauges["rollout.state"] =
        static_cast<double>(static_cast<std::uint8_t>(state_));
    snap.gauges["rollout.stage"] = static_cast<double>(stage_);
    return snap;
}

void
ConfigRollout::check_invariants(const MachineView &clusters) const
{
    if constexpr (!kInvariantsEnabled)
        return;
    SDFM_INVARIANT(clusters.size() == machines_per_cluster_.size(),
                   "rollout cluster count matches the fleet");
    SDFM_INVARIANT(stage_ < params_.stage_fractions.size(),
                   "stage index within the configured stages");
    bool staging = state_ == RolloutState::kCanary ||
                   state_ == RolloutState::kExpanding;
    SDFM_INVARIANT(!window_active_ || staging,
                   "observation window only open while staging");
    SDFM_INVARIANT(!window_active_ || pending_.empty(),
                   "no in-flight pushes inside an open window");
    SDFM_INVARIANT(baseline_elapsed_ <= baseline_span_,
                   "baseline span covers every counted period");
    SDFM_INVARIANT(target_epoch_ <= epoch_counter_,
                   "active epoch was issued by the campaign");
    if (!cohorts_.empty()) {
        SDFM_INVARIANT(cohorts_.size() == clusters.size(),
                       "cohorts cover every cluster");
        for (std::size_t c = 0; c < cohorts_.size(); ++c) {
            std::vector<bool> seen(clusters[c]->size(), false);
            std::size_t assigned = 0;
            for (const auto &stage : cohorts_[c]) {
                for (std::uint32_t m : stage) {
                    SDFM_INVARIANT(m < clusters[c]->size(),
                                   "cohort member addresses a machine");
                    SDFM_INVARIANT(!seen[m],
                                   "stages are disjoint within a "
                                   "cluster");
                    seen[m] = true;
                    ++assigned;
                }
            }
            SDFM_INVARIANT(assigned == clusters[c]->size(),
                           "stages partition the cluster");
        }
    }
    for (const auto &[key, entry] : ledger_) {
        SDFM_INVARIANT(entry.expected_epoch <= epoch_counter_,
                       "ledger epoch was issued by the campaign");
        Machine &m = machine_at(clusters, key);
        SDFM_INVARIANT(m.agent().config_epoch() <= epoch_counter_,
                       "machine epoch was issued by the campaign");
    }
    for (const PendingPush &p : pending_) {
        (void)machine_at(clusters, p.key);
        SDFM_INVARIANT(p.epoch <= epoch_counter_,
                       "pending epoch was issued by the campaign");
    }
}

std::uint64_t
ConfigRollout::state_digest(const MachineView &clusters) const
{
    StateDigest d;
    d.mix(static_cast<std::uint64_t>(static_cast<std::uint8_t>(state_)));
    d.mix(stage_);
    d.mix(epoch_counter_);
    d.mix(target_epoch_);
    d.mix(static_cast<std::uint64_t>(stalled_until_));
    d.mix(baseline_elapsed_);
    d.mix(baseline_span_);
    d.mix(observed_);
    d.mix(window_active_ ? 1 : 0);
    digest_slo(d, current_);
    digest_slo(d, old_);
    digest_slo(d, candidate_);
    d.mix_double(base_trips_rate_);
    d.mix_double(base_poison_rate_);
    d.mix_double(base_evict_rate_);
    d.mix_double(base_p98_);
    d.mix(cohorts_.size());
    for (const auto &cluster : cohorts_) {
        d.mix(cluster.size());
        for (const auto &stage : cluster) {
            d.mix(stage.size());
            for (std::uint32_t m : stage)
                d.mix(m);
        }
    }
    auto digest_bases =
        [&d](const std::map<std::uint64_t, GuardrailCounters> &bases) {
            d.mix(bases.size());
            for (const auto &[key, g] : bases) {
                d.mix(key);
                d.mix(g.breaker_trips);
                d.mix(g.poisoned_entries);
                d.mix(g.evictions);
                d.mix(g.promo_counts.size());
                for (std::uint64_t c : g.promo_counts)
                    d.mix(c);
            }
        };
    digest_bases(baseline_base_);
    digest_bases(window_base_);
    d.mix(ledger_.size());
    for (const auto &[key, entry] : ledger_) {
        d.mix(key);
        d.mix(entry.expected_epoch);
        d.mix(entry.to_new ? 1 : 0);
    }
    d.mix(pending_.size());
    for (const PendingPush &p : pending_) {
        d.mix(p.key);
        d.mix(p.epoch);
        d.mix(p.to_new ? 1 : 0);
        d.mix(p.attempts);
        d.mix(static_cast<std::uint64_t>(p.next_attempt));
    }
    RngState rs = rng_.state();
    for (std::uint64_t w : rs.s)
        d.mix(w);
    // Control-plane fault streams advance with every rollout step.
    fault_.digest_into(d);
    d.mix(stats_.proposals);
    d.mix(stats_.pushes_delivered);
    d.mix(stats_.pushes_lost);
    d.mix(stats_.pushes_aborted);
    d.mix(stats_.stall_periods);
    d.mix(stats_.split_brains);
    d.mix(stats_.guardrail_breaches);
    d.mix(stats_.stages_advanced);
    d.mix(stats_.deployments);
    d.mix(stats_.rollbacks);
    // Every machine's live config version: a push applied on one
    // stepping but not another diverges the digest immediately.
    for (std::size_t c = 0; c < clusters.size(); ++c)
        for (std::size_t m = 0; m < clusters[c]->size(); ++m)
            d.mix((*clusters[c])[m]->agent().config_epoch());
    return d.value();
}

void
ConfigRollout::ckpt_save(Serializer &s) const
{
    s.put_u8(static_cast<std::uint8_t>(state_));
    s.put_u64(stage_);
    s.put_u64(epoch_counter_);
    s.put_u64(target_epoch_);
    s.put_i64(stalled_until_);
    s.put_u64(baseline_elapsed_);
    s.put_u64(baseline_span_);
    s.put_u64(observed_);
    s.put_bool(window_active_);
    ckpt_save_slo(s, current_);
    ckpt_save_slo(s, old_);
    ckpt_save_slo(s, candidate_);
    s.put_double(base_trips_rate_);
    s.put_double(base_poison_rate_);
    s.put_double(base_evict_rate_);
    s.put_double(base_p98_);
    s.put_u64(cohorts_.size());
    for (const auto &cluster : cohorts_) {
        s.put_u64(cluster.size());
        for (const auto &stage : cluster) {
            s.put_u64(stage.size());
            for (std::uint32_t m : stage)
                s.put_u32(m);
        }
    }
    auto save_bases =
        [&s](const std::map<std::uint64_t, GuardrailCounters> &bases) {
            s.put_u64(bases.size());
            for (const auto &[key, g] : bases) {
                s.put_u64(key);
                s.put_u64(g.breaker_trips);
                s.put_u64(g.poisoned_entries);
                s.put_u64(g.evictions);
                s.put_u64_vec(g.promo_counts);
            }
        };
    save_bases(baseline_base_);
    save_bases(window_base_);
    s.put_u64(ledger_.size());
    for (const auto &[key, entry] : ledger_) {
        s.put_u64(key);
        s.put_u64(entry.expected_epoch);
        s.put_bool(entry.to_new);
    }
    s.put_u64(pending_.size());
    for (const PendingPush &p : pending_) {
        s.put_u64(p.key);
        s.put_u64(p.epoch);
        s.put_bool(p.to_new);
        s.put_u32(p.attempts);
        s.put_i64(p.next_attempt);
    }
    s.put_rng(rng_);
    fault_.ckpt_save(s);
    s.put_u64(stats_.proposals);
    s.put_u64(stats_.pushes_delivered);
    s.put_u64(stats_.pushes_lost);
    s.put_u64(stats_.pushes_aborted);
    s.put_u64(stats_.stall_periods);
    s.put_u64(stats_.split_brains);
    s.put_u64(stats_.guardrail_breaches);
    s.put_u64(stats_.stages_advanced);
    s.put_u64(stats_.deployments);
    s.put_u64(stats_.rollbacks);
}

bool
ConfigRollout::ckpt_load(Deserializer &d)
{
    std::uint8_t state = d.get_u8();
    if (!d.ok() ||
        state > static_cast<std::uint8_t>(RolloutState::kRolledBack))
        return false;
    state_ = static_cast<RolloutState>(state);
    stage_ = d.get_u64();
    epoch_counter_ = d.get_u64();
    target_epoch_ = d.get_u64();
    stalled_until_ = d.get_i64();
    baseline_elapsed_ = d.get_u64();
    baseline_span_ = d.get_u64();
    observed_ = d.get_u64();
    window_active_ = d.get_bool();
    if (!d.ok() || stage_ >= params_.stage_fractions.size() ||
        target_epoch_ > epoch_counter_) {
        return false;
    }
    if (!ckpt_load_slo(d, current_) || !ckpt_load_slo(d, old_) ||
        !ckpt_load_slo(d, candidate_)) {
        return false;
    }
    base_trips_rate_ = d.get_double();
    base_poison_rate_ = d.get_double();
    base_evict_rate_ = d.get_double();
    base_p98_ = d.get_double();

    std::size_t num_clusters = d.get_size(machines_per_cluster_.size());
    if (!d.ok() ||
        (num_clusters != 0 &&
         num_clusters != machines_per_cluster_.size())) {
        return false;
    }
    cohorts_.clear();
    cohorts_.resize(num_clusters);
    for (std::size_t c = 0; c < num_clusters; ++c) {
        std::size_t stages = d.get_size(params_.stage_fractions.size());
        if (!d.ok() || stages != params_.stage_fractions.size())
            return false;
        cohorts_[c].resize(stages);
        for (std::size_t stg = 0; stg < stages; ++stg) {
            std::size_t count =
                d.get_size(machines_per_cluster_[c], 4);
            if (!d.ok())
                return false;
            cohorts_[c][stg].resize(count);
            for (std::size_t i = 0; i < count; ++i) {
                std::uint32_t m = d.get_u32();
                if (m >= machines_per_cluster_[c] ||
                    (i > 0 && m <= cohorts_[c][stg][i - 1])) {
                    return false;
                }
                cohorts_[c][stg][i] = m;
            }
        }
    }

    auto load_bases =
        [this, &d](std::map<std::uint64_t, GuardrailCounters> &bases) {
            bases.clear();
            std::size_t num = d.get_size(d.remaining() / 32, 32);
            if (!d.ok())
                return false;
            std::uint64_t prev_key = 0;
            for (std::size_t i = 0; i < num; ++i) {
                std::uint64_t key = d.get_u64();
                if (!d.ok() || (i > 0 && key <= prev_key) ||
                    !key_in_range(key)) {
                    return false;
                }
                prev_key = key;
                GuardrailCounters g;
                g.breaker_trips = d.get_u64();
                g.poisoned_entries = d.get_u64();
                g.evictions = d.get_u64();
                g.promo_counts = d.get_u64_vec();
                if (!d.ok())
                    return false;
                bases.emplace(key, std::move(g));
            }
            return true;
        };
    if (!load_bases(baseline_base_) || !load_bases(window_base_))
        return false;

    ledger_.clear();
    std::size_t num_ledger = d.get_size(d.remaining() / 17, 17);
    if (!d.ok())
        return false;
    std::uint64_t prev_key = 0;
    for (std::size_t i = 0; i < num_ledger; ++i) {
        std::uint64_t key = d.get_u64();
        if (!d.ok() || (i > 0 && key <= prev_key) || !key_in_range(key))
            return false;
        prev_key = key;
        LedgerEntry entry;
        entry.expected_epoch = d.get_u64();
        entry.to_new = d.get_bool();
        if (entry.expected_epoch > epoch_counter_)
            return false;
        ledger_.emplace(key, entry);
    }

    pending_.clear();
    std::size_t num_pending = d.get_size(d.remaining() / 29, 29);
    if (!d.ok())
        return false;
    for (std::size_t i = 0; i < num_pending; ++i) {
        PendingPush p;
        p.key = d.get_u64();
        p.epoch = d.get_u64();
        p.to_new = d.get_bool();
        p.attempts = d.get_u32();
        p.next_attempt = d.get_i64();
        if (!d.ok() || !key_in_range(p.key) ||
            p.epoch > epoch_counter_) {
            return false;
        }
        pending_.push_back(p);
    }

    d.get_rng(rng_);
    if (!fault_.ckpt_load(d))
        return false;
    stats_.proposals = d.get_u64();
    stats_.pushes_delivered = d.get_u64();
    stats_.pushes_lost = d.get_u64();
    stats_.pushes_aborted = d.get_u64();
    stats_.stall_periods = d.get_u64();
    stats_.split_brains = d.get_u64();
    stats_.guardrail_breaches = d.get_u64();
    stats_.stages_advanced = d.get_u64();
    stats_.deployments = d.get_u64();
    stats_.rollbacks = d.get_u64();
    if (!d.ok())
        return false;

    // State-machine coherence: a corrupt-but-parseable section must
    // not restore into a state the runtime can never produce (release
    // builds have no check_invariants backstop). These mirror the
    // staging invariants check_invariants enforces.
    bool staging = state_ == RolloutState::kCanary ||
                   state_ == RolloutState::kExpanding;
    if (window_active_ &&
        (!staging || !pending_.empty() ||
         observed_ >= params_.observe_periods)) {
        return false;
    }
    if (!window_active_ && (observed_ != 0 || !window_base_.empty()))
        return false;
    if (state_ != RolloutState::kProposed && !baseline_base_.empty())
        return false;
    if (state_ == RolloutState::kProposed &&
        baseline_elapsed_ >= params_.baseline_periods) {
        return false;
    }
    if (baseline_elapsed_ > params_.baseline_periods ||
        baseline_elapsed_ > baseline_span_) {
        return false;
    }
    if ((state_ == RolloutState::kIdle ||
         state_ == RolloutState::kProposed) &&
        (!ledger_.empty() || !pending_.empty())) {
        return false;
    }
    if ((state_ == RolloutState::kDeployed ||
         state_ == RolloutState::kRolledBack) &&
        !pending_.empty()) {
        return false;
    }
    return true;
}

bool
ConfigRollout::ckpt_resolve(const MachineView &clusters)
{
    // Cross-check the restored rollout against the restored machines:
    // the two halves of the checkpoint must describe the same fleet.
    if (clusters.size() != machines_per_cluster_.size())
        return false;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        if (clusters[c]->size() != machines_per_cluster_[c])
            return false;
    }
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        for (std::size_t m = 0; m < clusters[c]->size(); ++m) {
            // No machine may claim a config version this campaign (or
            // its predecessors) never issued.
            if ((*clusters[c])[m]->agent().config_epoch() >
                epoch_counter_) {
                return false;
            }
        }
    }
    bool staging = state_ == RolloutState::kCanary ||
                   state_ == RolloutState::kExpanding ||
                   state_ == RolloutState::kRollingBack;
    if (staging && target_epoch_ == 0)
        return false;
    if (window_active_ && !pending_.empty())
        return false;
    return true;
}

bool
ConfigRollout::key_in_range(std::uint64_t key) const
{
    std::size_t cluster = static_cast<std::size_t>(key >> 32);
    std::size_t machine = static_cast<std::size_t>(key & 0xFFFFFFFFULL);
    return cluster < machines_per_cluster_.size() &&
           machine < machines_per_cluster_[cluster];
}

}  // namespace sdfm

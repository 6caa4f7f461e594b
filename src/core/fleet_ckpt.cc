/**
 * @file
 * Whole-fleet checkpoint/restore (FarMemorySystem::checkpoint and
 * ::restore) plus the deterministic FleetConfig fingerprint the
 * "config" section carries.
 *
 * The fingerprint is compared byte-for-byte on restore -- there is no
 * config *parser*. Every trajectory-relevant field must therefore be
 * serialized here: two configs that differ in any such field must
 * produce different bytes (kConfigMismatch), and serial_step is the
 * one deliberate exclusion because serial and parallel stepping are
 * digest-identical by construction.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/far_memory_system.h"

namespace sdfm {

namespace {

void
save_cost_model(Serializer &s, const CostModelParams &p)
{
    s.put_double(p.cpu_ghz);
    s.put_double(p.compress_base_cycles);
    s.put_double(p.compress_cycles_per_input_byte);
    s.put_double(p.decompress_base_cycles);
    s.put_double(p.decompress_cycles_per_input_byte);
    s.put_double(p.decompress_cycles_per_output_byte);
    s.put_double(p.jitter_sigma);
}

void
save_breaker_params(Serializer &s, const CircuitBreakerParams &p)
{
    s.put_u32(p.failure_threshold);
    s.put_u64(p.open_periods);
    s.put_double(p.backoff_factor);
    s.put_u64(p.max_open_periods);
    s.put_u32(p.half_open_trials);
}

void
save_fault_config(Serializer &s, const FaultConfig &f)
{
    s.put_bool(f.enabled);
    s.put_u64(f.seed);
    s.put_double(f.donor_failure_prob);
    s.put_double(f.zswap_corruption_prob);
    s.put_double(f.remote_degrade_prob);
    s.put_double(f.nvm_latency_spike_prob);
    s.put_double(f.nvm_media_error_prob);
    s.put_double(f.nvm_capacity_loss_prob);
    s.put_double(f.agent_crash_prob);
    s.put_double(f.lease_grant_loss_prob);
    s.put_double(f.revocation_loss_prob);
    s.put_double(f.broker_stall_prob);
    s.put_double(f.config_push_loss_prob);
    s.put_double(f.config_push_stall_prob);
    s.put_double(f.config_split_brain_prob);
    s.put_u32(f.corruption_batch);
    s.put_i64(f.degrade_duration);
    s.put_double(f.remote_read_failure_prob);
    s.put_double(f.nvm_latency_multiplier);
    s.put_u32(f.media_error_burst);
    s.put_double(f.capacity_loss_frac);
    s.put_i64(f.broker_stall_duration);
    s.put_i64(f.config_push_stall_duration);
    s.put_u64(f.schedule.size());
    for (const ScheduledFault &sf : f.schedule) {
        s.put_i64(sf.at);
        s.put_u8(static_cast<std::uint8_t>(sf.event.kind));
        s.put_u32(sf.event.magnitude);
        s.put_i64(sf.event.duration);
    }
}

void
save_nvm_params(Serializer &s, const NvmTierParams &p)
{
    s.put_u64(p.capacity_pages);
    s.put_double(p.read_latency_us);
    s.put_double(p.write_latency_us);
    s.put_double(p.jitter_sigma);
    s.put_double(p.cost_per_byte_vs_dram);
}

void
save_remote_params(Serializer &s, const RemoteTierParams &p)
{
    s.put_double(p.read_latency_us);
    s.put_double(p.jitter_sigma);
    s.put_double(p.crypto_cycles_per_page);
    s.put_u32(p.max_read_retries);
    s.put_double(p.retry_backoff_base_us);
}

void
save_machine_config(Serializer &s, const MachineConfig &m)
{
    s.put_u64(m.dram_pages);
    s.put_u8(static_cast<std::uint8_t>(m.policy));
    ckpt_save_slo(s, m.slo);
    s.put_u8(m.static_threshold);
    s.put_u8(static_cast<std::uint8_t>(m.compression));
    save_cost_model(s, m.cost_model);
    s.put_bool(m.verify_zswap_roundtrip);
    s.put_i64(m.control_period);
    s.put_double(m.reactive_free_watermark);
    s.put_u64(m.compact_every);
    s.put_double(m.kstaled.cycles_per_page);
    s.put_u32(m.kstaled.scan_stride);
    s.put_double(m.kreclaimd.cycles_per_page);
    s.put_double(m.kreclaimd.split_cycles);
    save_fault_config(s, m.fault);
    s.put_bool(m.slo_breaker_enabled);
    save_breaker_params(s, m.slo_breaker);
    s.put_u64(m.tiers.size());
    for (const TierConfig &t : m.tiers) {
        s.put_u8(static_cast<std::uint8_t>(t.kind));
        s.put_string(t.label);
        save_nvm_params(s, t.nvm);
        save_remote_params(s, t.remote);
        s.put_double(t.band_lo);
        s.put_double(t.band_hi);
        s.put_bool(t.breaker_enabled);
        save_breaker_params(s, t.breaker);
    }
}

void
save_cluster_config(Serializer &s, const ClusterConfig &c)
{
    s.put_u32(c.num_machines);
    save_machine_config(s, c.machine);
    s.put_u64(c.mix.profiles.size());
    for (const JobProfile &profile : c.mix.profiles)
        ckpt_save_profile(s, profile);
    s.put_u64(c.mix.weights.size());
    for (double w : c.mix.weights)
        s.put_double(w);
    s.put_double(c.target_utilization);
    s.put_double(c.churn_per_hour);
    s.put_u64(c.platform_ghz.size());
    for (double ghz : c.platform_ghz)
        s.put_double(ghz);
    s.put_u8(static_cast<std::uint8_t>(c.placement));
    s.put_bool(c.pool.enabled);
    s.put_u64(c.pool.lease_pages);
    s.put_u32(c.pool.max_leases_per_borrower);
    s.put_u64(c.pool.lease_term_periods);
    s.put_u64(c.pool.grace_periods);
    s.put_u64(c.pool.drain_pages_per_period);
    s.put_double(c.pool.donor_reserve_frac);
    s.put_u32(c.pool.max_grant_retries);
    s.put_u64(c.pool.grant_backoff_base);
    s.put_bool(c.pool.breaker_enabled);
    save_breaker_params(s, c.pool.breaker);
    save_fault_config(s, c.pool.fault);
}

void
save_fleet_config(Serializer &s, const FleetConfig &config)
{
    s.put_u32(config.num_clusters);
    save_cluster_config(s, config.cluster);
    s.put_double(config.mix_weight_jitter);
    s.put_i64(config.start_time);
    s.put_u64(config.seed);
    s.put_bool(config.rollout.enabled);
    s.put_u64(config.rollout.seed);
    s.put_u64(config.rollout.stage_fractions.size());
    for (double frac : config.rollout.stage_fractions)
        s.put_double(frac);
    s.put_u64(config.rollout.baseline_periods);
    s.put_u64(config.rollout.observe_periods);
    s.put_double(config.rollout.guardrails.promo_headroom);
    s.put_double(config.rollout.guardrails.counter_slack);
    s.put_u64(config.rollout.guardrails.counter_grace);
    s.put_u32(config.rollout.max_push_retries);
    s.put_u64(config.rollout.push_backoff_base);
    s.put_bool(config.rollout.conservative_rollback);
    save_fault_config(s, config.rollout.fault);
}

std::string
cluster_section_name(std::size_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "cluster.%04zu", index);
    return buf;
}

std::string
pool_section_name(std::size_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "pool.%04zu", index);
    return buf;
}

/** Version of the per-cluster "pool.NNNN" broker section. Bumped
 *  whenever the broker/lease wire layout changes. */
constexpr std::uint32_t kPoolSectionVersion = 1;

/** Version of the fleet "rollout" section. Bumped whenever the
 *  ConfigRollout wire layout changes. Version 2: the baseline window
 *  carries its real period span (stall periods included). */
constexpr std::uint32_t kRolloutSectionVersion = 2;

}  // namespace

CkptStatus
FarMemorySystem::checkpoint(const std::string &path) const
{
    using SectionSaver = std::function<void(Serializer &)>;
    std::vector<std::pair<std::string, SectionSaver>> sections;
    sections.emplace_back("config", [this](Serializer &s) {
        save_fleet_config(s, config_);
    });
    sections.emplace_back("fleet", [this](Serializer &s) {
        s.put_i64(now_);
        s.put_u32(static_cast<std::uint32_t>(clusters_.size()));
    });
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        const Cluster *cluster = clusters_[c].get();
        sections.emplace_back(cluster_section_name(c),
                              [cluster](Serializer &s) {
                                  cluster->ckpt_save(s);
                              });
    }
    // Lease state rides in its own versioned per-cluster section so
    // the cluster/machine wire is unchanged when pooling is off.
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        const MemoryBroker *broker = clusters_[c]->broker();
        if (broker == nullptr)
            continue;
        sections.emplace_back(pool_section_name(c), [broker](Serializer &s) {
            s.put_u32(kPoolSectionVersion);
            broker->ckpt_save(s);
        });
    }
    // The rollout plane rides in its own versioned fleet section so
    // the cluster/machine wire is unchanged when it is disabled.
    if (rollout_ != nullptr) {
        sections.emplace_back("rollout", [this](Serializer &s) {
            s.put_u32(kRolloutSectionVersion);
            rollout_->ckpt_save(s);
        });
    }
    // The container wants ascending names. One buffer, reused for
    // every section, streams each to the file as soon as it is built,
    // so the checkpoint never exists in memory beyond its largest
    // section.
    std::sort(sections.begin(), sections.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    CkptWriter writer(path);
    Serializer s;
    for (const auto &[name, save] : sections) {
        s.clear();
        save(s);
        writer.add_section(name, s.bytes());
    }
    return writer.finish();
}

CkptStatus
FarMemorySystem::restore(const std::string &path)
{
    // The section CRCs are checked on the worker pool; the replica's
    // clusters load on this thread (see docs/ARCHITECTURE.md,
    // "Checkpoint format & recovery model").
    CkptReader reader;
    CkptStatus status = reader.read_file(path, pool_.get());
    if (status != CkptStatus::kOk)
        return status;

    const std::span<const std::uint8_t> *config_bytes =
        reader.section("config");
    if (config_bytes == nullptr)
        return CkptStatus::kCorruptPayload;
    Serializer expected;
    save_fleet_config(expected, config_);
    if (!std::ranges::equal(*config_bytes, expected.bytes()))
        return CkptStatus::kConfigMismatch;

    const std::span<const std::uint8_t> *fleet_bytes =
        reader.section("fleet");
    if (fleet_bytes == nullptr)
        return CkptStatus::kCorruptPayload;
    Deserializer fd(*fleet_bytes);
    SimTime now = fd.get_i64();
    std::uint32_t num_clusters = fd.get_u32();
    if (!fd.ok() || !fd.at_end() ||
        num_clusters != config_.num_clusters || now < config_.start_time)
        return CkptStatus::kCorruptPayload;

    // Stage into a replica fleet built from the identical config (so
    // construction consumes the same RNG draws and wires the same
    // machines); the live fleet is untouched until every section has
    // loaded and validated cleanly.
    FarMemorySystem replica(config_);
    for (std::size_t c = 0; c < replica.clusters_.size(); ++c) {
        const std::span<const std::uint8_t> *bytes =
            reader.section(cluster_section_name(c));
        if (bytes == nullptr)
            return CkptStatus::kCorruptPayload;
        Deserializer d(*bytes);
        if (!replica.clusters_[c]->ckpt_load(d) || !d.ok() || !d.at_end())
            return CkptStatus::kCorruptPayload;
    }
    for (std::size_t c = 0; c < replica.clusters_.size(); ++c) {
        MemoryBroker *broker = replica.clusters_[c]->broker();
        if (broker == nullptr)
            continue;
        const std::span<const std::uint8_t> *bytes =
            reader.section(pool_section_name(c));
        if (bytes == nullptr)
            return CkptStatus::kCorruptPayload;
        Deserializer d(*bytes);
        std::uint32_t version = d.get_u32();
        if (!d.ok())
            return CkptStatus::kCorruptPayload;
        if (version != kPoolSectionVersion)
            return CkptStatus::kBadVersion;
        // A corrupt lease table must never half-apply: ckpt_load
        // parses and validates, ckpt_resolve cross-checks the table
        // against the restored machines (donation accounts, lease
        // slots, breaker gates) -- any disagreement rejects the whole
        // restore with the replica discarded.
        if (!broker->ckpt_load(d) || !d.ok() || !d.at_end() ||
            !broker->ckpt_resolve(replica.clusters_[c]->machines())) {
            return CkptStatus::kCorruptPayload;
        }
    }

    if (replica.rollout_ != nullptr) {
        const std::span<const std::uint8_t> *bytes =
            reader.section("rollout");
        if (bytes == nullptr)
            return CkptStatus::kCorruptPayload;
        Deserializer d(*bytes);
        std::uint32_t version = d.get_u32();
        if (!d.ok())
            return CkptStatus::kCorruptPayload;
        if (version != kRolloutSectionVersion)
            return CkptStatus::kBadVersion;
        // A corrupt rollout section must never half-apply a campaign:
        // ckpt_load parses and validates, ckpt_resolve cross-checks
        // the ledger, cohorts and epochs against the restored
        // machines -- any disagreement rejects the whole restore with
        // the replica (and the live fleet's own rollout) untouched.
        if (!replica.rollout_->ckpt_load(d) || !d.ok() || !d.at_end() ||
            !replica.rollout_->ckpt_resolve(replica.machine_view_)) {
            return CkptStatus::kCorruptPayload;
        }
    }

    clusters_ = std::move(replica.clusters_);
    rollout_ = std::move(replica.rollout_);
    rebuild_machine_view();
    now_ = now;
    check_invariants();
    return CkptStatus::kOk;
}

}  // namespace sdfm

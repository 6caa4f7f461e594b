// fleetbench: the fleet benchmark of record.
//
// One workload per invocation, driven only through public entry
// points. The untraced run (always) builds the fleet, populates it and
// runs a fixed warmup; then each of several identical passes
// checkpoints the warm fleet and times a window of default parallel
// steps, every pass after the first starting from a restore of the
// previous pass's checkpoint into a fresh fleet. busy_fleet ends with
// the autotuner over the run's own traces. Every end-to-end number
// comes from this run.
//
// With --trace 1 a separate serial traced run follows. It restores
// the end-of-warmup checkpoint twice and replays a prefix of the same
// window, the two replicas interleaved step by step: replica A steps
// whole clusters (one span per cluster per step), replica B replays
// Machine::step's phases machine by machine (one span per phase per
// machine). Spans live in memory and are written out once, at the
// end. Per-layer numbers come only from this run.
//
// Output checks count as operations; any failure makes the exit code
// non-zero. Results go to --out as JSON and to stdout as tables.
//
// Usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR --out FILE

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "arith.h"
#include "autotune/autotuner.h"
#include "core/far_memory_system.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace sdfm;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kWorkerThreads = 4;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kCkptSamples = 5;
constexpr int kEvaluateRepeats = 3;
// The run length, in seconds, at which each workload runs its nominal
// number of passes (BENCHMARK.json's run_seconds).
constexpr double kNominalSeconds = 8.0;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Peak resident set of this process so far, in bytes. */
double
peak_rss_bytes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux
}

std::uint64_t
file_bytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
as_double(std::uint64_t v)
{
    return static_cast<double>(v);
}

// -- results ----------------------------------------------------------

using Counts = std::map<std::string, std::uint64_t>;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one invocation reports, in print order. */
struct Report
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    Counts counts;
    std::vector<std::pair<std::string, bool>> checks;
    std::vector<std::pair<std::string, std::string>> notes;

    void e2e(const std::string &n, double v, const std::string &u)
    {
        end_to_end.push_back({n, v, u});
    }
    void layer(const std::string &n, double v, const std::string &u)
    {
        per_layer.push_back({n, v, u});
    }
    void check(const std::string &what, bool ok)
    {
        checks.emplace_back(what, ok);
        if (!ok)
            std::printf("CHECK FAILED: %s\n", what.c_str());
    }
    void note(const std::string &k, const std::string &v)
    {
        notes.emplace_back(k, v);
    }
    std::size_t failed() const
    {
        return static_cast<std::size_t>(std::count_if(
            checks.begin(), checks.end(),
            [](const auto &c) { return !c.second; }));
    }
};

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

void
print_metrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n", title);
    for (const Metric &m : metrics) {
        std::printf("  %-28s %16.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

std::string
json_escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
write_metrics_json(std::FILE *f, const char *key,
                   const std::vector<Metric> &metrics)
{
    std::fprintf(f, "  \"%s\": {", key);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ",", metrics[i].name.c_str(),
                     metrics[i].value, metrics[i].unit.c_str());
    }
    std::fprintf(f, "\n  }");
}

bool
write_report(const std::string &path, const Report &r)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n");
    for (const auto &[k, v] : r.notes)
        std::fprintf(f, "  \"%s\": \"%s\",\n", k.c_str(),
                     json_escape(v).c_str());
    std::fprintf(f, "  \"attempted\": %zu,\n  \"failed\": %zu,\n",
                 r.checks.size(), r.failed());
    std::fprintf(f, "  \"checks\": {");
    for (std::size_t i = 0; i < r.checks.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": %s", i == 0 ? "" : ",",
                     json_escape(r.checks[i].first).c_str(),
                     r.checks[i].second ? "true" : "false");
    }
    std::fprintf(f, "\n  },\n  \"counts\": {");
    const char *sep = "";
    for (const auto &[name, v] : r.counts) {
        std::fprintf(f, "%s\n    \"%s\": %" PRIu64, sep, name.c_str(), v);
        sep = ",";
    }
    std::fprintf(f, "\n  },\n");
    write_metrics_json(f, "end_to_end", r.end_to_end);
    std::fprintf(f, ",\n");
    write_metrics_json(f, "per_layer", r.per_layer);
    std::fprintf(f, "\n}\n");
    return std::fclose(f) == 0;
}

// -- fleet-wide work counts -------------------------------------------

/** Telemetry counters whose deltas over the window are the work
 *  counts; they repeat exactly for a given seed. */
const char *const kWorkCounters[] = {
    "zswap.stores",          "zswap.promotions",       "zswap.rejects",
    "kstaled.pages_scanned", "kreclaimd.pages_walked", "kreclaimd.pages_stored",
    "kreclaimd.pages_to_nvm", "machine.accesses",      "machine.promotions",
    "pool.leases_granted",   "pool.revocations",       "fault.injected",
    "fault.jobs_killed",     "machine.evictions",      "agent.slo_violations",
};

/** Counter name -> cumulative value, plus agent.job_periods: the
 *  control periods observed per job (agent.promo_rate's count). */
Counts
read_counts(const MetricsSnapshot &s)
{
    Counts c;
    for (const char *name : kWorkCounters)
        c[name] = s.counter_or_zero(name);
    auto it = s.histograms.find("agent.promo_rate");
    c["agent.job_periods"] =
        it == s.histograms.end() ? 0 : it->second.total_count;
    return c;
}

Counts
delta(const Counts &after, const Counts &before)
{
    Counts d;
    for (const auto &[name, v] : after)
        d[name] = v - before.at(name);
    return d;
}

// -- fleet shape helpers ------------------------------------------------

std::uint64_t
simulated_pages(const FarMemorySystem &sys)
{
    std::uint64_t pages = 0;
    for (const auto &cluster : sys.clusters()) {
        for (const auto &machine : cluster->machines())
            pages += machine->resident_pages() + machine->far_memory_pages();
    }
    return pages;
}

std::uint64_t
machines_in(const FarMemorySystem &sys)
{
    std::uint64_t n = 0;
    for (const auto &cluster : sys.clusters())
        n += cluster->machines().size();
    return n;
}

/** Jobs killed over the run: OOM evictions plus fault and lease kills
 *  (every path that removes a job against its will). */
std::uint64_t
jobs_killed(const FarMemorySystem &sys)
{
    std::uint64_t n = 0;
    for (const auto &cluster : sys.clusters()) {
        for (const auto &machine : cluster->machines())
            n += machine->counters().evictions;
    }
    return n;
}

/** zsmalloc external fragmentation over every machine's arena. */
double
fleet_frag_ratio(FarMemorySystem &sys)
{
    double stored = 0.0;
    double pool = 0.0;
    for (auto &cluster : sys.clusters()) {
        for (auto &machine : cluster->machines()) {
            stored += as_double(machine->zswap().arena().stored_bytes());
            pool += as_double(machine->zswap().arena().pool_bytes());
        }
    }
    return pool > 0.0 ? 1.0 - stored / pool : 0.0;
}

ConfigRollout::MachineView
machine_view(FarMemorySystem &sys)
{
    ConfigRollout::MachineView view;
    for (auto &cluster : sys.clusters())
        view.push_back(&cluster->machines());
    return view;
}

/** Per-cluster digests plus the rollout's: the fleet digest minus the
 *  fleet clock, which replicas stepped from outside do not advance. */
std::vector<std::uint64_t>
cluster_digests(FarMemorySystem &sys)
{
    std::vector<std::uint64_t> d;
    for (auto &cluster : sys.clusters())
        d.push_back(cluster->state_digest());
    if (sys.rollout() != nullptr)
        d.push_back(sys.rollout()->state_digest(machine_view(sys)));
    return d;
}

/**
 * The machines' step schedule, reconstructed from the fleet's step
 * count with Machine::step's own rules: kstaled scans once per
 * kScanPeriod, the agent exports once per kTraceWindow, and the arena
 * compacts every compact_every machine steps. All machines are built
 * with the fleet and step in lockstep, so one schedule serves all.
 */
class Cadence
{
  public:
    explicit Cadence(const MachineConfig &m) : m_(m) {}

    StepKind next(SimTime now)
    {
        ++steps_;
        SimTime period_end = now + m_.control_period;
        StepKind k;
        k.scan = period_end - last_scan_ >= kScanPeriod;
        if (k.scan) {
            phase_ = scans_++;
            last_scan_ = period_end;
        }
        k.exports = period_end - last_export_ >= kTraceWindow;
        if (k.exports)
            last_export_ = period_end;
        k.compact = m_.compact_every > 0 && steps_ % m_.compact_every == 0;
        return k;
    }

    /** Stripe phase of the last scan step. */
    std::uint32_t phase() const { return phase_; }

  private:
    const MachineConfig &m_;
    std::uint64_t steps_ = 0;
    std::uint32_t scans_ = 0;
    std::uint32_t phase_ = 0;
    SimTime last_scan_ = -kScanPeriod;
    SimTime last_export_ = 0;
};

// -- span recording ------------------------------------------------------

enum Layer : std::uint8_t
{
    kCluster,
    kMachine,
    kBroker,
    kRunStep,
    kKstaled,
    kAgent,
    kReclaim,
    kExport,
    kCompact,
    kRollout,
    kRollup,
    kFrame,
    kNumLayers,
};

const char *const kLayerNames[kNumLayers] = {
    "cluster.step",     "node.machine", "cluster.broker",
    "workload.run_step", "mem.kstaled", "node.agent",
    "mem.kreclaimd",    "node.export",  "zsmalloc.compact",
    "autotune.rollout", "telemetry.rollup", "telemetry.frame",
};

constexpr std::uint32_t kNone = kNoParent;

struct SpanTag
{
    Layer layer;
    std::uint32_t period;
    std::uint32_t cluster;
    std::uint32_t machine;
};

/** In-memory span store; written out once, after the replay. */
class Tracer
{
  public:
    std::uint32_t begin(Layer layer, std::uint32_t parent,
                        std::uint32_t period, std::uint32_t cluster,
                        std::uint32_t machine)
    {
        auto id = static_cast<std::uint32_t>(spans_.size());
        tags_.push_back({layer, period, cluster, machine});
        spans_.push_back({parent, now_ns(), 0});
        return id;
    }

    void end(std::uint32_t id) { spans_[id].end_ns = now_ns(); }

    double ms(std::uint32_t id) const
    {
        return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) *
               1e-6;
    }

    template <typename F>
    void span(Layer layer, std::uint32_t parent, std::uint32_t period,
              std::uint32_t cluster, std::uint32_t machine, F &&body)
    {
        std::uint32_t id = begin(layer, parent, period, cluster, machine);
        body();
        end(id);
    }

    /** Self time per layer, summed over all spans, in ms. */
    std::vector<double> self_ms_by_layer() const
    {
        std::vector<double> ms(kNumLayers, 0.0);
        std::vector<std::int64_t> self = self_times(spans_);
        for (std::size_t i = 0; i < spans_.size(); ++i)
            ms[tags_[i].layer] += static_cast<double>(self[i]) * 1e-6;
        return ms;
    }

    /** Total duration of one layer's spans, in ms. */
    double total_ms(Layer layer) const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (tags_[i].layer == layer)
                total += ms(static_cast<std::uint32_t>(i));
        }
        return total;
    }

    bool write_csv(const std::string &path, const char *replica) const
    {
        std::FILE *f = std::fopen(path.c_str(), "a");
        if (f == nullptr)
            return false;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanTag &t = tags_[i];
            std::fprintf(f, "%s,%zu,%" PRId64 ",%s,%u,%" PRId64 ",%" PRId64
                         ",%" PRId64 ",%" PRId64 "\n",
                         replica, i,
                         spans_[i].parent == kNone
                             ? std::int64_t{-1}
                             : static_cast<std::int64_t>(spans_[i].parent),
                         kLayerNames[t.layer], t.period,
                         t.cluster == kNone ? std::int64_t{-1}
                                            : std::int64_t{t.cluster},
                         t.machine == kNone ? std::int64_t{-1}
                                            : std::int64_t{t.machine},
                         spans_[i].start_ns, spans_[i].end_ns);
        }
        return std::fclose(f) == 0;
    }

    std::size_t size() const { return spans_.size(); }

  private:
    std::vector<Span> spans_;
    std::vector<SpanTag> tags_;
};

/** A fresh fleet holding the end-of-warmup checkpoint. */
std::unique_ptr<FarMemorySystem>
restore_replica(const FleetConfig &config, const std::string &ckpt,
                Report &r, const char *which)
{
    FleetConfig serial = config;
    serial.serial_step = true;  // stepped from here, no worker pool
    auto sys = std::make_unique<FarMemorySystem>(serial);
    r.check(std::string("replica ") + which + " restore returns kOk",
            sys->restore(ckpt) == CkptStatus::kOk);
    return sys;
}

// -- replica A: whole clusters ------------------------------------------

/** Steps each cluster with Cluster::step, one span per cluster per
 *  step, then the rollout and the exporter as FarMemorySystem::step
 *  does. */
class ReplicaA
{
  public:
    ReplicaA(FarMemorySystem &sys, TelemetryExporter *exporter)
        : sys_(sys), exporter_(exporter), view_(machine_view(sys)),
          now_(sys.now()), period_(sys.config().cluster.machine.control_period)
    {
    }

    void step(std::uint32_t p)
    {
        auto t0 = Clock::now();
        auto &clusters = sys_.clusters();
        std::vector<double> cluster_ms(clusters.size());
        for (std::size_t c = 0; c < clusters.size(); ++c) {
            auto cid = static_cast<std::uint32_t>(c);
            std::uint32_t id = tracer.begin(kCluster, kNone, p, cid, kNone);
            ClusterStepResult res = clusters[c]->step(now_);
            tracer.end(id);
            cluster_ms[c] = tracer.ms(id);
            jobs_placed += res.rescheduled;
        }
        idle_sum_ += barrier_idle_frac(cluster_ms);
        ++steps_;
        if (sys_.rollout() != nullptr) {
            tracer.span(kRollout, kNone, p, kNone, kNone, [&] {
                sys_.rollout()->step(now_, period_, view_);
            });
        }
        now_ += period_;
        if (exporter_ != nullptr) {
            MetricsSnapshot snap;
            tracer.span(kRollup, kNone, p, kNone, kNone,
                        [&] { snap = sys_.fleet_telemetry(); });
            tracer.span(kFrame, kNone, p, kNone, kNone,
                        [&] { exporter_->write_frame(now_, snap); });
        }
        wall_ms += seconds_since(t0) * 1e3;
    }

    double barrier_idle() const
    {
        return ratio(idle_sum_, as_double(steps_));
    }

    Tracer tracer;
    double wall_ms = 0.0;
    std::uint64_t jobs_placed = 0;

  private:
    FarMemorySystem &sys_;
    TelemetryExporter *exporter_;
    ConfigRollout::MachineView view_;
    SimTime now_;
    SimTime period_;
    double idle_sum_ = 0.0;
    std::uint64_t steps_ = 0;
};

// -- replica B: Machine::step's phases, machine by machine ---------------

/** Machine-level and broker counters that the phase calls do not
 *  return. */
struct StoreTotals
{
    std::uint64_t stores = 0, loads = 0, rejects = 0;
    std::uint64_t leases = 0, revocations = 0;
};

StoreTotals
store_totals(FarMemorySystem &sys)
{
    StoreTotals t;
    for (auto &cluster : sys.clusters()) {
        for (auto &machine : cluster->machines()) {
            const ZswapStats &s = machine->zswap().stats();
            t.stores += s.stores;
            t.loads += s.promotions;
            t.rejects += s.rejects;
        }
        if (cluster->broker() != nullptr) {
            t.leases += cluster->broker()->stats().leases_granted;
            t.revocations += cluster->broker()->stats().revocations;
        }
    }
    return t;
}

/**
 * Replays Machine::step machine by machine through each layer's public
 * entry point, in Machine::step's order: Job::run_step, Kstaled::scan
 * on scan steps, NodeAgent::control, BandRoutingPolicy::plan with
 * Kreclaimd::reclaim_cold, NodeAgent::export_telemetry on export
 * steps, Zswap::compact on compaction steps. MemoryBroker::step runs
 * before each cluster's machines and ConfigRollout::step after all
 * clusters. Fault application, pressure handling, churn and
 * rescheduling have no public entry point and are not replayed.
 */
class ReplicaB
{
  public:
    explicit ReplicaB(FarMemorySystem &sys)
        : sys_(sys), view_(machine_view(sys)), now_(sys.now()),
          period_(sys.config().cluster.machine.control_period),
          before_(store_totals(sys))
    {
        // Stateless daemons, built from each machine's own config.
        for (auto &cluster : sys.clusters()) {
            kstaled_.emplace_back();
            kreclaimd_.emplace_back();
            for (const auto &machine : cluster->machines()) {
                kstaled_.back().emplace_back(machine->config().kstaled);
                kreclaimd_.back().emplace_back(machine->config().kreclaimd);
            }
        }
    }

    void step(const StepKind &kind, std::uint32_t phase, std::uint32_t p)
    {
        auto t0 = Clock::now();
        const FleetConfig &config = sys_.config();
        SimTime period_end = now_ + period_;
        double period_minutes =
            static_cast<double>(period_) / static_cast<double>(kMinute);
        auto &clusters = sys_.clusters();
        for (std::size_t c = 0; c < clusters.size(); ++c) {
            auto cid = static_cast<std::uint32_t>(c);
            Cluster &cluster = *clusters[c];
            TraceLog *sink =
                config.cluster.collect_traces ? &cluster.trace_log() : nullptr;
            std::uint32_t cs = tracer.begin(kCluster, kNone, p, cid, kNone);
            if (cluster.broker() != nullptr) {
                tracer.span(kBroker, cs, p, cid, kNone, [&] {
                    cluster.broker()->step(now_, period_, cluster.machines());
                });
            }
            auto &machines = cluster.machines();
            for (std::size_t m = 0; m < machines.size(); ++m) {
                Machine &machine = *machines[m];
                auto mid = static_cast<std::uint32_t>(m);
                const auto &jobs = machine.jobs();
                std::uint32_t ms = tracer.begin(kMachine, cs, p, cid, mid);
                tracer.span(kRunStep, ms, p, cid, mid, [&] {
                    for (const auto &job : jobs) {
                        JobStepStats st =
                            job->run_step(now_, period_, machine.tiers());
                        accesses += st.accesses;
                        far_faults += st.promotions;
                    }
                });
                if (kind.scan) {
                    tracer.span(kKstaled, ms, p, cid, mid, [&] {
                        for (const auto &job : jobs) {
                            pages_scanned += kstaled_[c][m]
                                                 .scan(job->memcg(), phase)
                                                 .pages_scanned;
                        }
                    });
                }
                tracer.span(kAgent, ms, p, cid, mid, [&] {
                    std::vector<Memcg *> cgs = memcgs(jobs);
                    machine.agent().control(period_end, cgs, period_minutes);
                });
                FarMemoryPolicy policy = machine.config().policy;
                if (policy == FarMemoryPolicy::kProactive ||
                    policy == FarMemoryPolicy::kStatic) {
                    tracer.span(kReclaim, ms, p, cid, mid, [&] {
                        routing_.plan(machine.tiers(), plan_);
                        for (const auto &job : jobs) {
                            ReclaimResult rr = kreclaimd_[c][m].reclaim_cold(
                                job->memcg(), plan_);
                            pages_walked += rr.pages_walked;
                            pages_stored += rr.pages_stored;
                            pages_to_tier += rr.pages_to_tier;
                        }
                    });
                }
                if (kind.exports) {
                    tracer.span(kExport, ms, p, cid, mid, [&] {
                        std::vector<Memcg *> cgs = memcgs(jobs);
                        machine.agent().export_telemetry(period_end, cgs,
                                                         sink);
                    });
                }
                if (kind.compact) {
                    tracer.span(kCompact, ms, p, cid, mid,
                                [&] { machine.zswap().compact(); });
                }
                tracer.end(ms);
            }
            tracer.end(cs);
        }
        if (sys_.rollout() != nullptr) {
            tracer.span(kRollout, kNone, p, kNone, kNone, [&] {
                sys_.rollout()->step(now_, period_, view_);
            });
        }
        now_ += period_;
        wall_ms += seconds_since(t0) * 1e3;
    }

    /** zswap and broker work over the replay, from their counters. */
    StoreTotals totals() const
    {
        StoreTotals after = store_totals(sys_);
        return {after.stores - before_.stores, after.loads - before_.loads,
                after.rejects - before_.rejects,
                after.leases - before_.leases,
                after.revocations - before_.revocations};
    }

    Tracer tracer;
    double wall_ms = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t far_faults = 0;
    std::uint64_t pages_scanned = 0;
    std::uint64_t pages_walked = 0;
    std::uint64_t pages_stored = 0;
    std::uint64_t pages_to_tier = 0;

  private:
    static std::vector<Memcg *>
    memcgs(const std::vector<std::unique_ptr<Job>> &jobs)
    {
        std::vector<Memcg *> cgs;
        cgs.reserve(jobs.size());
        for (const auto &job : jobs)
            cgs.push_back(&job->memcg());
        return cgs;
    }

    FarMemorySystem &sys_;
    ConfigRollout::MachineView view_;
    SimTime now_;
    SimTime period_;
    StoreTotals before_;
    std::vector<std::vector<Kstaled>> kstaled_;
    std::vector<std::vector<Kreclaimd>> kreclaimd_;
    BandRoutingPolicy routing_;
    DemotionPlan plan_;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".";
    std::string out;
};

bool
parse_args(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::atof(val.c_str());
        else if (key == "--trace")
            a.trace = val == "1";
        else if (key == "--work-dir")
            a.work_dir = val;
        else if (key == "--out")
            a.out = val;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() &&
           a.seconds > 0.0;
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 --work-dir DIR --out FILE\n",
                     argv[0]);
        return 2;
    }
    std::optional<Workload> maybe = make_workload(args.workload, args.seed);
    if (!maybe) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const Workload &w = *maybe;
    const FleetConfig &config = w.config;
    const MachineConfig &mc = config.cluster.machine;
    std::uint32_t window = w.window_steps;
    std::uint32_t traced = std::min(window, w.traced_steps);
    // --seconds scales the number of identical passes; the recorded
    // run length gives each workload its nominal pass count.
    auto passes = static_cast<std::uint32_t>(std::max<long>(
        2, std::lround(w.passes * args.seconds / kNominalSeconds)));
    std::string ckpt_path = args.work_dir + "/" + w.name + ".ckpt";

    Report r;
    r.note("workload", w.name);
    r.note("seed", std::to_string(args.seed));
    r.note("trace", args.trace ? "1" : "0");
    std::printf("fleetbench %s: seed %" PRIu64 ", %u clusters x %u "
                "machines x %" PRIu64 " MiB, warmup %u steps, %u passes "
                "of a %u-step window, %zu worker threads\n",
                w.name.c_str(), args.seed, config.num_clusters,
                config.cluster.num_machines,
                mc.dram_pages * kPageSize / kMiB, w.warmup_steps, passes,
                window, kWorkerThreads);

    // The machines' schedule: warmup, then the window.
    Cadence cadence(mc);
    SimTime t = config.start_time;
    for (std::uint32_t i = 0; i < w.warmup_steps; ++i, t += mc.control_period)
        cadence.next(t);
    std::vector<StepKind> kinds;
    std::vector<std::uint32_t> phases;
    for (std::uint32_t i = 0; i < window; ++i, t += mc.control_period) {
        kinds.push_back(cadence.next(t));
        phases.push_back(cadence.phase());
    }
    r.check("window opens on a scan step", kinds.front().scan);

    // ---- untraced run ---------------------------------------------------
    std::vector<double> setup_s;
    auto t0 = Clock::now();
    auto sys = std::make_unique<FarMemorySystem>(config);
    sys->populate();
    setup_s.push_back(seconds_since(t0));
    std::uint64_t machines = machines_in(*sys);

    std::ostringstream frames;
    TelemetryExporter exporter(frames);
    if (w.export_frames)
        sys->set_metrics_exporter(&exporter);

    t0 = Clock::now();
    for (std::uint32_t i = 0; i < w.warmup_steps; ++i)
        sys->step();
    double warmup_s = seconds_since(t0);

    if (w.rollout_candidate) {
        r.check("rollout accepts the candidate",
                sys->propose_slo(*w.rollout_candidate));
    }
    std::uint64_t warm_digest = sys->state_digest();
    // Nothing is freed in bulk before this point, so the peak so far
    // is the warm fleet's resident set.
    double warm_rss = peak_rss_bytes();
    std::uint64_t pages = simulated_pages(*sys);

    // Every pass checkpoints the warm fleet and times the window; each
    // later pass first restores the previous pass's checkpoint into a
    // fresh fleet. Passes simulate identical work, so their host times
    // pool and their outcomes must agree exactly.
    std::vector<double> write_s, restore_s, pass_rate, periods;
    Counts cw, c_traced;
    std::vector<std::uint64_t> traced_digests;
    std::uint64_t final_digest = 0;
    std::uint64_t ckpt_bytes = 0;
    double frame_bytes = 0.0;
    for (std::uint32_t pass = 0; pass < passes; ++pass) {
        std::string tag = "pass " + std::to_string(pass) + ": ";
        if (pass > 0) {
            sys->set_metrics_exporter(nullptr);
            sys.reset();
            sys = std::make_unique<FarMemorySystem>(config);
            t0 = Clock::now();
            CkptStatus restored = sys->restore(ckpt_path);
            restore_s.push_back(seconds_since(t0));
            r.check(tag + "restore returns kOk",
                    restored == CkptStatus::kOk);
            r.check(tag + "restore reproduces the end-of-warmup digest",
                    sys->state_digest() == warm_digest);
            if (w.export_frames)
                sys->set_metrics_exporter(&exporter);
        }
        t0 = Clock::now();
        CkptStatus wrote = sys->checkpoint(ckpt_path);
        write_s.push_back(seconds_since(t0));
        r.check(tag + "checkpoint returns kOk", wrote == CkptStatus::kOk);
        ckpt_bytes = file_bytes(ckpt_path);

        Counts c0 = read_counts(sys->fleet_telemetry());
        std::uint64_t frames0 = exporter.frames_written();
        auto bytes0 = static_cast<std::streamoff>(frames.tellp());
        std::vector<double> step_ms(window);
        for (std::uint32_t i = 0; i < window; ++i) {
            auto s0 = Clock::now();
            sys->step();
            step_ms[i] = seconds_since(s0) * 1e3;
            if (args.trace && pass == 0 && i + 1 == traced) {
                c_traced = delta(read_counts(sys->fleet_telemetry()), c0);
                traced_digests = cluster_digests(*sys);
            }
        }
        std::uint64_t digest = sys->state_digest();
        if (pass == 0) {
            cw = delta(read_counts(sys->fleet_telemetry()), c0);
            final_digest = digest;
            frame_bytes = ratio(
                static_cast<double>(
                    static_cast<std::streamoff>(frames.tellp()) - bytes0),
                as_double(exporter.frames_written() - frames0));
        } else {
            r.check(tag + "window ends on pass 0's digest",
                    digest == final_digest);
        }
        std::vector<double> p = group_scan_periods(step_ms, kinds);
        periods.insert(periods.end(), p.begin(), p.end());
        double secs = 0.0;
        for (double ms : step_ms)
            secs += ms * 1e-3;
        pass_rate.push_back(as_double(machines * window) / secs);
    }
    double coverage = sys->fleet_coverage();
    double frag = fleet_frag_ratio(*sys);
    std::uint64_t killed = jobs_killed(*sys);
    std::uint64_t jobs = sys->num_jobs();

    double autotune_s = 0.0;
    double evaluate_ms = 0.0;
    std::uint64_t job_windows = 0;
    std::size_t trials = 0;
    if (w.autotune) {
        std::vector<JobTrace> traces = sys->merged_trace().by_job();
        ThreadPool pool(kWorkerThreads);
        FarMemoryModel model(&pool);
        AutotunerConfig ac;
        ac.seed = args.seed ^ 0xA070ULL;
        Autotuner tuner(ac, mc.slo, &model, &traces);
        t0 = Clock::now();
        tuner.run();
        autotune_s = seconds_since(t0);
        trials = tuner.history().size();
        r.check("autotuner ran every trial", trials == ac.iterations);
        if (args.trace) {
            std::vector<double> eval;
            for (int k = 0; k < kEvaluateRepeats; ++k) {
                t0 = Clock::now();
                job_windows = model.evaluate(traces, mc.slo).total_windows;
                eval.push_back(seconds_since(t0) * 1e3);
            }
            evaluate_ms = median(eval);
        }
    }
    sys->set_metrics_exporter(nullptr);
    sys.reset();
    // Further round trips of the warm state, so the checkpoint write
    // and restore medians each rest on kCkptSamples samples.
    while (restore_s.size() < kCkptSamples) {
        std::string tag =
            "round trip " + std::to_string(restore_s.size()) + ": ";
        FarMemorySystem fresh(config);
        t0 = Clock::now();
        CkptStatus restored = fresh.restore(ckpt_path);
        restore_s.push_back(seconds_since(t0));
        r.check(tag + "restore returns kOk", restored == CkptStatus::kOk);
        r.check(tag + "restore reproduces the end-of-warmup digest",
                fresh.state_digest() == warm_digest);
        if (write_s.size() < kCkptSamples) {
            t0 = Clock::now();
            CkptStatus wrote = fresh.checkpoint(ckpt_path);
            write_s.push_back(seconds_since(t0));
            r.check(tag + "checkpoint returns kOk",
                    wrote == CkptStatus::kOk);
        }
    }
    double peak_rss = peak_rss_bytes();

    if (!args.trace) {
        // More set-ups for a stable median; the first fleet's numbers
        // above are unaffected because these run after it is gone.
        for (int k = 1; k < kSetupRepeats; ++k) {
            t0 = Clock::now();
            auto extra = std::make_unique<FarMemorySystem>(config);
            extra->populate();
            setup_s.push_back(seconds_since(t0));
        }
    }

    std::optional<double> p50 = percentile_with_tail(periods, 50.0);
    std::optional<double> p90 = percentile_with_tail(periods, 90.0);
    r.check("window holds ten periods beyond p90", p90.has_value());
    if (w.quiet) {
        r.check("quiet fleet: no job killed over the run", killed == 0);
        r.check("quiet fleet: no fault injected in the window",
                cw["fault.injected"] == 0);
    }

    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("warmup_s", warmup_s, "s");
    r.e2e("machine_steps_per_s", median(pass_rate), "machine-steps/s");
    r.e2e("period_ms_p50", p50.value_or(0.0), "ms");
    r.e2e("period_ms_p90", p90.value_or(0.0), "ms");
    // Checkpoint calls are short and allocation-bound: interference
    // from other tenants only ever slows one down, so the fastest of
    // kCkptSamples is the steadiest estimate of each.
    double ckpt_write_s = *std::min_element(write_s.begin(), write_s.end());
    double ckpt_restore_s =
        *std::min_element(restore_s.begin(), restore_s.end());
    r.e2e("ckpt_write_s", ckpt_write_s, "s");
    r.e2e("ckpt_restore_s", ckpt_restore_s, "s");
    r.e2e("ckpt_bytes_per_page", ratio(as_double(ckpt_bytes), as_double(pages)),
          "B/page");
    r.e2e("rss_bytes_per_page",
          ratio(warm_rss, as_double(pages)), "B/page");
    r.e2e("peak_rss_mb", peak_rss / (1024.0 * 1024.0), "MiB");
    if (w.autotune)
        r.e2e("autotune_s", autotune_s, "s");
    r.e2e("coverage", coverage, "fraction");
    r.e2e("slo_violation_frac",
          ratio(as_double(cw["agent.slo_violations"]),
                as_double(cw["agent.job_periods"])),
          "fraction");
    r.e2e("jobs_killed", as_double(killed), "count");
    r.counts = cw;
    r.note("final_digest", hex64(final_digest));
    r.note("warm_digest", hex64(warm_digest));

    std::printf("fleet: %" PRIu64 " machines, %" PRIu64 " jobs, %" PRIu64
                " simulated pages, checkpoint %" PRIu64 " bytes\n",
                machines, jobs, pages, ckpt_bytes);
    std::printf("scan periods over %u passes: %zu (p50 and p90 over "
                "them)\n",
                passes, periods.size());
    std::printf("final state_digest: %s\n", hex64(final_digest).c_str());
    if (w.autotune)
        std::printf("autotuner: %zu trials\n", trials);

    // ---- traced run ------------------------------------------------------
    if (args.trace) {
        double nperiods = as_double(traced / 2);
        std::ostringstream replay_frames;
        TelemetryExporter replay_exporter(replay_frames);
        auto ra = restore_replica(config, ckpt_path, r, "A");
        auto rb = restore_replica(config, ckpt_path, r, "B");
        ReplicaA a(*ra, w.export_frames ? &replay_exporter : nullptr);
        ReplicaB b(*rb);
        // Interleaved step by step, so host noise lands on both
        // replicas alike and B's spans compare against A's clusters.
        for (std::uint32_t i = 0; i < traced; ++i) {
            a.step(i / 2);
            b.step(kinds[i], phases[i], i / 2);
        }
        r.check("replica A (serial) matches the parallel window's "
                "cluster digests",
                cluster_digests(*ra) == traced_digests);
        StoreTotals bt = b.totals();
        ra.reset();
        rb.reset();

        std::vector<double> self = b.tracer.self_ms_by_layer();
        std::vector<double> a_self = a.tracer.self_ms_by_layer();
        double a_serial = a.tracer.total_ms(kCluster);
        double covered = 0.0;
        for (Layer l : {kBroker, kRunStep, kKstaled, kAgent, kReclaim,
                        kExport, kCompact}) {
            covered += self[l];
        }
        auto per_period = [&](double ms) { return ratio(ms, nperiods); };

        r.layer("mem.kstaled_ms", per_period(self[kKstaled]), "ms");
        r.layer("mem.kstaled_ns_per_page",
                ratio(self[kKstaled] * 1e6, as_double(b.pages_scanned)),
                "ns/page");
        r.layer("mem.pages_scanned", as_double(b.pages_scanned), "count");
        r.layer("workload.run_step_ms", per_period(self[kRunStep]), "ms");
        r.layer("workload.ns_per_access",
                ratio(self[kRunStep] * 1e6, as_double(b.accesses)),
                "ns/access");
        r.layer("workload.accesses", as_double(b.accesses), "count");
        r.layer("workload.far_faults", as_double(b.far_faults), "count");
        r.layer("mem.kreclaimd_ms", per_period(self[kReclaim]), "ms");
        r.layer("mem.kreclaimd_ns_per_page",
                ratio(self[kReclaim] * 1e6, as_double(b.pages_walked)),
                "ns/page");
        r.layer("mem.pages_walked", as_double(b.pages_walked), "count");
        r.layer("mem.pages_demoted", as_double(b.pages_stored), "count");
        r.layer("mem.pages_to_tier", as_double(b.pages_to_tier), "count");
        r.layer("mem.zswap_stores", as_double(bt.stores), "count");
        r.layer("mem.zswap_loads", as_double(bt.loads), "count");
        r.layer("mem.zswap_reject_ratio",
                ratio(as_double(bt.rejects),
                      as_double(bt.stores + bt.rejects)),
                "fraction");
        r.layer("zsmalloc.compact_ms", per_period(self[kCompact]), "ms");
        r.layer("zsmalloc.frag_ratio", frag, "fraction");
        r.layer("cluster.broker_ms", per_period(self[kBroker]), "ms");
        r.layer("cluster.leases_granted", as_double(bt.leases), "count");
        r.layer("cluster.lease_revocations", as_double(bt.revocations),
                "count");
        r.layer("autotune.rollout_ms", per_period(self[kRollout]), "ms");
        r.layer("node.agent_ms", per_period(self[kAgent]), "ms");
        r.layer("node.export_ms", per_period(self[kExport]), "ms");
        r.layer("cluster.other_ms", per_period(a_serial - covered), "ms");
        r.layer("cluster.jobs_placed", as_double(a.jobs_placed), "count");
        r.layer("core.barrier_idle_frac", a.barrier_idle(), "fraction");
        r.layer("core.span_coverage", ratio(covered, a_serial), "fraction");
        r.layer("core.serial_period_ms", per_period(a_serial), "ms");
        r.layer("core.traced_period_ms", per_period(b.wall_ms), "ms");
        r.layer("telemetry.rollup_ms", per_period(a_self[kRollup]), "ms");
        r.layer("telemetry.frame_bytes", frame_bytes, "B");
        double ckpt_mib = as_double(ckpt_bytes) / (1024.0 * 1024.0);
        r.layer("ckpt.write_mb_per_s", ratio(ckpt_mib, ckpt_write_s),
                "MiB/s");
        r.layer("ckpt.restore_mb_per_s", ratio(ckpt_mib, ckpt_restore_s),
                "MiB/s");
        r.layer("model.evaluate_ms", evaluate_ms, "ms");
        r.layer("model.job_windows", as_double(job_windows), "count");
        r.layer("autotune.search_ms",
                w.autotune ? autotune_s * 1e3 -
                                 as_double(trials) * evaluate_ms
                           : 0.0,
                "ms");
        r.layer("fault.injected", as_double(cw["fault.injected"]), "count");
        r.layer("fault.jobs_killed", as_double(cw["fault.jobs_killed"]),
                "count");
        // Run-level values that are zero or seed-sensitive on some
        // workloads, so they cannot carry an end-to-end bound.
        r.layer("autotune.run_s", autotune_s, "s");
        r.layer("node.slo_violation_frac",
                ratio(as_double(cw["agent.slo_violations"]),
                      as_double(cw["agent.job_periods"])),
                "fraction");
        r.layer("core.jobs_killed", as_double(killed), "count");

        // Replay against the untraced window's same steps.
        struct Pair
        {
            const char *name;
            std::uint64_t replay;
            std::uint64_t untraced;
        };
        const Pair pairs[] = {
            {"accesses", b.accesses, c_traced["machine.accesses"]},
            {"far faults", b.far_faults, c_traced["machine.promotions"]},
            {"pages scanned", b.pages_scanned,
             c_traced["kstaled.pages_scanned"]},
            {"pages demoted", b.pages_stored,
             c_traced["kreclaimd.pages_stored"]},
        };
        std::printf("\nreplay vs untraced, first %u window steps:\n", traced);
        for (const Pair &pr : pairs) {
            std::printf("  %-14s replay %12" PRIu64 "  untraced %12" PRIu64
                        "  ratio %.6f\n",
                        pr.name, pr.replay, pr.untraced,
                        ratio(as_double(pr.replay), as_double(pr.untraced)));
            if (w.quiet) {
                r.check(std::string("quiet fleet: replica B ") + pr.name +
                            " equal the untraced run's",
                        pr.replay == pr.untraced);
            }
        }
        std::printf("\ntraced run: %zu + %zu spans, %.1f periods\n",
                    a.tracer.size(), b.tracer.size(), nperiods);
        std::printf("  per period: untraced p50 %.3f ms (parallel), "
                    "replica A %.3f ms (serial), replica B %.3f ms "
                    "(serial, phase spans)\n",
                    p50.value_or(0.0), per_period(a.wall_ms),
                    per_period(b.wall_ms));
        std::printf("  layer spans cover %.1f%% of replica A's serial "
                    "Cluster::step time\n",
                    100.0 * ratio(covered, a_serial));
        std::printf("\nself time per scan period (replica B):\n");
        for (std::size_t l = 0; l < kNumLayers; ++l) {
            double ms = l == kRollup || l == kFrame ? a_self[l] : self[l];
            if (ms > 0.0) {
                std::printf("  %-20s %10.3f ms  %5.1f%%\n", kLayerNames[l],
                            per_period(ms), 100.0 * ratio(ms, a_serial));
            }
        }
        std::string span_path = args.work_dir + "/" + w.name + ".spans.csv";
        std::remove(span_path.c_str());
        r.check("spans written",
                a.tracer.write_csv(span_path, "A") &&
                    b.tracer.write_csv(span_path, "B"));
    }
    std::remove(ckpt_path.c_str());

    print_metrics("end-to-end (untraced run):", r.end_to_end);
    if (args.trace)
        print_metrics("per-layer (traced run):", r.per_layer);
    std::printf("\nwork counts over the window:\n");
    for (const auto &[name, v] : r.counts)
        std::printf("  %-26s %14" PRIu64 "\n", name.c_str(), v);
    std::printf("\nchecks: %zu attempted, %zu failed\n", r.checks.size(),
                r.failed());

    if (!write_report(args.out, r)) {
        std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
        return 1;
    }
    return r.failed() == 0 ? 0 : 1;
}

#include "workload/access_pattern.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace sdfm {

namespace {

/** Gaps are clamped to this to keep SimTime arithmetic safe. */
constexpr SimTime kMaxGap = 30 * kDay;

SimTime
to_gap(double seconds)
{
    if (seconds < 1.0)
        seconds = 1.0;
    if (seconds > static_cast<double>(kMaxGap))
        return kMaxGap;
    return static_cast<SimTime>(seconds);
}

}  // namespace

AccessPattern::AccessPattern(const JobProfile &profile,
                             std::uint32_t num_pages, Rng rng, SimTime start)
    : profile_(profile), rng_(std::move(rng)), queue_(start, num_pages)
{
    SDFM_ASSERT(num_pages > 0);

    // Jitter the reuse fractions per instance (lognormal, ~25%
    // relative) so the per-job cold-memory CDF is smooth rather than
    // a few spikes (Figure 3 is a smooth curve).
    double jitter_hot = profile_.hot_frac * rng_.next_lognormal(0.0, 0.25);
    double jitter_warm = profile_.warm_frac * rng_.next_lognormal(0.0, 0.25);
    double jitter_diurnal =
        profile_.diurnal_frac * rng_.next_lognormal(0.0, 0.25);
    double jitter_cold = profile_.cold_frac * rng_.next_lognormal(0.0, 0.25);
    double frozen = 1.0 - profile_.hot_frac - profile_.warm_frac -
                    profile_.diurnal_frac - profile_.cold_frac;
    SDFM_ASSERT(frozen >= -1e-9);
    double jitter_frozen =
        std::max(0.0, frozen) * rng_.next_lognormal(0.0, 0.25);
    double total = jitter_hot + jitter_warm + jitter_diurnal + jitter_cold +
                   jitter_frozen;
    double cdf[5] = {
        jitter_hot / total,
        (jitter_hot + jitter_warm) / total,
        (jitter_hot + jitter_warm + jitter_diurnal) / total,
        (jitter_hot + jitter_warm + jitter_diurnal + jitter_cold) / total,
        1.0,
    };

    // Classes are assigned in contiguous runs, not i.i.d. per page:
    // allocations have spatial locality, so neighbouring pages share
    // temperature. This is also what makes transparent-huge-page
    // regions thermally coherent enough to ever go cold.
    // Jobs big enough to host 2 MiB huge regions draw 512-page-
    // aligned runs (allocator arenas are THP-sized, which is what
    // keeps huge regions thermally coherent); smaller jobs use finer
    // runs scaled to their address space.
    classes_.resize(num_pages);
    PageId next_page = 0;
    constexpr PageId kArena = 512;
    bool arena_aligned = num_pages >= 8 * kArena;
    PageId run_mean = std::max<PageId>(64, num_pages / 24);
    while (next_page < num_pages) {
        double u = rng_.next_double();
        int c = 0;
        while (u >= cdf[c])
            ++c;
        PageId run;
        if (arena_aligned) {
            PageId max_arenas = std::max<PageId>(num_pages / 24 / kArena,
                                                 1);
            run = kArena * (1 + static_cast<PageId>(
                                    rng_.next_below(2 * max_arenas)));
        } else {
            run = std::max<PageId>(
                1, run_mean / 2 +
                       static_cast<PageId>(rng_.next_below(run_mean)));
        }
        PageId end = std::min(num_pages, next_page + run);
        for (; next_page < end; ++next_page)
            classes_[next_page] = static_cast<ReuseClass>(c);
    }

    // Stagger initial accesses: active classes start within the
    // first minutes, cold/frozen pages get one early touch and then
    // follow their distribution.
    for (PageId p = 0; p < num_pages; ++p) {
        SimTime first;
        switch (classes_[p]) {
          case ReuseClass::kHot:
            first = start + rng_.next_range(0, kMinute);
            break;
          case ReuseClass::kWarm:
          case ReuseClass::kDiurnal:
            first = start + rng_.next_range(0, 5 * kMinute);
            break;
          default:
            first = start + rng_.next_range(0, 30 * kMinute);
            break;
        }
        queue_.emplace(first, p);
    }

    if (profile_.scan_interval_mean > 0) {
        next_scan_ = start + to_gap_public(rng_.next_exponential(
            1.0 / static_cast<double>(profile_.scan_interval_mean)));
    }
}

AccessPattern::AccessPattern(const JobProfile &profile, CkptRestoreTag)
    : profile_(profile), rng_(0)
{
}

void
AccessPattern::ckpt_save(Serializer &s) const
{
    s.put_u64(classes_.size());
    std::uint8_t *out = s.claim(classes_.size());
    for (ReuseClass c : classes_)
        *out++ = static_cast<std::uint8_t>(c);
    s.put_rng(rng_);
    s.put_u64_vec(queue_.raw());
    s.put_i64(next_scan_);
}

bool
AccessPattern::ckpt_load(Deserializer &d)
{
    std::size_t num = d.get_size(0xffffffffu);
    if (!d.ok() || num == 0)
        return false;
    const std::uint8_t *in = d.consume(num);
    classes_.resize(num);
    for (ReuseClass &c : classes_) {
        std::uint8_t raw = *in++;
        if (raw >= static_cast<std::uint8_t>(ReuseClass::kNumClasses))
            return false;
        c = static_cast<ReuseClass>(raw);
    }
    d.get_rng(rng_);
    std::vector<std::uint64_t> events = d.get_u64_vec();
    next_scan_ = d.get_i64();
    if (!d.ok() ||
        !queue_.restore_raw(std::move(events), static_cast<std::uint32_t>(num)))
        return false;
    if ((profile_.scan_interval_mean > 0) != (next_scan_ != 0))
        return false;
    return true;
}

SimTime
AccessPattern::to_gap_public(double seconds)
{
    return to_gap(seconds);
}

double
AccessPattern::diurnal_multiplier(SimTime t) const
{
    double hour = static_cast<double>(t % kDay) / 3600.0;
    double phase =
        (hour - profile_.diurnal_peak_hour) * (2.0 * M_PI / 24.0);
    return 1.0 + profile_.diurnal_amplitude * std::cos(phase);
}

SimTime
AccessPattern::next_active_start(SimTime t) const
{
    // The active window is peak +/- 6 h (where the cosine is
    // positive). Find the next window start at or after t.
    double start_hour = profile_.diurnal_peak_hour - 6.0;
    if (start_hour < 0.0)
        start_hour += 24.0;
    SimTime day_start = (t / kDay) * kDay;
    SimTime window = day_start + static_cast<SimTime>(start_hour * 3600.0);
    while (window < t)
        window += kDay;
    // If t is already inside an active window, stay (return t).
    SimTime prev_window = window - kDay;
    if (t >= prev_window && t < prev_window + 12 * kHour)
        return t;
    return window;
}

std::uint64_t
AccessPattern::next_event_key(PageId page, SimTime accessed_at,
                              GapMath &math)
{
    // Only the hot and warm gaps scale with load. A drain visits
    // times in order, so one cached second serves every access in it.
    auto load = [&] {
        if (math.load_time != accessed_at) {
            math.load = diurnal_multiplier(accessed_at);
            math.load_time = accessed_at;
        }
        return math.load;
    };
    double gap_s;
    switch (classes_[page]) {
      case ReuseClass::kHot:
        gap_s = rng_.next_exponential(math.hot_rate) / load();
        break;
      case ReuseClass::kWarm:
        gap_s = rng_.next_lognormal(math.warm_log_median,
                                    profile_.warm_sigma) /
                load();
        break;
      case ReuseClass::kCold:
        gap_s = rng_.next_pareto(profile_.cold_scale, profile_.cold_alpha);
        break;
      case ReuseClass::kFrozen:
        if (!rng_.next_bool(profile_.frozen_reaccess_prob))
            return 0;  // never accessed again
        gap_s = rng_.next_pareto(8.0 * static_cast<double>(kHour), 1.0);
        break;
      case ReuseClass::kDiurnal: {
        SimTime active = next_active_start(accessed_at + 1);
        if (active <= accessed_at + 1) {
            // Still inside the active window: short intra-window gaps.
            double in_window = rng_.next_exponential(
                1.0 / profile_.diurnal_active_gap_mean);
            return EventQueue::make_key(accessed_at + to_gap(in_window),
                                        page);
        }
        // Dormant until a future window. Real diurnal load ramps up
        // over hours and not every cached page is touched every day:
        // skip whole days sometimes and stagger re-entry across the
        // first half of the window, so wake-ups are a drizzle rather
        // than a correlated burst (which would blow the promotion
        // SLO in a way production traffic does not).
        while (rng_.next_bool(0.35))
            active += kDay;
        SimTime stagger = rng_.next_range(0, 6 * kHour);
        return EventQueue::make_key(active + stagger, page);
      }
      default:
        panic("bad ReuseClass %d", static_cast<int>(classes_[page]));
    }
    return EventQueue::make_key(accessed_at + to_gap(gap_s), page);
}

double
AccessPattern::class_fraction(ReuseClass cls) const
{
    std::uint64_t count = 0;
    for (ReuseClass c : classes_)
        if (c == cls)
            ++count;
    return static_cast<double>(count) /
           static_cast<double>(classes_.size());
}

}  // namespace sdfm

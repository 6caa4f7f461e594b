#include "telemetry/metric.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace sdfm {

HistogramData::HistogramData(std::vector<double> bounds)
    : upper_bounds(std::move(bounds)), counts(upper_bounds.size() + 1, 0)
{
    SDFM_ASSERT(!upper_bounds.empty());
    SDFM_ASSERT(std::is_sorted(upper_bounds.begin(), upper_bounds.end()));
}

void
HistogramData::observe(double value)
{
    auto it =
        std::lower_bound(upper_bounds.begin(), upper_bounds.end(), value);
    ++counts[static_cast<std::size_t>(it - upper_bounds.begin())];
    ++total_count;
    sum += value;
}

double
HistogramData::percentile(double p) const
{
    SDFM_ASSERT(p >= 0.0 && p <= 100.0);
    if (total_count == 0)
        return 0.0;
    double rank = p / 100.0 * static_cast<double>(total_count);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        std::uint64_t in_bucket = counts[b];
        if (in_bucket == 0)
            continue;
        double after = static_cast<double>(cumulative + in_bucket);
        if (after >= rank) {
            // Overflow bucket: no finite upper edge, report the last
            // finite bound (the estimate saturates there).
            if (b >= upper_bounds.size())
                return upper_bounds.back();
            double hi = upper_bounds[b];
            double lo = b == 0 ? std::min(0.0, hi) : upper_bounds[b - 1];
            double frac = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(in_bucket);
            frac = std::clamp(frac, 0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
        cumulative += in_bucket;
    }
    return upper_bounds.back();
}

void
HistogramData::merge(const HistogramData &other)
{
    if (other.total_count == 0 && other.upper_bounds.empty())
        return;
    if (upper_bounds.empty()) {
        *this = other;
        return;
    }
    SDFM_ASSERT(upper_bounds == other.upper_bounds);
    SDFM_ASSERT(counts.size() == other.counts.size());
    for (std::size_t b = 0; b < counts.size(); ++b)
        counts[b] += other.counts[b];
    total_count += other.total_count;
    sum += other.sum;
}

void
HistogramData::ckpt_save(Serializer &s) const
{
    s.put_u64_vec(counts);
    s.put_u64(total_count);
    s.put_double(sum);
}

bool
HistogramData::ckpt_load(Deserializer &d)
{
    std::vector<std::uint64_t> loaded = d.get_u64_vec();
    std::uint64_t total = d.get_u64();
    double loaded_sum = d.get_double();
    if (!d.ok() || loaded.size() != upper_bounds.size() + 1)
        return false;
    std::uint64_t bucket_total = 0;
    for (std::uint64_t c : loaded)
        bucket_total += c;
    if (bucket_total != total)
        return false;
    counts = std::move(loaded);
    total_count = total;
    sum = loaded_sum;
    return true;
}

std::vector<double>
exponential_bounds(double start, double factor, std::size_t count)
{
    SDFM_ASSERT(start > 0.0 && factor > 1.0 && count > 0);
    std::vector<double> bounds;
    bounds.reserve(count);
    double v = start;
    for (std::size_t i = 0; i < count; ++i) {
        bounds.push_back(v);
        v *= factor;
    }
    return bounds;
}

}  // namespace sdfm

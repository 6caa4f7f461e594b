// Checks of the benchmark's own arithmetic (src/arith.h). Exits 1 and
// names the failing check on any mismatch; run.py runs it after every
// build, before a measurement is taken.

#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.h"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "arith_test: FAIL %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
one_to(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)  // reversed: selection must sort
        v.push_back(static_cast<double>(i));
    return v;
}

void
test_percentile_tail_rule()
{
    // 100 samples: p90 is rank 90 with exactly ten samples beyond.
    auto p90 = percentile_with_tail(one_to(100), 90.0);
    check(p90.has_value() && near(*p90, 90.0), "p90 of 1..100 is 90");
    // 99 samples: rank 90 leaves nine beyond, too thin to report.
    check(!percentile_with_tail(one_to(99), 90.0).has_value(),
          "p90 of 99 samples is refused");
    // The median needs 20 samples (ten beyond rank 10).
    auto p50 = percentile_with_tail(one_to(20), 50.0);
    check(p50.has_value() && near(*p50, 10.0), "p50 of 1..20 is 10");
    check(!percentile_with_tail(one_to(19), 50.0).has_value(),
          "p50 of 19 samples is refused");
    // A looser rule admits thinner tails.
    check(percentile_with_tail(one_to(99), 90.0, 9).has_value(),
          "min_beyond is honoured");
    check(!percentile_with_tail({}, 50.0).has_value(),
          "no samples, no percentile");
}

void
test_scan_period_grouping()
{
    // Steps: an orphan before the first scan, then scan periods of
    // two steps; compaction and export steps do not open periods.
    std::vector<double> ms = {7.0, 10.0, 1.0, 12.0, 2.0, 11.0, 30.0, 9.0,
                              3.0};
    std::vector<StepKind> kinds(ms.size());
    kinds[1].scan = true;
    kinds[3].scan = true;
    kinds[3].exports = true;
    kinds[4].compact = true;
    kinds[5].scan = true;
    kinds[6].compact = true;
    kinds[6].exports = true;
    kinds[7].scan = true;
    std::vector<double> periods = group_scan_periods(ms, kinds);
    check(periods.size() == 4, "four scan periods");
    if (periods.size() == 4) {
        check(near(periods[0], 11.0), "period 0 = scan + plain step");
        check(near(periods[1], 14.0), "period 1 spans the compaction");
        check(near(periods[2], 41.0), "period 2 absorbs compact+export");
        check(near(periods[3], 12.0), "last period closes at window end");
    }
    check(group_scan_periods({1.0, 2.0}, std::vector<StepKind>(2)).empty(),
          "no scan step, no period");
}

void
test_self_time()
{
    // root [0,100) has children [10,30) and [20,50) (overlapping) and
    // [90,120) (clipped to the root); the first child has a child of
    // its own, which does not count against the root.
    std::vector<Span> spans = {
        {kNoParent, 0, 100},
        {0, 10, 30},
        {0, 20, 50},
        {0, 90, 120},
        {1, 12, 18},
    };
    std::vector<std::int64_t> self = self_times(spans);
    check(self[0] == 100 - 40 - 10, "root self = span - covered union");
    check(self[1] == 20 - 6, "child self = span - grandchild");
    check(self[2] == 30, "leaf self = duration");
    check(self[3] == 30, "clipped child keeps its own duration");
    check(self[4] == 6, "grandchild self = duration");
}

void
test_barrier_idle()
{
    check(near(barrier_idle_frac({10.0, 10.0, 10.0, 10.0}), 0.0),
          "balanced clusters never wait");
    check(near(barrier_idle_frac({10.0, 5.0, 5.0, 0.0}), 0.5),
          "idle = 1 - 20 / (4 * 10)");
    check(near(barrier_idle_frac({}), 0.0), "no clusters, no idle");
    check(near(barrier_idle_frac({0.0, 0.0}), 0.0), "zero-time step");
}

void
test_median()
{
    check(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
    check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
}

}  // namespace

int
main()
{
    test_percentile_tail_rule();
    test_scan_period_grouping();
    test_self_time();
    test_barrier_idle();
    test_median();
    if (failures != 0)
        return 1;
    std::printf("arith_test: all checks passed\n");
    return 0;
}

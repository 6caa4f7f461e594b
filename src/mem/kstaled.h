/**
 * @file
 * kstaled: the page-age scanner daemon (Section 5.1).
 *
 * Every scan period (120 s) it reads and clears each job's accessed
 * bits:
 *   - accessed pages record their pre-scan age into the job's
 *     promotion histogram (a page re-accessed after reaching age A
 *     would have been a promotion under any threshold T <= A), then
 *     reset to age 0;
 *   - untouched pages age by one scan period (saturating at 255);
 *   - a dirty PTE clears the incompressible mark.
 * It then rebuilds the job's cold-age histogram from the new ages.
 * Ages are distances from the page table's scan epoch, so untouched
 * pages age when the scan advances the epoch; the scan writes only
 * the accessed pages.
 */

#ifndef SDFM_MEM_KSTALED_H
#define SDFM_MEM_KSTALED_H

#include <cstdint>

#include "mem/memcg.h"
#include "telemetry/metric.h"

namespace sdfm {

/** Scanner cost/behaviour parameters. */
struct KstaledParams
{
    /** Modelled CPU cycles to scan one PTE/page. */
    double cycles_per_page = 150.0;

    /**
     * Scan striping: each scan visits only pages with
     * id % stride == phase, cutting kstaled CPU by the stride at the
     * cost of stride-times-coarser per-page recency (ages advance by
     * `stride` per visit, keeping the 120 s bucket unit). This is the
     * paper's scan-period/CPU trade-off knob ("we empirically tune
     * its scan period while trading off for finer-grained page access
     * information", Section 5.1).
     */
    std::uint32_t scan_stride = 1;
};

/** Result of scanning one memcg. */
struct ScanResult
{
    std::uint64_t pages_scanned = 0;
    std::uint64_t accessed_pages = 0;
    double cpu_cycles = 0.0;
};

/**
 * Cumulative kstaled work on one machine (the kstaled.* metrics). The
 * daemon is stateless; its owner folds in every ScanResult it gets.
 */
struct KstaledStats
{
    std::uint64_t scans = 0;  ///< per-job scans
    std::uint64_t pages_scanned = 0;
    std::uint64_t pages_accessed = 0;

    /** Per-job scan cost in modelled CPU cycles: 1e3..1e9 covers a
     *  4 KiB job up to a multi-GiB one at ~150 cycles/page. */
    HistogramData scan_cycles{exponential_bounds(1e3, 10.0, 7)};

    /** Fold in one job's scan. */
    void record(const ScanResult &scan)
    {
        ++scans;
        pages_scanned += scan.pages_scanned;
        pages_accessed += scan.accessed_pages;
        scan_cycles.observe(scan.cpu_cycles);
    }

    void ckpt_save(Serializer &s) const;
    bool ckpt_load(Deserializer &d);
};

/** The kstaled daemon; stateless across jobs, so one instance serves
 *  a whole machine. */
class Kstaled
{
  public:
    explicit Kstaled(const KstaledParams &params = KstaledParams{});

    /**
     * Scan one job. Updates page ages and both per-job histograms.
     * The promotion histogram is cumulative; the cold-age histogram
     * is rebuilt from scratch.
     *
     * @param phase Stripe selector in [0, scan_stride); the caller
     *        rotates it each scan period so every page is visited
     *        once per stride scans.
     */
    ScanResult scan(Memcg &cg, std::uint32_t phase = 0) const;

    const KstaledParams &params() const { return params_; }

    /**
     * Reference per-page walk at any stride: what scan() runs when
     * scan_stride > 1, and the oracle tests hold scan_soa() to at
     * stride 1. Huge regions are resolved in a single pass (test,
     * age, promotion and cold histograms together); region summaries
     * are rebuilt at the end so the reclaim fast path stays sound
     * under striping. Adds to @p result's page counters, not to its
     * cpu_cycles.
     */
    void scan_reference(Memcg &cg, std::uint32_t stride,
                        std::uint32_t phase, ScanResult &result) const;

  private:
    /**
     * Word-at-a-time scan at stride 1 (the default config), in
     * O(words + accessed pages): advance the table's epoch, then
     * stamp only the pages whose accessed bit is set, one 64-page
     * bitset word per load. Huge regions are resolved first, one PTE
     * each. The cold-age histogram comes from the table's epoch ring
     * and the region bounds from finish_scan(). Transition-identical
     * to scan_reference() at stride 1.
     */
    void scan_soa(Memcg &cg, ScanResult &result) const;

    KstaledParams params_;
};

}  // namespace sdfm

#endif  // SDFM_MEM_KSTALED_H

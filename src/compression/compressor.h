/**
 * @file
 * The compression backend used by zswap.
 *
 * Two implementations:
 *  - RealCompressor regenerates the page's synthetic contents and
 *    runs the szo compressor for real. Exact payload sizes; used for
 *    machine-scale experiments and all correctness tests.
 *  - ModeledCompressor samples the payload size from per-class
 *    distributions calibrated against RealCompressor. Orders of
 *    magnitude faster; used for fleet-scale benches.
 *
 * Both are deterministic per (content class, seed): page contents are
 * regenerable, so compressing the same page twice must agree.
 */

#ifndef SDFM_COMPRESSION_COMPRESSOR_H
#define SDFM_COMPRESSION_COMPRESSOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "compression/cost_model.h"
#include "compression/page_content.h"

namespace sdfm {

/**
 * zswap rejects payloads larger than this (73% of a 4 KiB page):
 * beyond it, zsmalloc metadata overhead exceeds the savings
 * (Section 5.1).
 */
inline constexpr std::uint32_t kMaxZswapPayload = 2990;

/** Outcome of compressing one page. */
struct CompressionResult
{
    /** Payload size in bytes (<= kPageSize + slack). */
    std::uint32_t compressed_size = 0;

    /** CPU cycles spent compressing (spent even on rejection). */
    double compress_cycles = 0.0;

    /** True iff the payload is small enough for zswap to keep. */
    bool accepted() const { return compressed_size <= kMaxZswapPayload; }

    /** Compression ratio (kPageSize / payload). */
    double ratio() const;
};

/** Interface shared by the real and modeled backends. */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /** Compress the page identified by (cls, seed). */
    virtual CompressionResult compress_page(ContentClass cls,
                                            std::uint64_t seed) = 0;

    /** Whether compress_page_bytes() can hand back payload bytes. */
    virtual bool produces_payload_bytes() const { return false; }

    /**
     * Compress and hand back the payload bytes (for zswap's
     * store-payload mode). The modeled backend cannot produce bytes
     * and returns false (see produces_payload_bytes()).
     */
    virtual bool
    compress_page_bytes(ContentClass cls, std::uint64_t seed,
                        CompressionResult *result,
                        std::vector<std::uint8_t> *payload)
    {
        (void)cls;
        (void)seed;
        (void)result;
        (void)payload;
        return false;
    }

    /** Mean CPU cycles to decompress a stored payload. */
    double decompress_cycles(std::uint32_t compressed_size) const;

    /** Sampled decompression latency in microseconds. */
    double sample_decompress_latency_us(std::uint32_t compressed_size,
                                        Rng &rng) const;

    const CostModel &cost_model() const { return cost_model_; }

  protected:
    explicit Compressor(const CostModel &cost_model)
        : cost_model_(cost_model)
    {}

    CostModel cost_model_;
};

/** Runs szo over regenerated page contents. */
class RealCompressor : public Compressor
{
  public:
    explicit RealCompressor(const CostModel &cost_model = CostModel{});

    CompressionResult compress_page(ContentClass cls,
                                    std::uint64_t seed) override;

    bool produces_payload_bytes() const override { return true; }

    bool compress_page_bytes(ContentClass cls, std::uint64_t seed,
                             CompressionResult *result,
                             std::vector<std::uint8_t> *payload) override;
};

/** Samples payload sizes from per-class distributions. */
class ModeledCompressor : public Compressor
{
  public:
    explicit ModeledCompressor(const CostModel &cost_model = CostModel{});

    CompressionResult compress_page(ContentClass cls,
                                    std::uint64_t seed) override;

    /** Mean modeled payload size for a class (for tests). */
    static double class_mean_payload(ContentClass cls);
};

/** Construct the backend selected by a configuration flag. */
enum class CompressionMode
{
    kReal,
    kModeled,
};

std::unique_ptr<Compressor>
make_compressor(CompressionMode mode,
                const CostModel &cost_model = CostModel{});

}  // namespace sdfm

#endif  // SDFM_COMPRESSION_COMPRESSOR_H

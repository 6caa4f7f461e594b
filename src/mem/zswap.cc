#include "mem/zswap.h"

#include <cstring>
#include <limits>
#include <vector>

#include "compression/szo.h"
#include "util/invariant.h"
#include "util/logging.h"
#include "util/units.h"

namespace sdfm {

namespace {

/** Bytes of one (u64 handle, u64 checksum) record on the wire. */
constexpr std::size_t kChecksumRecordBytes = 16;

}  // namespace

Zswap::Zswap(Compressor *compressor, std::uint64_t rng_seed,
             bool verify_roundtrip)
    : compressor_(compressor),
      verify_roundtrip_(verify_roundtrip &&
                        compressor->produces_payload_bytes()),
      arena_(/*keep_payload_bytes=*/verify_roundtrip_), rng_(rng_seed)
{
    SDFM_ASSERT(compressor_ != nullptr);
}

bool
Zswap::store(Memcg &cg, PageId p)
{
    SDFM_ASSERT(!cg.page_test(p, kPageInZswap));
    SDFM_ASSERT(!cg.page_test(p, kPageUnevictable));
    SDFM_ASSERT(!cg.page_test(p, kPageIncompressible));
    const ContentClass content = cg.page_content(p);

    CompressionResult result;
    std::vector<std::uint8_t> payload;
    if (verify_roundtrip_) {
        bool have_bytes = compressor_->compress_page_bytes(
            content, cg.content_seed_of(p), &result, &payload);
        SDFM_ASSERT(have_bytes);
    } else {
        result = compressor_->compress_page(content,
                                            cg.content_seed_of(p));
    }
    cg.stats().compress_cycles += result.compress_cycles;
    stats_.compress_cycles += result.compress_cycles;

    if (!result.accepted()) {
        // Payload larger than kMaxZswapPayload: metadata overhead
        // would exceed the savings. Mark the page so we do not retry
        // until its contents change (kstaled clears the mark on a
        // dirty PTE).
        cg.page_set(p, kPageIncompressible);
        ++cg.stats().zswap_rejects;
        ++stats_.rejects;
        stats_.payload_bytes.observe(
            static_cast<double>(result.compressed_size));
        return false;
    }

    ZsHandle handle = arena_.store(
        result.compressed_size, verify_roundtrip_ ? payload.data() : nullptr);
    arena_.set_tag(handle, entry_checksum(cg.content_seed_of(p),
                                          result.compressed_size));
    cg.set_zswap_handle(p, handle);
    cg.note_stored_in_zswap(p);
    ++cg.stats().zswap_stores;
    cg.stats().compressed_bytes_stored += result.compressed_size;
    ++stats_.stores;
    stats_.payload_bytes.observe(
        static_cast<double>(result.compressed_size));
    return true;
}

void
Zswap::load(Memcg &cg, PageId p)
{
    SDFM_ASSERT(cg.page_test(p, kPageInZswap));
    ZsHandle handle = cg.zswap_handle(p);
    std::uint32_t payload_size = arena_.payload_size(handle);
    double cycles = compressor_->decompress_cycles(payload_size);
    cg.stats().decompress_cycles += cycles;
    stats_.decompress_cycles += cycles;
    cg.stats().decompress_latency_us_sum +=
        compressor_->sample_decompress_latency_us(payload_size, rng_);

    // Integrity check before the payload is trusted: a corrupted
    // entry is counted as poisoned and the page re-faults from
    // backing store instead of aborting the fleet (the contents are
    // regenerable; only the compressed copy was damaged).
    bool poisoned = arena_.tag(handle) !=
                    entry_checksum(cg.content_seed_of(p), payload_size);
    if (poisoned) {
        ++stats_.poisoned_entries;
        ++cg.stats().far_refaults;
        cg.stats().decompress_latency_us_sum += kZswapRefaultLatencyUs;
        // The re-fault blocks the faulting task like an SSD swap-in
        // (pure stall at a nominal 2.6 GHz, as the NVM path does).
        cg.stats().refault_stall_cycles +=
            kZswapRefaultLatencyUs * 2.6e3;
    }

    const std::uint8_t *stored =
        verify_roundtrip_ && !poisoned ? arena_.payload(handle) : nullptr;
    if (stored != nullptr) {
        // Decompress the stored payload for real and verify the bytes
        // match the page's regenerated contents: the full zswap path
        // exercises the codec end to end.
        std::uint8_t decompressed[kPageSize];
        std::size_t n = szo_decompress(stored, payload_size, decompressed,
                                       sizeof(decompressed));
        SDFM_ASSERT(n == kPageSize);
        std::uint8_t expected[kPageSize];
        generate_page_content(cg.page_content(p), cg.content_seed_of(p),
                              expected);
        SDFM_ASSERT(std::memcmp(decompressed, expected, kPageSize) == 0);
        ++stats_.verified_roundtrips;
    }

    SDFM_ASSERT(cg.stats().compressed_bytes_stored >= payload_size);
    cg.stats().compressed_bytes_stored -= payload_size;
    arena_.release(handle);
    cg.note_loaded_from_zswap(p);
    ++cg.stats().zswap_promotions;
    ++stats_.promotions;
}

std::uint64_t
Zswap::entry_checksum(std::uint64_t content_seed,
                      std::uint32_t payload_size)
{
    // A 64-bit mix over what the entry should decompress to (the
    // page's generative seed) and the stored payload size -- cheap,
    // deterministic, and sensitive to single-bit damage.
    std::uint64_t x = content_seed ^ (static_cast<std::uint64_t>(
                                          payload_size) *
                                      0x9E3779B97F4A7C15ULL);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
}

bool
Zswap::corrupt_entry(Rng &rng)
{
    if (arena_.live_objects() == 0)
        return false;
    // The victim is the k-th live handle in ascending order, so the
    // fault trajectory depends only on which handles are live.
    std::uint64_t k = rng.next_below(arena_.live_objects());
    ZsHandle victim = 1;
    while (!arena_.is_live(victim) || k-- > 0)
        ++victim;
    arena_.set_tag(victim, arena_.tag(victim) ^ 0xDEADBEEFCAFEF00DULL);
    ++stats_.corruptions_injected;
    return true;
}

void
Zswap::check_invariants() const
{
    if constexpr (!kInvariantsEnabled)
        return;
    arena_.check_invariants();
    SDFM_INVARIANT(stats_.stores >= stats_.promotions,
                   "promotions never exceed stores");
}

void
Zswap::drop(Memcg &cg, PageId p)
{
    SDFM_ASSERT(cg.page_test(p, kPageInZswap));
    ZsHandle handle = cg.zswap_handle(p);
    std::uint32_t payload = arena_.payload_size(handle);
    SDFM_ASSERT(cg.stats().compressed_bytes_stored >= payload);
    cg.stats().compressed_bytes_stored -= payload;
    arena_.release(handle);
    cg.note_loaded_from_zswap(p);
}

void
Zswap::drop_all(Memcg &cg)
{
    for (PageId p : cg.zswap_page_ids())
        drop(cg, p);
}

void
Zswap::ckpt_save(Serializer &s) const
{
    arena_.ckpt_save(s);
    s.put_u64(stats_.stores);
    s.put_u64(stats_.rejects);
    s.put_u64(stats_.promotions);
    s.put_u64(stats_.verified_roundtrips);
    s.put_u64(stats_.poisoned_entries);
    s.put_u64(stats_.corruptions_injected);
    s.put_double(stats_.compress_cycles);
    s.put_double(stats_.decompress_cycles);
    stats_.payload_bytes.ckpt_save(s);
    s.put_rng(rng_);
    s.put_bool(verify_roundtrip_);

    const std::uint64_t live = arena_.live_objects();
    s.put_u64(live);
    std::uint8_t *out = s.claim(kChecksumRecordBytes * live);
    const std::uint8_t *end = out + kChecksumRecordBytes * live;
    for (ZsHandle h = 1; h < arena_.handle_limit(); ++h) {
        if (arena_.is_live(h)) {
            SDFM_ASSERT(out != end);
            store_le(out, std::uint64_t{h});
            store_le(out + 8, arena_.tag(h));
            out += kChecksumRecordBytes;
        }
    }
    SDFM_ASSERT(out == end);
}

bool
Zswap::ckpt_load(Deserializer &d)
{
    if (!arena_.ckpt_load(d))
        return false;
    stats_.stores = d.get_u64();
    stats_.rejects = d.get_u64();
    stats_.promotions = d.get_u64();
    stats_.verified_roundtrips = d.get_u64();
    stats_.poisoned_entries = d.get_u64();
    stats_.corruptions_injected = d.get_u64();
    stats_.compress_cycles = d.get_double();
    stats_.decompress_cycles = d.get_double();
    if (!stats_.payload_bytes.ckpt_load(d))
        return false;
    d.get_rng(rng_);
    bool verify = d.get_bool();
    if (!d.ok() || verify != verify_roundtrip_)
        return false;

    std::size_t num = d.get_size(arena_.live_objects(), kChecksumRecordBytes);
    if (!d.ok() || num != arena_.live_objects())
        return false;
    const std::uint8_t *in = d.consume(kChecksumRecordBytes * num);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < num; ++i, in += kChecksumRecordBytes) {
        std::uint64_t handle = load_le<std::uint64_t>(in);
        std::uint64_t sum = load_le<std::uint64_t>(in + 8);
        if (handle > std::numeric_limits<ZsHandle>::max() ||
            !arena_.is_live(static_cast<ZsHandle>(handle)) ||
            (i > 0 && handle <= prev)) {
            return false;
        }
        prev = handle;
        arena_.set_tag(static_cast<ZsHandle>(handle), sum);
    }
    return true;
}

}  // namespace sdfm

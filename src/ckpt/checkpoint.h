/**
 * @file
 * Crash-consistent checkpoint/restore primitives: a versioned,
 * sectioned binary container plus the byte-level Serializer /
 * Deserializer every stateful subsystem uses to snapshot itself.
 *
 * Container layout (all integers little-endian):
 *
 *   u64 magic            "SDFMCKPT"
 *   u32 format version   kCkptFormatVersion
 *   u32 section count
 *   per section, in ascending name order:
 *     u32 name length, name bytes
 *     u64 payload length, payload bytes
 *     u32 CRC32 (IEEE) of the payload bytes
 *
 * The writer streams: each section goes to the temp file as soon as it
 * is added, so a checkpoint never exists twice in memory. The reader
 * reads the file into one buffer and hands sections out as views into
 * it. It validates the whole container -- magic, version, length
 * framing, every section CRC -- before any payload is handed to a
 * subsystem, and restore callers stage into a replica before touching
 * live state, so a rejected checkpoint never partially mutates a
 * running fleet. Rejections are typed (CkptStatus), never UB.
 *
 * Versioning policy: kCkptFormatVersion bumps on any wire-format
 * change; there is no cross-version migration (a checkpoint is a
 * point-in-time artifact of one build lineage, not an interchange
 * format), so readers reject any version other than their own.
 */

#ifndef SDFM_CKPT_CHECKPOINT_H
#define SDFM_CKPT_CHECKPOINT_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/age_histogram.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdfm {

/** "SDFMCKPT", read as a little-endian u64. */
inline constexpr std::uint64_t kCkptMagic = 0x54504B434D464453ULL;

/** Wire-format version this build writes and accepts. Version 6:
 *  each job's access events are one strictly ascending key array,
 *  not the event heap's layout. (Version 5: the remote tier has one
 *  (lease-slot) layout without a donor cursor, and the config
 *  fingerprint lost the single-tier machine fields and the remote
 *  tier's static-capacity params. Version 4:
 *  the metric-registry blobs left the machine, "pool.NNNN" and
 *  "rollout" sections; telemetry-only counters, histograms and
 *  sampled levels ride in the subsystem stats they belong to.
 *  Version 3: config-rollout fault kinds grew the FaultInjector
 *  stats block, the node agent carries a config epoch, and
 *  rollout-supervised fleets add a "rollout" section. Version 2:
 *  memory-pooling fault kinds grew the per-machine FaultInjector
 *  stats block, and pooled fleets added "pool.NNNN" lease
 *  sections.) */
inline constexpr std::uint32_t kCkptFormatVersion = 6;

/** Typed outcome of checkpoint container and restore operations. */
enum class CkptStatus : std::uint8_t
{
    kOk = 0,
    kIoError,         ///< file could not be opened/read/written
    kBadMagic,        ///< not a checkpoint file
    kBadVersion,      ///< unknown format version
    kTruncated,       ///< framing runs past the end of the file
    kCrcMismatch,     ///< a section payload fails its CRC
    kConfigMismatch,  ///< checkpoint was taken under a different config
    kCorruptPayload,  ///< CRC-valid bytes that do not parse
};

/** Human-readable status name (stable, for logs and tests). */
const char *to_string(CkptStatus status);

/** CRC32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF), eight bytes
 *  per table round (slicing-by-8). */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** Store @p v at @p out as little-endian bytes (any alignment). */
template <typename T>
inline void
store_le(std::uint8_t *out, T v)
{
    static_assert(std::is_unsigned_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, &v, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i)
            out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/** The little-endian value at @p in (any alignment). */
template <typename T>
inline T
load_le(const std::uint8_t *in)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, in, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i)
            v = static_cast<T>(v | static_cast<T>(in[i]) << (8 * i));
    }
    return v;
}

/**
 * Append-only little-endian byte sink. One Serializer builds one
 * section payload; framing and CRCs are the CkptWriter's job. Each
 * put claims its whole width at once; runs of fixed-size records
 * claim() their bytes once and fill them with store_le().
 */
class Serializer
{
  public:
    void put_u8(std::uint8_t v) { buf_.push_back(v); }
    void put_u16(std::uint16_t v) { store_le(claim(2), v); }
    void put_u32(std::uint32_t v) { store_le(claim(4), v); }
    void put_u64(std::uint64_t v) { store_le(claim(8), v); }
    void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

    /** Bit-exact double (IEEE-754 bits as u64). */
    void put_double(double v);

    void put_bool(bool v) { put_u8(v ? 1 : 0); }

    /** u64 length prefix + raw bytes. */
    void put_string(const std::string &s);

    /** u64 count prefix + one u64 per element. */
    void put_u64_vec(const std::vector<std::uint64_t> &v);

    /** Full engine state of an Rng stream. */
    void put_rng(const Rng &rng);

    /** Sparse (nonzero buckets only) age-histogram encoding. */
    void put_age_histogram(const AgeHistogram &h);

    /** Raw bytes, no prefix. */
    void
    put_bytes(const std::uint8_t *data, std::size_t size)
    {
        if (size > 0)
            std::memcpy(claim(size), data, size);
    }

    /**
     * Append @p size bytes for the caller to fill, and return where
     * they start. The pointer is valid until the next put.
     */
    std::uint8_t *
    claim(std::size_t size)
    {
        std::size_t at = buf_.size();
        buf_.resize(at + size);
        return buf_.data() + at;
    }

    /** Drop the bytes but keep the buffer, to build the next payload. */
    void clear() { buf_.clear(); }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked little-endian byte source over a section payload.
 * A read that does not fit in the remaining bytes returns zero (or
 * empty), consumes the rest and sets a sticky failure flag; callers
 * check ok() once after a load instead of after every field. Each
 * read makes one bounds check for its whole width; runs of
 * fixed-size records consume() their bytes once and parse them with
 * load_le(). Payloads are CRC-validated before a Deserializer ever
 * sees them, so a failed read means semantic corruption
 * (kCorruptPayload).
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Deserializer(std::span<const std::uint8_t> bytes)
        : Deserializer(bytes.data(), bytes.size())
    {
    }

    /**
     * The next @p size bytes, or nullptr (failing the stream) when
     * fewer remain.
     */
    const std::uint8_t *
    consume(std::size_t size)
    {
        if (size > size_ - pos_) {
            ok_ = false;
            pos_ = size_;
            return nullptr;
        }
        const std::uint8_t *at = data_ + pos_;
        pos_ += size;
        return at;
    }

    std::uint8_t get_u8() { return get_le<std::uint8_t>(); }
    std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
    std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
    std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
    std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

    double get_double();

    bool get_bool() { return get_u8() != 0; }

    std::string get_string();

    std::vector<std::uint64_t> get_u64_vec();

    void get_rng(Rng &rng);

    void get_age_histogram(AgeHistogram &h);

    /**
     * A size prefix that bounds a following container. Fails the
     * stream (and returns 0) when the declared size exceeds
     * @p max_elems or the remaining bytes could not possibly hold it
     * (@p min_bytes_per_elem each), so corrupt counts cannot drive
     * huge allocations.
     */
    std::size_t get_size(std::size_t max_elems,
                         std::size_t min_bytes_per_elem = 1);

    /** False once any read ran past the end or a guard tripped. */
    bool ok() const { return ok_; }

    /** Explicitly poison the stream (semantic validation failed). */
    void fail() { ok_ = false; }

    std::size_t remaining() const { return size_ - pos_; }
    bool at_end() const { return pos_ == size_; }

  private:
    template <typename T>
    T
    get_le()
    {
        const std::uint8_t *at = consume(sizeof(T));
        return at != nullptr ? load_le<T>(at) : T{0};
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Interface for a subsystem that can snapshot and restore its full
 * trajectory state. ckpt_load() runs on CRC-validated bytes and
 * returns false on semantic corruption; it may leave the object in a
 * modified state, because whole-fleet restore stages into a replica
 * and only commits (swaps) after every subsystem loaded cleanly --
 * the live fleet is never partially mutated.
 *
 * Contract: a ckpt_save()/ckpt_load() round trip must reproduce the
 * subsequent trajectory bit-identically (state_digest()-equal at
 * every future step), which means every RNG stream, counter, and
 * container the step path reads must be covered. Serialization must
 * be deterministic: iterate unordered containers only through a
 * sorted key extraction (see the sdfm_lint unordered-iter rule).
 */
class Checkpointable
{
  public:
    virtual ~Checkpointable() = default;

    /** Append this subsystem's complete state. */
    virtual void ckpt_save(Serializer &s) const = 0;

    /** Restore state written by ckpt_save(); false on corruption. */
    virtual bool ckpt_load(Deserializer &d) = 0;
};

/**
 * Tag selecting a restore constructor: build the cheapest structurally
 * valid object (no RNG draws, minimal allocation) and rely on a
 * following ckpt_load() to overwrite every member. Keeps the normal
 * constructors free of checkpoint concerns.
 */
struct CkptRestoreTag
{
};

/** One named, CRC-protected section: views into the bytes its
 *  CkptReader holds. */
struct CkptSection
{
    std::string_view name;
    std::span<const std::uint8_t> payload;
};

/**
 * Streams a checkpoint container into @p path + ".tmp" and renames it
 * onto @p path in finish(), so a crash mid-write never leaves a
 * half-written file at the destination. Sections go to the file as
 * they are added, in strictly ascending name order (the format's);
 * the header's section count is patched in by finish(). A writer
 * destroyed without a successful finish() removes its temp file.
 */
class CkptWriter
{
  public:
    explicit CkptWriter(const std::string &path);
    ~CkptWriter();

    CkptWriter(const CkptWriter &) = delete;
    CkptWriter &operator=(const CkptWriter &) = delete;

    /** Write one section; its name must sort after the previous one. */
    void add_section(std::string_view name,
                     std::span<const std::uint8_t> payload);

    /** Complete the file and rename it into place; kIoError when any
     *  open, write, flush or rename failed. */
    CkptStatus finish();

  private:
    void write(const void *data, std::size_t size);

    std::string path_;
    std::string tmp_;
    std::FILE *file_ = nullptr;
    bool failed_ = false;
    std::uint32_t count_ = 0;
    std::string last_name_;
};

/**
 * Parses and fully validates a checkpoint container. After parse()
 * returns kOk, every section's framing and CRC has been verified, and
 * the sections view into the bytes the reader now owns.
 */
class CkptReader
{
  public:
    CkptReader() = default;
    CkptReader(const CkptReader &) = delete;
    CkptReader &operator=(const CkptReader &) = delete;

    /**
     * Validate @p bytes; on kOk, populates this reader. The section
     * CRCs are checked on @p pool, one task per section, when one is
     * given.
     */
    CkptStatus parse(std::vector<std::uint8_t> bytes,
                     ThreadPool *pool = nullptr);

    /** Read a file in one piece and parse() it. */
    CkptStatus read_file(const std::string &path, ThreadPool *pool = nullptr);

    /** Section payload by name; nullptr when absent. */
    const std::span<const std::uint8_t> *section(std::string_view name) const;

    const std::vector<CkptSection> &sections() const { return sections_; }

  private:
    std::vector<std::uint8_t> bytes_;
    std::vector<CkptSection> sections_;
};

}  // namespace sdfm

#endif  // SDFM_CKPT_CHECKPOINT_H

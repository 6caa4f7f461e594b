#include "ckpt/checkpoint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "util/logging.h"

namespace sdfm {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected IEEE 802.3 polynomial
 * 0xEDB88320: table 0 is the bytewise table, and table k advances a
 * byte's contribution through k more zero bytes.
 */
constexpr CrcTables
make_crc_tables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/** True when @p stored is the CRC of every section, checked on
 *  @p pool (one task per section) when there is one. */
bool
crcs_match(const std::vector<CkptSection> &sections,
           const std::vector<std::uint32_t> &stored, ThreadPool *pool)
{
    // One byte per section, not vector<bool>: tasks write distinct
    // elements concurrently.
    std::vector<std::uint8_t> bad(sections.size(), 0);
    auto check = [&](std::size_t i) {
        const std::span<const std::uint8_t> payload = sections[i].payload;
        bad[i] = crc32(payload.data(), payload.size()) != stored[i];
    };
    if (pool != nullptr && sections.size() > 1) {
        parallel_for(*pool, sections.size(), check);
    } else {
        for (std::size_t i = 0; i < sections.size(); ++i)
            check(i);
    }
    return std::find(bad.begin(), bad.end(), 1) == bad.end();
}

}  // namespace

const char *
to_string(CkptStatus status)
{
    switch (status) {
      case CkptStatus::kOk:
        return "ok";
      case CkptStatus::kIoError:
        return "io-error";
      case CkptStatus::kBadMagic:
        return "bad-magic";
      case CkptStatus::kBadVersion:
        return "bad-version";
      case CkptStatus::kTruncated:
        return "truncated";
      case CkptStatus::kCrcMismatch:
        return "crc-mismatch";
      case CkptStatus::kConfigMismatch:
        return "config-mismatch";
      case CkptStatus::kCorruptPayload:
        return "corrupt-payload";
    }
    return "unknown";
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const CrcTables &t = kCrcTables;
    std::uint32_t c = 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        std::uint32_t lo = load_le<std::uint32_t>(data) ^ c;
        std::uint32_t hi = load_le<std::uint32_t>(data + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// -- Serializer ------------------------------------------------------

void
Serializer::put_double(double v)
{
    put_u64(std::bit_cast<std::uint64_t>(v));
}

void
Serializer::put_string(const std::string &s)
{
    put_u64(s.size());
    put_bytes(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

void
Serializer::put_u64_vec(const std::vector<std::uint64_t> &v)
{
    put_u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
        put_bytes(reinterpret_cast<const std::uint8_t *>(v.data()),
                  v.size() * 8);
    } else {
        std::uint8_t *out = claim(v.size() * 8);
        for (std::uint64_t x : v) {
            store_le(out, x);
            out += 8;
        }
    }
}

void
Serializer::put_rng(const Rng &rng)
{
    RngState state = rng.state();
    for (std::uint64_t word : state.s)
        put_u64(word);
    put_bool(state.have_gauss);
    put_double(state.gauss_spare);
}

void
Serializer::put_age_histogram(const AgeHistogram &h)
{
    std::uint32_t nonzero = 0;
    for (std::size_t b = 0; b < kAgeBuckets; ++b) {
        if (h.at(static_cast<AgeBucket>(b)) != 0)
            ++nonzero;
    }
    put_u32(nonzero);
    for (std::size_t b = 0; b < kAgeBuckets; ++b) {
        std::uint64_t count = h.at(static_cast<AgeBucket>(b));
        if (count == 0)
            continue;
        put_u8(static_cast<std::uint8_t>(b));
        put_u64(count);
    }
}

// -- Deserializer ----------------------------------------------------

double
Deserializer::get_double()
{
    return std::bit_cast<double>(get_u64());
}

std::string
Deserializer::get_string()
{
    std::size_t len = get_size(remaining());
    if (len == 0)
        return {};
    return std::string(reinterpret_cast<const char *>(consume(len)), len);
}

std::vector<std::uint64_t>
Deserializer::get_u64_vec()
{
    std::size_t n = get_size(remaining() / 8, 8);
    if (n == 0)
        return {};
    const std::uint8_t *in = consume(n * 8);
    std::vector<std::uint64_t> v(n);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(v.data(), in, n * 8);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            v[i] = load_le<std::uint64_t>(in + 8 * i);
    }
    return v;
}

void
Deserializer::get_rng(Rng &rng)
{
    RngState state;
    for (std::uint64_t &word : state.s)
        word = get_u64();
    state.have_gauss = get_bool();
    state.gauss_spare = get_double();
    if (!ok_)
        return;
    // An all-zero xoshiro state in the payload is corruption, not a
    // legal snapshot; poison the stream instead of asserting.
    if ((state.s[0] | state.s[1] | state.s[2] | state.s[3]) == 0) {
        ok_ = false;
        return;
    }
    rng.set_state(state);
}

void
Deserializer::get_age_histogram(AgeHistogram &h)
{
    std::uint32_t nonzero = get_u32();
    if (nonzero > kAgeBuckets) {
        ok_ = false;
        return;
    }
    AgeHistogram restored;
    for (std::uint32_t i = 0; i < nonzero; ++i) {
        AgeBucket bucket = get_u8();
        std::uint64_t count = get_u64();
        if (count == 0) {
            ok_ = false;
            return;
        }
        restored.add(bucket, count);
    }
    if (ok_)
        h = restored;
}

std::size_t
Deserializer::get_size(std::size_t max_elems, std::size_t min_bytes_per_elem)
{
    std::uint64_t n = get_u64();
    if (!ok_)
        return 0;
    if (n > max_elems ||
        n * min_bytes_per_elem > remaining()) {
        ok_ = false;
        return 0;
    }
    return static_cast<std::size_t>(n);
}

// -- CkptWriter ------------------------------------------------------

CkptWriter::CkptWriter(const std::string &path)
    : path_(path), tmp_(path + ".tmp")
{
    file_ = std::fopen(tmp_.c_str(), "wb");
    if (file_ == nullptr) {
        failed_ = true;
        return;
    }
    // The section count is patched in by finish().
    std::uint8_t header[16];
    store_le(header, kCkptMagic);
    store_le(header + 8, kCkptFormatVersion);
    store_le(header + 12, std::uint32_t{0});
    write(header, sizeof header);
}

CkptWriter::~CkptWriter()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        std::remove(tmp_.c_str());
    }
}

void
CkptWriter::write(const void *data, std::size_t size)
{
    if (failed_ || size == 0)
        return;
    if (std::fwrite(data, 1, size, file_) != size)
        failed_ = true;
}

void
CkptWriter::add_section(std::string_view name,
                        std::span<const std::uint8_t> payload)
{
    // Ascending unique names are part of the format.
    SDFM_ASSERT(count_ == 0 || std::string_view(last_name_) < name);
    last_name_ = name;
    ++count_;
    std::uint8_t name_len[4];
    store_le(name_len, static_cast<std::uint32_t>(name.size()));
    write(name_len, sizeof name_len);
    write(name.data(), name.size());
    std::uint8_t payload_len[8];
    store_le(payload_len, static_cast<std::uint64_t>(payload.size()));
    write(payload_len, sizeof payload_len);
    write(payload.data(), payload.size());
    std::uint8_t crc[4];
    store_le(crc, crc32(payload.data(), payload.size()));
    write(crc, sizeof crc);
}

CkptStatus
CkptWriter::finish()
{
    if (file_ == nullptr)
        return CkptStatus::kIoError;
    if (!failed_ && std::fseek(file_, 12, SEEK_SET) != 0)
        failed_ = true;
    std::uint8_t count[4];
    store_le(count, count_);
    write(count, sizeof count);
    bool flushed = std::fflush(file_) == 0;
    bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    if (failed_ || !flushed || !closed ||
        std::rename(tmp_.c_str(), path_.c_str()) != 0) {
        std::remove(tmp_.c_str());
        return CkptStatus::kIoError;
    }
    return CkptStatus::kOk;
}

// -- CkptReader ------------------------------------------------------

CkptStatus
CkptReader::parse(std::vector<std::uint8_t> bytes, ThreadPool *pool)
{
    bytes_.clear();
    sections_.clear();
    Deserializer d(bytes);
    if (d.remaining() < 8)
        return CkptStatus::kTruncated;
    if (d.get_u64() != kCkptMagic)
        return CkptStatus::kBadMagic;
    if (d.remaining() < 4)
        return CkptStatus::kTruncated;
    if (d.get_u32() != kCkptFormatVersion)
        return CkptStatus::kBadVersion;
    if (d.remaining() < 4)
        return CkptStatus::kTruncated;
    std::uint32_t count = d.get_u32();

    // Walk the framing first and check the CRCs of every section it
    // framed afterwards. A CRC mismatch wins over a framing error
    // further on, as it would for a reader that checks each section
    // as it goes.
    std::vector<CkptSection> sections;
    std::vector<std::uint32_t> crcs;
    CkptStatus framing = CkptStatus::kOk;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (d.remaining() < 4) {
            framing = CkptStatus::kTruncated;
            break;
        }
        std::uint32_t name_len = d.get_u32();
        if (name_len > d.remaining()) {
            framing = CkptStatus::kTruncated;
            break;
        }
        const std::uint8_t *name = d.consume(name_len);
        if (d.remaining() < 8) {
            framing = CkptStatus::kTruncated;
            break;
        }
        std::uint64_t payload_len = d.get_u64();
        if (payload_len > d.remaining()) {
            framing = CkptStatus::kTruncated;
            break;
        }
        const auto len = static_cast<std::size_t>(payload_len);
        const std::uint8_t *payload = d.consume(len);
        if (d.remaining() < 4) {
            framing = CkptStatus::kTruncated;
            break;
        }
        crcs.push_back(d.get_u32());
        sections.push_back(
            {std::string_view(reinterpret_cast<const char *>(name),
                              name_len),
             std::span<const std::uint8_t>(payload, len)});
        // Ascending unique names are part of the format.
        if (sections.size() > 1 &&
            sections[sections.size() - 2].name >= sections.back().name) {
            framing = CkptStatus::kCorruptPayload;
            break;
        }
    }
    if (framing == CkptStatus::kOk && !d.at_end())
        framing = CkptStatus::kCorruptPayload;
    if (!crcs_match(sections, crcs, pool))
        return CkptStatus::kCrcMismatch;
    if (framing != CkptStatus::kOk)
        return framing;
    SDFM_ASSERT(d.ok());
    // Moving the vector keeps its heap buffer, so the views stay valid.
    bytes_ = std::move(bytes);
    sections_ = std::move(sections);
    return CkptStatus::kOk;
}

CkptStatus
CkptReader::read_file(const std::string &path, ThreadPool *pool)
{
    // file_size() fails for a missing path, a directory or any other
    // file that is not a regular one.
    std::error_code error;
    const std::uintmax_t size = std::filesystem::file_size(path, error);
    if (error)
        return CkptStatus::kIoError;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return CkptStatus::kIoError;
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    bool read_ok =
        std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
        std::fgetc(f) == EOF && std::ferror(f) == 0;
    std::fclose(f);
    if (!read_ok)
        return CkptStatus::kIoError;
    return parse(std::move(bytes), pool);
}

const std::span<const std::uint8_t> *
CkptReader::section(std::string_view name) const
{
    auto it = std::lower_bound(
        sections_.begin(), sections_.end(), name,
        [](const CkptSection &s, std::string_view n) { return s.name < n; });
    if (it == sections_.end() || it->name != name)
        return nullptr;
    return &it->payload;
}

}  // namespace sdfm

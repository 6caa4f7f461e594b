/**
 * @file
 * Strict command-line number parsing for the probes. A count is a
 * whole decimal number with nothing after it, inside the caller's
 * range: "0", "-3", "abc" and "5x" are rejected, where atoi/atoll
 * would quietly read them as 0, -3 or 5.
 */

#ifndef SDFM_TOOLS_PROBE_ARGS_H
#define SDFM_TOOLS_PROBE_ARGS_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace sdfm {

/**
 * Parse @p text as an unsigned decimal integer in [@p min, @p max]
 * into @p out. Returns false, leaving @p out untouched, for an empty
 * string, a sign, leading blanks, trailing characters, overflow, or a
 * value outside the range.
 */
inline bool
parse_count(const char *text, std::uint64_t min, std::uint64_t max,
            std::uint64_t *out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || value < min || value > max)
        return false;
    *out = value;
    return true;
}

}  // namespace sdfm

#endif  // SDFM_TOOLS_PROBE_ARGS_H

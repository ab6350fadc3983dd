/**
 * @file
 * Strict numeric flag parsing shared by the bench binaries
 * (bench_util.hpp, and the sweep benches' list flags) and the trace
 * tools (trace_check, trace_analyze).
 *
 * A flag value must be a complete, non-negative number inside the
 * flag's range. Empty, partial ("12abc"), signed ("-3", "+3"),
 * non-numeric ("zzz") and out-of-range values are rejected with a
 * message naming the flag, and the process exits with status 2 —
 * the usage-error status every CLI here uses. `atoi`/`strtoull`
 * without an end-pointer check would instead turn them into 0 or a
 * wrapped value and run a different experiment than was asked for.
 */

#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace corm::bench {

/**
 * Parse @p text as an unsigned integer in [@p lo, @p hi]: decimal,
 * or 0x-prefixed hex when @p allow_hex. Returns false (leaving
 * @p out untouched) on any malformed or out-of-range input.
 */
inline bool
parseUnsigned(const char *text, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t &out, bool allow_hex = false)
{
    int base = 10;
    const char *digits = text;
    if (allow_hex && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        digits = text + 2;
    }
    // strtoull itself would skip whitespace and accept a sign
    // (negating the result), so the first character must already be
    // a digit of the base.
    const auto first = static_cast<unsigned char>(digits[0]);
    if (base == 10 ? !std::isdigit(first) : !std::isxdigit(first))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(digits, &end, base);
    if (errno == ERANGE || *end != '\0' || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/**
 * The value of numeric flag @p flag, or exit 2 with a message naming
 * the flag, the rejected text and the accepted range.
 */
inline std::uint64_t
unsignedFlag(const char *prog, const char *flag, const char *text,
             std::uint64_t lo, std::uint64_t hi, bool allow_hex = false)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(text, lo, hi, v, allow_hex)) {
        std::fprintf(stderr,
                     "%s: bad %s value '%s' (want an integer in "
                     "%llu..%llu%s)\n",
                     prog, flag, text, static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi),
                     allow_hex ? ", decimal or 0x-hex" : "");
        std::exit(2);
    }
    return v;
}

/**
 * The comma-separated integers of list flag @p flag (say "1,2,4"),
 * each in [@p lo, @p hi], or exit 2 with a message naming the flag
 * and the rejected list. Every element must parse on its own: an
 * empty list or element ("2,,4") is rejected like a malformed one.
 */
inline std::vector<int>
intListFlag(const char *prog, const char *flag, const char *text,
            std::uint64_t lo, std::uint64_t hi)
{
    std::vector<int> out;
    std::string item;
    for (const char *p = text;;) {
        const char *comma = std::strchr(p, ',');
        item.assign(p, comma != nullptr ? comma : p + std::strlen(p));
        std::uint64_t v = 0;
        if (!parseUnsigned(item.c_str(), lo, hi, v)) {
            std::fprintf(stderr,
                         "%s: bad %s list '%s' (want comma-separated "
                         "integers in %llu..%llu)\n",
                         prog, flag, text,
                         static_cast<unsigned long long>(lo),
                         static_cast<unsigned long long>(hi));
            std::exit(2);
        }
        out.push_back(static_cast<int>(v));
        if (comma == nullptr)
            return out;
        p = comma + 1;
    }
}

/**
 * The value of a seconds flag (a finite, non-negative decimal such as
 * "0.5"), or exit 2 with a message naming the flag.
 */
inline double
secondsFlag(const char *prog, const char *flag, const char *text)
{
    const auto first = static_cast<unsigned char>(text[0]);
    char *end = nullptr;
    errno = 0;
    const double v = std::isdigit(first) || text[0] == '.'
        ? std::strtod(text, &end)
        : -1.0;
    if (v < 0.0 || errno == ERANGE || *end != '\0' || !std::isfinite(v)) {
        std::fprintf(stderr,
                     "%s: bad %s value '%s' (want seconds >= 0)\n", prog,
                     flag, text);
        std::exit(2);
    }
    return v;
}

} // namespace corm::bench

/**
 * @file
 * The benchmark's own arithmetic: nearest-rank percentiles, span self
 * time, failure counting, strict seed parsing and the FNV-1a result
 * hash. Kept free of simulator types so the self-test can check it in
 * isolation.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cormbench {

/**
 * 1-based nearest rank of percentile @p p (0 < p <= 100) over @p n
 * samples: ceil(p/100 * n), at least 1. Integer arithmetic on
 * per-mille so 90.0 * 100 / 100 never rounds up to rank + 1.
 */
inline std::size_t
nearestRank(std::size_t n, double p)
{
    const auto milli = static_cast<std::uint64_t>(p * 10.0 + 0.5);
    const std::uint64_t rank = (milli * n + 999) / 1000;
    return static_cast<std::size_t>(std::max<std::uint64_t>(rank, 1));
}

/** Nearest-rank percentile of @p samples (empty -> 0). */
inline double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(samples.size(), p) - 1];
}

/** Samples ranked strictly above the percentile's nearest rank. */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

/**
 * A tail percentile is reported only when at least @p minBeyond
 * samples lie beyond it; otherwise it is one or two outliers wearing
 * a percentile's name.
 */
inline bool
percentileReportable(std::size_t n, double p, std::size_t minBeyond = 10)
{
    return samplesBeyond(n, p) >= minBeyond;
}

/** Median as the benchmark reports it (nearest-rank p50). */
inline double
median(const std::vector<double> &samples)
{
    return percentile(samples, 50.0);
}

/** Attempted versus failed operations (one operation = one trial). */
struct FailureTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    /** Failed trials as a share of those attempted (0 when none). */
    double
    share() const
    {
        return attempted ? static_cast<double>(failed)
                               / static_cast<double>(attempted)
                         : 0.0;
    }
};

/** One recorded interval around a benchmark call. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int trial = -1;  ///< shared identifier of every span of one trial
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (overlapping children are
 * merged first, and clipped to the parent's interval).
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0
            && static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startNs, s.endNs);
    }
    std::vector<std::int64_t> out(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t curLo = 0, curHi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.startNs);
            hi = std::min(hi, s.endNs);
            if (hi <= lo)
                continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        out[i] = (s.endNs - s.startNs) - covered;
    }
    return out;
}

/**
 * In-memory span recorder. Spans are appended at open and completed
 * at close; nothing is written out until the run ends.
 */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanLog() : epoch(Clock::now()) {}

    int
    open(std::string name, int parent, int trial)
    {
        spans_.push_back(Span{std::move(name), nowNs(), 0, parent, trial});
        return static_cast<int>(spans_.size() - 1);
    }

    void close(int id) { spans_[static_cast<std::size_t>(id)].endNs = nowNs(); }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch)
            .count();
    }

    Clock::time_point epoch;
    std::vector<Span> spans_;
};

/**
 * Strict seed parser: a decimal number, or 0x/0X followed by hex
 * digits, that fits 64 bits. Anything else — signs, blanks, trailing
 * characters, an empty string, overflow — is rejected.
 */
inline std::optional<std::uint64_t>
parseSeed(std::string_view s)
{
    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
        base = 16;
        s.remove_prefix(2);
    }
    if (s.empty())
        return std::nullopt;
    std::uint64_t v = 0;
    for (const char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            d = c - 'A' + 10;
        else
            return std::nullopt;
        const auto b = static_cast<std::uint64_t>(base);
        if (v > (UINT64_MAX - static_cast<std::uint64_t>(d)) / b)
            return std::nullopt;
        v = v * b + static_cast<std::uint64_t>(d);
    }
    return v;
}

/** FNV-1a over 64-bit words: the benchmark's result hash. */
class Fnv
{
  public:
    void
    mix(std::uint64_t v)
    {
        h ^= v;
        h *= 1099511628211ULL;
    }

    void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 1469598103934665603ULL;
};

} // namespace cormbench

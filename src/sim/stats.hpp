/**
 * @file
 * Statistics primitives used throughout the platform model.
 *
 * Every experiment metric in the paper — response-time min/max/mean/
 * std-dev (Figs. 2, 4, Table 1), throughput and session counts
 * (Table 2), CPU utilisation (Fig. 5), frame rates (Fig. 6, Table 3)
 * and occupancy time series (Fig. 7) — is produced by the small set of
 * accumulators in this file.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace corm::sim {

/** Monotonically increasing event counter. */
class Counter
{
  public:
    /** Add @p n occurrences. */
    void add(std::uint64_t n = 1) { total += n; }

    /** Current count. */
    std::uint64_t value() const { return total; }

    /** Reset to zero (used between warm-up and measurement phases). */
    void reset() { total = 0; }

    /** Rate per simulated second over @p elapsed ticks. */
    double
    ratePerSecond(Tick elapsed) const
    {
        if (elapsed == 0)
            return 0.0;
        return static_cast<double>(total) / toSeconds(elapsed);
    }

  private:
    std::uint64_t total = 0;
};

/**
 * Streaming summary: count, min, max, mean and standard deviation via
 * Welford's online algorithm. O(1) space; numerically stable.
 */
class Summary
{
  public:
    /** Record one sample. */
    void
    record(double x)
    {
        ++n;
        if (x < minv)
            minv = x;
        if (x > maxv)
            maxv = x;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n);
        m2 += delta * (x - mean_);
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return n; }

    /** Smallest sample, or 0 if empty. */
    double min() const { return n ? minv : 0.0; }

    /** Largest sample, or 0 if empty. */
    double max() const { return n ? maxv : 0.0; }

    /** Arithmetic mean, or 0 if empty. */
    double mean() const { return n ? mean_ : 0.0; }

    /** Population variance, or 0 with fewer than two samples. */
    double
    variance() const
    {
        return n > 1 ? m2 / static_cast<double>(n) : 0.0;
    }

    /** Population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** Forget all samples. */
    void
    reset()
    {
        n = 0;
        mean_ = 0.0;
        m2 = 0.0;
        minv = std::numeric_limits<double>::infinity();
        maxv = -std::numeric_limits<double>::infinity();
    }

    /**
     * Reconstruct a Summary from previously reported moments, e.g.
     * to pool per-trial (count, min, max, mean, stddev) rows via
     * merge(). Exact for count/min/max/mean; the variance round-trips
     * through the population formula this class reports.
     */
    static Summary
    fromMoments(std::uint64_t count, double min_value, double max_value,
                double mean_value, double stddev_value)
    {
        Summary s;
        if (count == 0)
            return s;
        s.n = count;
        s.minv = min_value;
        s.maxv = max_value;
        s.mean_ = mean_value;
        s.m2 = stddev_value * stddev_value * static_cast<double>(count);
        return s;
    }

    /** Merge another summary into this one (parallel-combinable). */
    void
    merge(const Summary &other)
    {
        if (other.n == 0)
            return;
        if (n == 0) {
            *this = other;
            return;
        }
        const auto na = static_cast<double>(n);
        const auto nb = static_cast<double>(other.n);
        const double delta = other.mean_ - mean_;
        const double tot = na + nb;
        mean_ += delta * nb / tot;
        m2 += other.m2 + delta * delta * na * nb / tot;
        n += other.n;
        minv = std::min(minv, other.minv);
        maxv = std::max(maxv, other.maxv);
    }

  private:
    std::uint64_t n = 0;
    double mean_ = 0.0;
    double m2 = 0.0;
    double minv = std::numeric_limits<double>::infinity();
    double maxv = -std::numeric_limits<double>::infinity();
};

/**
 * Time series of (tick, value) points, e.g. the Fig. 7 IXP buffer
 * occupancy trace. Append-only; callers sample on their own cadence.
 */
class TimeSeries
{
  public:
    struct Point
    {
        Tick when;
        double value;
    };

    /** Append a point; time must be monotonically non-decreasing. */
    void record(Tick when, double value) { points.push_back({when, value}); }

    /** All recorded points in time order. */
    const std::vector<Point> &data() const { return points; }

    /** Number of points. */
    std::size_t size() const { return points.size(); }

    /** Largest recorded value, or 0 if empty. */
    double
    max() const
    {
        double m = 0.0;
        for (const auto &p : points)
            m = std::max(m, p.value);
        return m;
    }

    /** Arithmetic mean of recorded values, or 0 if empty. */
    double
    mean() const
    {
        if (points.empty())
            return 0.0;
        double s = 0.0;
        for (const auto &p : points)
            s += p.value;
        return s / static_cast<double>(points.size());
    }

    /** Forget all points. */
    void reset() { points.clear(); }

  private:
    std::vector<Point> points;
};

/**
 * Tracks what fraction of wall (simulated) time a resource was busy,
 * optionally split by a small set of usage kinds (user/system/iowait
 * in the Fig. 5 sense). Busy intervals are accumulated explicitly by
 * the component that owns the resource.
 */
class UtilizationTracker
{
  public:
    /** Usage kinds mirrored from the paper's CPU-utilisation split. */
    enum class Kind { user, system, iowait, numKinds };

    /** Accumulate @p busy ticks of the given kind. */
    void
    addBusy(Kind kind, Tick busy)
    {
        busyTicks[static_cast<std::size_t>(kind)] += busy;
    }

    /** Total busy time across kinds. */
    Tick
    totalBusy() const
    {
        Tick t = 0;
        for (Tick b : busyTicks)
            t += b;
        return t;
    }

    /** Busy time of one kind. */
    Tick
    busy(Kind kind) const
    {
        return busyTicks[static_cast<std::size_t>(kind)];
    }

    /** Utilisation in percent of one CPU over @p elapsed ticks. */
    double
    utilizationPct(Tick elapsed) const
    {
        if (elapsed == 0)
            return 0.0;
        return 100.0 * static_cast<double>(totalBusy())
            / static_cast<double>(elapsed);
    }

    /** Utilisation in percent of one kind over @p elapsed ticks. */
    double
    utilizationPct(Kind kind, Tick elapsed) const
    {
        if (elapsed == 0)
            return 0.0;
        return 100.0 * static_cast<double>(busy(kind))
            / static_cast<double>(elapsed);
    }

    /** Forget accumulated time. */
    void
    reset()
    {
        for (Tick &b : busyTicks)
            b = 0;
    }

  private:
    Tick busyTicks[static_cast<std::size_t>(Kind::numKinds)] = {0, 0, 0};
};

} // namespace corm::sim

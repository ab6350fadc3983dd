/**
 * @file
 * Health-monitor implementation (see obs/monitor.hpp).
 */

#include "obs/monitor.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace corm::obs {

namespace {

const char *
aggName(SloRule::Agg a)
{
    switch (a) {
      case SloRule::Agg::value: return "value";
      case SloRule::Agg::rate: return "rate";
      case SloRule::Agg::mean: return "mean";
      case SloRule::Agg::p50: return "p50";
      case SloRule::Agg::p99: return "p99";
    }
    return "?";
}

const char *
opName(SloRule::Op o)
{
    switch (o) {
      case SloRule::Op::lt: return "<";
      case SloRule::Op::le: return "<=";
      case SloRule::Op::gt: return ">";
      case SloRule::Op::ge: return ">=";
    }
    return "?";
}

bool
compare(SloRule::Op o, double observed, double threshold)
{
    switch (o) {
      case SloRule::Op::lt: return observed < threshold;
      case SloRule::Op::le: return observed <= threshold;
      case SloRule::Op::gt: return observed > threshold;
      case SloRule::Op::ge: return observed >= threshold;
    }
    return false;
}

/** Split on runs of spaces/tabs. */
std::vector<std::string>
tokenize(std::string_view text)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && (text[i] == ' ' || text[i] == '\t'))
            ++i;
        std::size_t j = i;
        while (j < text.size() && text[j] != ' ' && text[j] != '\t')
            ++j;
        if (j > i)
            out.emplace_back(text.substr(i, j - i));
        i = j;
    }
    return out;
}

/** Parse "<number><unit>" with unit ns/us/ms/s into Ticks. */
bool
parseDuration(const std::string &tok, corm::sim::Tick &out)
{
    char *end = nullptr;
    const double n = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || n < 0)
        return false;
    const std::string unit(end);
    double scale = 0;
    if (unit == "ns")
        scale = 1.0;
    else if (unit == "us")
        scale = static_cast<double>(corm::sim::usec);
    else if (unit == "ms")
        scale = static_cast<double>(corm::sim::msec);
    else if (unit == "s")
        scale = static_cast<double>(corm::sim::sec);
    else
        return false;
    out = static_cast<corm::sim::Tick>(n * scale);
    return true;
}

/** Render @p t with the largest unit that divides it evenly. */
std::string
formatDuration(corm::sim::Tick t)
{
    char buf[40];
    if (t % corm::sim::sec == 0)
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "s",
                      t / corm::sim::sec);
    else if (t % corm::sim::msec == 0)
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "ms",
                      t / corm::sim::msec);
    else if (t % corm::sim::usec == 0)
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "us",
                      t / corm::sim::usec);
    else
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "ns", t);
    return buf;
}

// Health lines format their numbers with integer std::to_chars where
// that gives printf's exact text, and with snprintf elsewhere:
// floating-point to_chars reads large tables, which raised
// fabric_churn_faulty's peak RSS by about 0.1 MB.

void
appendInt(std::string &out, std::int64_t v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void
appendPrintf(std::string &out, const char *fmt, double v)
{
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), fmt, v);
    out.append(buf, static_cast<std::size_t>(n));
}

/**
 * Append "%.6f" of toSeconds(@p t). Below 2^50 ns that double is
 * within 2^-53 of t / 1e9, too close to cross a microsecond rounding
 * boundary, except when t sits exactly on a half microsecond: there
 * the sign of the double's own error decides, and fma gives it
 * exactly. So the text is t rounded to whole microseconds.
 */
void
appendSeconds(std::string &out, corm::sim::Tick t)
{
    if (t >= (corm::sim::Tick{1} << 50)) {
        appendPrintf(out, "%.6f", corm::sim::toSeconds(t));
        return;
    }
    const corm::sim::Tick ns = t % 1000;
    const bool up = ns > 500
        || (ns == 500
            && std::fma(corm::sim::toSeconds(t), 1e9,
                        -static_cast<double>(t))
                > 0);
    auto us = static_cast<std::int64_t>(t / 1000 + (up ? 1 : 0));
    appendInt(out, us / 1000000);
    char frac[7] = {'.'};
    for (int i = 6; i > 0; --i, us /= 10)
        frac[i] = static_cast<char>('0' + us % 10);
    out.append(frac, sizeof(frac));
}

/** Append "%.10g" of @p v: an integral value below 1e10 prints as
 *  its digits. */
void
appendG10(std::string &out, double v)
{
    if (std::fabs(v) < 1e10 && v == std::trunc(v)
        && !(v == 0 && std::signbit(v)))
        appendInt(out, static_cast<std::int64_t>(v));
    else
        appendPrintf(out, "%.10g", v);
}

/** Append @p ev's str() line, the text printf's "t=%.6fs %-13s
 *  observed=%.10g threshold=%.10g <subject>" writes. */
void
appendEvent(std::string &out, const HealthEvent &ev)
{
    const std::string_view kind = healthEventKindName(ev.kind);
    out += "t=";
    appendSeconds(out, ev.when);
    out.append("s ").append(kind).append(
        13 - std::min<std::size_t>(kind.size(), 13), ' ');
    out += " observed=";
    appendG10(out, ev.observed);
    out += " threshold=";
    appendG10(out, ev.threshold);
    out.append(" ").append(ev.subject);
}

} // namespace

bool
SloRule::parse(std::string_view text, SloRule &out, std::string *err)
{
    auto fail = [&](const char *what) {
        if (err)
            *err = std::string(what) + " in rule '"
                + std::string(text) + "'";
        return false;
    };
    const auto tok = tokenize(text);
    if (tok.size() != 4 && tok.size() != 6)
        return fail("expected <metric> <agg> <op> <threshold> "
                    "[window <duration>]");
    SloRule r;
    r.metric = tok[0];
    if (tok[1] == "value")
        r.agg = Agg::value;
    else if (tok[1] == "rate")
        r.agg = Agg::rate;
    else if (tok[1] == "mean")
        r.agg = Agg::mean;
    else if (tok[1] == "p50")
        r.agg = Agg::p50;
    else if (tok[1] == "p99")
        r.agg = Agg::p99;
    else
        return fail("unknown aggregation");
    if (tok[2] == "<")
        r.op = Op::lt;
    else if (tok[2] == "<=")
        r.op = Op::le;
    else if (tok[2] == ">")
        r.op = Op::gt;
    else if (tok[2] == ">=")
        r.op = Op::ge;
    else
        return fail("unknown comparison");
    char *end = nullptr;
    r.threshold = std::strtod(tok[3].c_str(), &end);
    if (end == tok[3].c_str() || *end != '\0')
        return fail("bad threshold");
    if (tok.size() == 6) {
        if (tok[4] != "window")
            return fail("expected 'window'");
        if (!parseDuration(tok[5], r.window) || r.window == 0)
            return fail("bad window duration");
    }
    out = r;
    return true;
}

std::string
SloRule::str() const
{
    char num[48];
    std::snprintf(num, sizeof(num), "%.10g", threshold);
    return metric + " " + aggName(agg) + " " + opName(op) + " " + num
        + " window " + formatDuration(window);
}

const char *
healthEventKindName(HealthEvent::Kind k)
{
    switch (k) {
      case HealthEvent::Kind::breach: return "breach";
      case HealthEvent::Kind::recover: return "recover";
      case HealthEvent::Kind::stall: return "stall";
      case HealthEvent::Kind::stallRecover: return "stall-recover";
      case HealthEvent::Kind::abandon: return "abandon";
    }
    return "?";
}

std::string
HealthEvent::str() const
{
    std::string out;
    appendEvent(out, *this);
    return out;
}

std::vector<std::string>
defaultHealthRules()
{
    return {
        // The paper's coordination premise: a Tune must land fast.
        // 5 ms p99 leaves ~40x headroom over the 120 us mailbox.
        "coord.channel.delivery_latency_us{channel=coord.pci} p99 "
        "< 5000",
        // A retry storm means the channel is eating messages.
        "coord.channel.retries{channel=coord.pci} rate < 100 "
        "window 500ms",
        // An abandoned registration blinds the classifier forever.
        "reg.abandoned value < 1",
    };
}

HealthMonitor::HealthMonitor(corm::sim::Simulator &simulator,
                             const MetricRegistry &registry)
    : HealthMonitor(simulator, registry, Params())
{}

HealthMonitor::HealthMonitor(corm::sim::Simulator &simulator,
                             const MetricRegistry &registry,
                             Params params)
    : sim(simulator), reg(registry), cfg(std::move(params)),
      sampler_(registry, {cfg.seriesCapacity}),
      flight_(cfg.flightCapacity)
{
    for (const std::string &text : cfg.rules) {
        std::string err;
        if (!addRule(text, &err))
            ruleErrors_.push_back(err);
    }
}

HealthMonitor::~HealthMonitor() = default;

void
HealthMonitor::addRule(const SloRule &rule)
{
    RuleState rs;
    rs.rule = rule;
    rs.text = rule.str();
    ruleStates_.push_back(std::move(rs));
    rules_.push_back(rule);
}

bool
HealthMonitor::addRule(std::string_view text, std::string *err)
{
    SloRule r;
    if (!SloRule::parse(text, r, err))
        return false;
    addRule(r);
    return true;
}

void
HealthMonitor::start()
{
    if (ticker_)
        return;
    ticker_ = std::make_unique<corm::sim::PeriodicEvent>(
        sim, cfg.samplePeriod, [this] { tick(); });
}

void
HealthMonitor::stop()
{
    ticker_.reset();
}

int
HealthMonitor::lane(const std::string &name)
{
    const auto [it, added] =
        laneIds_.try_emplace(name, static_cast<int>(lanes_.size()));
    if (added) {
        Lane l;
        l.name = name;
        lanes_.push_back(std::move(l));
    }
    return it->second;
}

void
HealthMonitor::laneSent(int id)
{
    laneSentAt(id, sim.now());
}

void
HealthMonitor::laneSentAt(int id, corm::sim::Tick when)
{
    Lane &l = lanes_[static_cast<std::size_t>(id)];
    l.retired = false; // fresh traffic revives a retired lane
    ++l.sends;
    if (!l.outstanding) {
        l.outstanding = true;
        l.oldestUnanswered = when;
    }
}

void
HealthMonitor::laneDelivered(int id)
{
    laneDeliveredAt(id, sim.now());
}

void
HealthMonitor::laneDeliveredAt(int id, corm::sim::Tick when)
{
    Lane &l = lanes_[static_cast<std::size_t>(id)];
    l.retired = false;
    ++l.deliveries;
    const corm::sim::Tick now = when;
    if (l.stalled) {
        // Ongoing stall (found by tick()) just healed.
        l.stalled = false;
        HealthEvent ev;
        ev.kind = HealthEvent::Kind::stallRecover;
        ev.when = now;
        ev.subject = "lane " + l.name;
        ev.observed = corm::sim::toMicros(now - l.oldestUnanswered)
            / 1000.0;
        ev.threshold =
            corm::sim::toMicros(cfg.stallTimeout) / 1000.0;
        emit(std::move(ev));
    } else if (l.outstanding
               && now - l.oldestUnanswered > cfg.stallTimeout) {
        // Retroactive detection: the gap straddled two sampler
        // ticks, but the delivery itself proves how long the lane
        // was dark. Fires regardless of samplePeriod, so short
        // outages are never missed between ticks.
        HealthEvent ev;
        ev.kind = HealthEvent::Kind::stall;
        ev.when = now;
        ev.subject = "lane " + l.name;
        ev.observed = corm::sim::toMicros(now - l.oldestUnanswered)
            / 1000.0;
        ev.threshold =
            corm::sim::toMicros(cfg.stallTimeout) / 1000.0;
        emit(std::move(ev));
    }
    l.outstanding = false;
}

void
HealthMonitor::retireLane(int id)
{
    Lane &l = lanes_[static_cast<std::size_t>(id)];
    if (l.retired)
        return;
    if (l.stalled) {
        // The lane died mid-stall (hub crash): balance the event
        // stream with the recover its deliveries can no longer emit.
        l.stalled = false;
        HealthEvent ev;
        ev.kind = HealthEvent::Kind::stallRecover;
        ev.when = sim.now();
        ev.subject = "lane " + l.name;
        ev.observed = l.outstanding
            ? corm::sim::toMicros(sim.now() - l.oldestUnanswered)
                / 1000.0
            : 0.0;
        ev.threshold = corm::sim::toMicros(cfg.stallTimeout) / 1000.0;
        emit(std::move(ev));
    }
    // A clean departure drops any outstanding send silently: the
    // in-flight messages are attributed by the transport, and a
    // stall breach for traffic that can never resume is noise.
    l.outstanding = false;
    l.retired = true;
}

void
HealthMonitor::retireLanesExcept(const std::vector<int> &live)
{
    std::vector<bool> keep(lanes_.size(), false);
    for (const int id : live)
        keep[static_cast<std::size_t>(id)] = true;
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        if (!keep[i])
            retireLane(static_cast<int>(i));
}

void
HealthMonitor::noteAbandon(std::string who)
{
    noteAbandonAt(std::move(who), sim.now());
}

void
HealthMonitor::noteAbandonAt(std::string who, corm::sim::Tick when)
{
    HealthEvent ev;
    ev.kind = HealthEvent::Kind::abandon;
    ev.when = when;
    ev.subject = std::move(who);
    emit(std::move(ev));
}

bool
HealthMonitor::evaluate(RuleState &rs, corm::sim::Tick now,
                        double &observed)
{
    const SloRule &r = rs.rule;
    const Histogram *hist = reg.findHistogram(r.metric);
    const SeriesRing *ring = sampler_.series(r.metric);

    double current = 0.0;
    if (!reg.value(r.metric, current)) {
        if (!rs.reportedMissing) {
            rs.reportedMissing = true;
            ruleErrors_.push_back("rule '" + rs.text
                                  + "' references unknown metric '"
                                  + r.metric + "'");
        }
        observed = 0.0;
        return true; // an unknown metric never breaches
    }

    switch (r.agg) {
      case SloRule::Agg::value:
        observed = current;
        break;
      case SloRule::Agg::rate:
        observed = ring ? ring->rate(now, r.window) : 0.0;
        break;
      case SloRule::Agg::mean:
        observed = hist ? hist->mean()
                        : (ring ? ring->windowMean(now, r.window)
                                : current);
        break;
      case SloRule::Agg::p50:
      case SloRule::Agg::p99: {
        const double q = r.agg == SloRule::Agg::p50 ? 0.50 : 0.99;
        // Histogram metrics answer from the full distribution;
        // scalar metrics from the sampled window.
        if (hist)
            observed = hist->count() ? hist->quantile(q) : 0.0;
        else
            observed =
                ring ? ring->percentile(q, now, r.window) : 0.0;
        break;
      }
    }
    return compare(r.op, observed, r.threshold);
}

void
HealthMonitor::tick()
{
    poll(sim.now());
}

void
HealthMonitor::poll(corm::sim::Tick now)
{
    sampler_.sample(now);

    for (RuleState &rs : ruleStates_) {
        ++evaluations_;
        double observed = 0.0;
        const bool ok = evaluate(rs, now, observed);
        if (!ok && !rs.breached) {
            rs.breached = true;
            HealthEvent ev;
            ev.kind = HealthEvent::Kind::breach;
            ev.when = now;
            ev.subject = rs.text;
            ev.observed = observed;
            ev.threshold = rs.rule.threshold;
            emit(std::move(ev));
        } else if (ok && rs.breached) {
            rs.breached = false;
            HealthEvent ev;
            ev.kind = HealthEvent::Kind::recover;
            ev.when = now;
            ev.subject = rs.text;
            ev.observed = observed;
            ev.threshold = rs.rule.threshold;
            emit(std::move(ev));
        }
    }

    for (Lane &l : lanes_) {
        if (!l.retired && !l.stalled && l.outstanding
            && now - l.oldestUnanswered > cfg.stallTimeout) {
            l.stalled = true;
            HealthEvent ev;
            ev.kind = HealthEvent::Kind::stall;
            ev.when = now;
            ev.subject = "lane " + l.name;
            ev.observed =
                corm::sim::toMicros(now - l.oldestUnanswered)
                / 1000.0;
            ev.threshold =
                corm::sim::toMicros(cfg.stallTimeout) / 1000.0;
            emit(std::move(ev));
        }
    }
}

int
HealthMonitor::monitorTrack()
{
    if (trk_ < 0)
        trk_ = flight_.recorder().track("monitor", "health");
    return trk_;
}

void
HealthMonitor::emit(HealthEvent ev)
{
    const bool bad = ev.unhealthy();
    if (bad)
        ++breaches_;

    // Instant into the flight ring first, so the snapshot below
    // contains the event that triggered it; mirror into the full
    // trace when one is attached.
    const std::string name =
        std::string(healthEventKindName(ev.kind)) + ":" + ev.subject;
    flight_.recorder().instant(monitorTrack(), ev.when, name, "health",
                               {{"observed", ev.observed},
                                {"threshold", ev.threshold}});
    if (CORM_TRACE_ACTIVE(mirror_)) {
        if (mirrorTrk_ < 0)
            mirrorTrk_ = mirror_->track("monitor", "health");
        mirror_->instant(mirrorTrk_, ev.when, name, "health",
                         {{"observed", ev.observed},
                          {"threshold", ev.threshold}});
    }
    if (bad)
        flight_.snapshot(name, ev.when);

    events_.push_back(std::move(ev));
    if (bad && policyCb_)
        policyCb_(events_.back());
}

std::string
HealthMonitor::healthReport() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "[health] rules %zu, lanes %zu, events %zu "
                  "(unhealthy %" PRIu64 "), flight retained %zu "
                  "(dropped %" PRIu64 ")\n",
                  rules_.size(), lanes_.size(), events_.size(),
                  breaches_, flight_.retained(), flight_.dropped());
    std::string out = buf;
    out.reserve(out.size() + 96 * events_.size());
    for (const std::string &e : ruleErrors_)
        out += "  rule-error: " + e + "\n";
    for (const HealthEvent &ev : events_) {
        out += "  ";
        appendEvent(out, ev);
        out += '\n';
    }
    return out;
}

} // namespace corm::obs

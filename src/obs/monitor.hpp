/**
 * @file
 * The online health monitor: SLO watchdogs, liveness heartbeats and
 * the flight-recorder trigger.
 *
 * Everything observability built so far (PR 3) is post-hoc — traces
 * and metric snapshots inspected after the run. CoRM's argument is
 * that independent island managers must notice *during* the run when
 * coordination degrades (a stalled mailbox, a retry storm, a latency
 * SLO blown), so this layer closes the loop:
 *
 *  * **SloRule** — a declarative threshold over a registry metric,
 *    parsed from text (`coord.channel.retries rate < 25 window 500ms`)
 *    so benches, tests and configs share one grammar. Aggregations:
 *    `value` (current), `rate` (windowed per-second delta of the
 *    sampled series), `mean`/`p50`/`p99` (histogram metrics: the
 *    distribution; scalar metrics: windowed over samples).
 *
 *  * **HealthMonitor** — drives a RegistrySampler from simulated
 *    time, evaluates the rules edge-triggered (one breach event per
 *    excursion, one recover when it clears), and watches per-lane
 *    heartbeats: a lane (one mailbox direction) that has *sends*
 *    outstanding but no delivery for longer than the stall timeout is
 *    declared stalled — the signature of a burst outage, and
 *    deliberately send-gated so an idle lane never false-alarms.
 *
 *  * **HealthEvent** — the typed record of a breach / recover /
 *    stall / abandon, appended to the monitor's log, mirrored as an
 *    instant into the flight recorder (and the full trace when one is
 *    attached), and optionally handed to a policy callback so
 *    coordination can degrade gracefully.
 *
 *  * On the first unhealthy event the monitor snapshots the flight
 *    recorder (obs/flight.hpp), so an un-traced run still yields a
 *    Perfetto window around its first incident.
 *
 * Overhead: one periodic simulator event per samplePeriod plus the
 * bounded flight ring; both are measured in DESIGN.md §9.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace corm::obs {

/** One declarative SLO threshold over a registry metric. */
struct SloRule
{
    enum class Agg : std::uint8_t { value, rate, mean, p50, p99 };
    enum class Op : std::uint8_t { lt, le, gt, ge };

    /** Canonical full metric name (`name{k=v}`; no spaces). */
    std::string metric;
    Agg agg = Agg::value;
    Op op = Op::lt;
    double threshold = 0.0;
    /** Window of rate/mean/percentile aggregation. */
    corm::sim::Tick window = 1 * corm::sim::sec;

    bool operator==(const SloRule &) const = default;

    /**
     * Parse `<metric> <agg> <op> <threshold> [window <N><unit>]`
     * (unit: ns/us/ms/s; default window 1s). False + @p err on
     * malformed input. parse(str()) round-trips exactly.
     */
    static bool parse(std::string_view text, SloRule &out,
                      std::string *err = nullptr);

    /** Canonical text form (always includes the window). */
    std::string str() const;
};

/** Typed record of one health transition. */
struct HealthEvent
{
    enum class Kind : std::uint8_t
    {
        breach,       ///< an SLO rule went unhealthy
        recover,      ///< that rule went healthy again
        stall,        ///< a lane had sends but no delivery too long
        stallRecover, ///< deliveries resumed on a stalled lane
        abandon       ///< the reliable layer gave up on a message
    };

    Kind kind = Kind::breach;
    corm::sim::Tick when = 0;
    /** Rule text, lane name, or abandon description. */
    std::string subject;
    double observed = 0.0;
    double threshold = 0.0;

    /** True for kinds that count against healthy(). */
    bool unhealthy() const
    {
        return kind == Kind::breach || kind == Kind::stall
            || kind == Kind::abandon;
    }

    /** One human-readable line. */
    std::string str() const;
};

/** Human-readable event kind. */
const char *healthEventKindName(HealthEvent::Kind k);

/**
 * Watchdog rules a platform run wants by default: the coordination
 * channel's apply-latency SLO, a retry-rate ceiling, and zero
 * abandoned registrations. Textual, so callers can append or edit.
 */
std::vector<std::string> defaultHealthRules();

/**
 * The watchdog. Construct with the simulator and the registry,
 * add rules, then start(); it samples and evaluates every
 * samplePeriod of *simulated* time, so runs stay deterministic.
 */
class HealthMonitor
{
  public:
    struct Params
    {
        /** Sampling / rule-evaluation cadence (simulated time). */
        corm::sim::Tick samplePeriod = 25 * corm::sim::msec;
        /** Ring capacity per time series. */
        std::size_t seriesCapacity = 512;
        /** Flight-recorder window, in trace events. */
        std::size_t flightCapacity = 4096;
        /**
         * A lane with a send outstanding and no delivery for this
         * long is stalled.
         */
        corm::sim::Tick stallTimeout = 100 * corm::sim::msec;
        /** Rules to install at construction (SloRule grammar). */
        std::vector<std::string> rules;
    };

    HealthMonitor(corm::sim::Simulator &simulator,
                  const MetricRegistry &registry);
    HealthMonitor(corm::sim::Simulator &simulator,
                  const MetricRegistry &registry, Params params);
    ~HealthMonitor();

    HealthMonitor(const HealthMonitor &) = delete;
    HealthMonitor &operator=(const HealthMonitor &) = delete;

    /** Install a parsed rule. */
    void addRule(const SloRule &rule);

    /** Parse and install; false + @p err on a malformed rule. */
    bool addRule(std::string_view text, std::string *err = nullptr);

    const std::vector<SloRule> &rules() const { return rules_; }

    /** Arm the periodic sampler (idempotent). */
    void start();

    /** Disarm the periodic sampler. */
    void stop();

    /**
     * One sample + rule-evaluation + stall-scan pass at @p now.
     * start() drives this from a periodic simulator event; sharded
     * runs call it directly from the engine's barrier probe instead
     * (all workers parked, window end as the evaluation time), since
     * a ticker event inside one shard would perturb that shard's
     * window planning and break cross-shard-count digest identity.
     */
    void poll(corm::sim::Tick now);

    // Liveness lanes -----------------------------------------------

    /**
     * Register (or fetch) the heartbeat lane named @p name. Ids
     * follow first-registration order; a name registered again
     * returns its id, retired or not. O(1) through a name index.
     */
    int lane(const std::string &name);

    /** A message entered lane @p id (even if faults ate it). */
    void laneSent(int id);

    /** A message left lane @p id at the receiver. */
    void laneDelivered(int id);

    /**
     * Explicit-time variants for barrier-time replay: sharded runs
     * log lane activity shard-locally during a window and feed it to
     * the monitor at the barrier, in canonical order, stamped with
     * the tick it actually happened at.
     */
    void laneSentAt(int id, corm::sim::Tick when);
    void laneDeliveredAt(int id, corm::sim::Tick when);

    /**
     * Retire lane @p id — a link departed with its island (churn).
     * A cleanly-departed lane deactivates silently (no spurious
     * stall breach for traffic that will never resume); a lane that
     * was already stalled emits its stallRecover first so the event
     * stream stays balanced. The stall scan skips retired lanes;
     * fresh traffic on the lane (an island re-joining over the same
     * endpoint pair) revives it automatically.
     */
    void retireLane(int id);

    /** Retire every lane whose id is absent from @p live, in lane
     *  id order — sugar for the churn path. */
    void retireLanesExcept(const std::vector<int> &live);

    /** The reliable layer gave up on a message. */
    void noteAbandon(std::string who);

    /** Explicit-time variant of noteAbandon (see laneSentAt). */
    void noteAbandonAt(std::string who, corm::sim::Tick when);

    // Outputs --------------------------------------------------------

    /** All health transitions, in order. */
    const std::vector<HealthEvent> &events() const { return events_; }

    /** Unhealthy events (breach + stall + abandon) so far. */
    std::uint64_t breaches() const { return breaches_; }

    /** True while no unhealthy event has ever fired. */
    bool healthy() const { return breaches_ == 0; }

    /** Rules that referenced unknown metrics (reported once each). */
    const std::vector<std::string> &ruleErrors() const
    {
        return ruleErrors_;
    }

    FlightRecorder &flight() { return flight_; }
    const FlightRecorder &flight() const { return flight_; }

    /** The flight ring as a component-attachable recorder. */
    TraceRecorder *flightTrace() { return &flight_.recorder(); }

    const RegistrySampler &sampler() const { return sampler_; }

    /**
     * Invoked on every unhealthy event — the hook a coordination
     * policy uses to degrade gracefully (e.g. widen thresholds,
     * stop trusting a stalled channel).
     */
    void setPolicyCallback(std::function<void(const HealthEvent &)> fn)
    {
        policyCb_ = std::move(fn);
    }

    /**
     * Also mirror health instants into @p rec (the full --trace
     * recorder, when one is attached). The flight ring always gets
     * them.
     */
    void setMirrorTrace(TraceRecorder *rec) { mirror_ = rec; }

    /** Multi-line text log of every event plus a summary line. */
    std::string healthReport() const;

    /** Evaluations performed (one per rule per tick). */
    std::uint64_t evaluations() const { return evaluations_; }

  private:
    struct RuleState
    {
        SloRule rule;
        std::string text; ///< canonical form, cached for events
        bool breached = false;
        bool reportedMissing = false;
    };

    struct Lane
    {
        std::string name;
        /** Tick of the oldest send with no delivery after it; valid
         *  only while @ref outstanding is set. */
        corm::sim::Tick oldestUnanswered = 0;
        /** A send is awaiting a delivery (any tick, 0 included). */
        bool outstanding = false;
        bool stalled = false;
        /** Deactivated by retireLane(); skipped by the stall scan
         *  until traffic revives it. */
        bool retired = false;
        std::uint64_t sends = 0;
        std::uint64_t deliveries = 0;
    };

    void tick();
    bool evaluate(RuleState &rs, corm::sim::Tick now,
                  double &observed);
    void emit(HealthEvent ev);
    int monitorTrack();

    corm::sim::Simulator &sim;
    const MetricRegistry &reg;
    Params cfg;
    RegistrySampler sampler_;
    FlightRecorder flight_;
    TraceRecorder *mirror_ = nullptr;
    std::vector<RuleState> ruleStates_;
    std::vector<SloRule> rules_;
    std::vector<std::string> ruleErrors_;
    std::vector<Lane> lanes_;
    std::unordered_map<std::string, int> laneIds_; ///< name -> id
    std::vector<HealthEvent> events_;
    std::function<void(const HealthEvent &)> policyCb_;
    std::uint64_t breaches_ = 0;
    std::uint64_t evaluations_ = 0;
    int trk_ = -1;
    int mirrorTrk_ = -1;
    std::unique_ptr<corm::sim::PeriodicEvent> ticker_;
};

} // namespace corm::obs

/**
 * @file
 * Deterministic simulated-time event tracing in Chrome trace-event
 * format (loadable in Perfetto / chrome://tracing).
 *
 * Event model (DESIGN.md §8):
 *
 *  * **tracks** — each island (and the coordination fabric between
 *    them) maps to a (process, thread) pair; components register
 *    their track lazily by name, so the pid/tid assignment follows
 *    deterministic first-registration order;
 *  * **slices** ('X') — spans with a simulated-time start and
 *    duration (e.g. a channel hop: ts = send time, dur = transit);
 *  * **instants** ('i') and **counters** ('C') — point events and
 *    sampled series (queue occupancy);
 *  * **flows** ('s'/'t'/'f') — the causal coordination spans: a
 *    TraceId allocated at policy decision time is carried with the
 *    message through the mailbox, retries and the remote island's
 *    translation into scheduler action, and each leg emits a flow
 *    event bound to the slice it sits on, so Perfetto draws one
 *    arrow chain from classifier decision to scheduler effect.
 *    Every flow event carries its own stamp (FlowStamp): the leg it
 *    marks and, for a decision or a hop, the tick that leg ends —
 *    so attribution reads each flow event alone, never its
 *    neighbours (DESIGN.md §12).
 *
 * Overhead policy: tracing costs nothing when off. At compile time,
 * defining CORM_OBS_NO_TRACE turns every CORM_TRACE_ACTIVE() site
 * into a constant-false branch the compiler deletes. At run time the
 * recorder is attached by pointer; a null pointer (the default
 * everywhere) short-circuits before any argument is evaluated. Hot
 * paths therefore pay one predictable branch.
 *
 * Determinism: all timestamps are simulated Ticks, all ids are
 * allocated from per-recorder counters, and events serialize in
 * emission order — so for a fixed (config, seed) the serialized
 * trace is byte-identical regardless of host threading (--jobs), as
 * long as each trial owns its recorder (the harness guarantees
 * this).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json.hpp"
#include "sim/types.hpp"

namespace corm::obs {

/** Causal span id; 0 means "no flow". */
using TraceId = std::uint64_t;

/** True when tracing is compiled in (see the overhead policy). */
#ifdef CORM_OBS_NO_TRACE
inline constexpr bool traceCompiledIn = false;
#else
inline constexpr bool traceCompiledIn = true;
#endif

/**
 * One trace-event argument. The value keeps its type and is formatted
 * only when the trace is written (JsonWriter::field): numbers
 * unquoted ("%.10g" for doubles), strings quoted and escaped. Most
 * events of a bounded flight ring are discarded unwritten.
 */
struct TraceArg
{
    std::string key;
    std::variant<std::string, double, std::uint64_t, int> value;

    template <typename V>
    TraceArg(std::string k, V v) : key(std::move(k)), value(std::move(v))
    {}
};

/** The legs a flow's time splits into, in report and blame order
 *  (obs/flowprofile.hpp). */
enum class FlowLeg : std::uint8_t
{
    decide = 0,
    queue,
    wire,
    retry,
    apply,
    ack
};

inline constexpr std::size_t flowLegCount = 6;

/** Canonical leg name (report keys, blame labels). */
constexpr const char *
flowLegName(FlowLeg leg)
{
    switch (leg) {
      case FlowLeg::decide: return "decide";
      case FlowLeg::queue: return "queue";
      case FlowLeg::wire: return "wire";
      case FlowLeg::retry: return "retry";
      case FlowLeg::apply: return "apply";
      case FlowLeg::ack: return "ack";
    }
    return "?";
}

/** What one flow event marks; its producer knows and stamps it. */
enum class FlowMark : std::uint8_t
{
    decide,     ///< the policy decision that begins the span
    checkpoint, ///< an arrival: hub relay, final delivery, effect
    wire,       ///< a forward hop, traced at transmit
    ack,        ///< the ack's return hop, traced at transmit
    retry,      ///< a reliable sender's retransmission
    apply,      ///< the destination island applied the message
    fold,       ///< folded into a hub aggregate (the span ends)
    abandon     ///< the sender gave the message up (the span ends)
};

/** Serialized mark name (the "leg" argument of a flow event). */
constexpr const char *
flowMarkName(FlowMark mark)
{
    switch (mark) {
      case FlowMark::decide: return "decide";
      case FlowMark::checkpoint: return "checkpoint";
      case FlowMark::wire: return "wire";
      case FlowMark::ack: return "ack";
      case FlowMark::retry: return "retry";
      case FlowMark::apply: return "apply";
      case FlowMark::fold: return "fold";
      case FlowMark::abandon: return "abandon";
    }
    return "?";
}

/**
 * A flow event's stamp. A decision or a hop also carries the tick its
 * leg ends, in exact integer ns: a hop's first-copy delivery (known at
 * transmit), a decision's end. A hop is a replay when the link layer
 * sent it again after losing an earlier attempt.
 */
struct FlowStamp
{
    FlowMark mark = FlowMark::checkpoint;
    bool replay = false;     ///< hops only
    corm::sim::Tick end = 0; ///< decide and hops only

    /** A transit traced at transmit: forward (wire) or ack return. */
    static FlowStamp
    hop(bool ack, corm::sim::Tick delivery, bool replayed = false)
    {
        return {ack ? FlowMark::ack : FlowMark::wire, replayed,
                delivery};
    }

    /** A policy decision ending at @p end (the span's begin). */
    static FlowStamp
    decide(corm::sim::Tick end)
    {
        return {FlowMark::decide, false, end};
    }

    /** True for the marks that carry an end tick. */
    bool
    hasEnd() const
    {
        return mark == FlowMark::decide || isHop();
    }

    bool
    isHop() const
    {
        return mark == FlowMark::wire || mark == FlowMark::ack;
    }
};

/**
 * Decode the stamp a serialized flow event carries in its @p args
 * ("leg", plus "end_ns" and, on hops, "replay"). False when the leg
 * is missing or unknown, or an end-carrying mark lacks its end.
 */
inline bool
flowStampFromArgs(const JsonValue *args, FlowStamp &out)
{
    const JsonValue *leg = args ? args->get("leg") : nullptr;
    if (!leg || !leg->isString())
        return false;
    int m = 0;
    while (m <= static_cast<int>(FlowMark::abandon)
           && leg->str != flowMarkName(static_cast<FlowMark>(m)))
        ++m;
    if (m > static_cast<int>(FlowMark::abandon))
        return false;
    out.mark = static_cast<FlowMark>(m);
    if (!out.hasEnd())
        return true;
    const JsonValue *end = args->get("end_ns");
    if (!end || !end->isNumber() || end->num < 0)
        return false;
    out.end = static_cast<corm::sim::Tick>(end->num);
    const JsonValue *replay = args->get("replay");
    out.replay = replay && replay->kind == JsonValue::Kind::boolean
        && replay->b;
    return true;
}

/** One recorded event (Chrome trace-event phases). */
struct TraceEvent
{
    char phase = 'i';        ///< X, i, C, s, t, f
    corm::sim::Tick ts = 0;  ///< simulated time
    corm::sim::Tick dur = 0; ///< X only
    int track = 0;           ///< index into the recorder's tracks
    TraceId flow = 0;        ///< s/t/f only
    std::string name;
    std::string category;
    std::vector<TraceArg> args;
    FlowStamp stamp{}; ///< s/t/f only

    /**
     * Merge key, filled only when a merge clock is installed (see
     * TraceRecorder::setMergeClock): the emitting shard's simulated
     * time at emission plus a per-recorder monotone sequence. The
     * barrier-time merge sorts window buffers by
     * (emitTick, track name, emitSeq) — a placement-independent
     * total order, because every track is written by exactly one
     * shard (DESIGN.md §11).
     */
    corm::sim::Tick emitTick = 0;
    std::uint64_t emitSeq = 0;
};

/**
 * Records events and serializes them as Chrome trace-event JSON.
 * One recorder per trial; never shared across threads.
 */
class TraceRecorder
{
  public:
    /** Flow context installed around a message dispatch. */
    struct FlowContext
    {
        TraceId id = 0;
        /** True when the current dispatch is the flow's last leg. */
        bool final = false;
    };

    /** Runtime gate; a disabled recorder records nothing. */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Two-level verbosity. With detail off, instrumentation sites
     * tagged as dataplane detail — per-dispatch scheduler slices,
     * per-entity queue counter series — skip emission; coordination
     * spans, hops, applies and health events still record. The
     * flight recorder (obs/flight.hpp) runs with detail off so its
     * always-on window costs a fraction of full tracing; --trace
     * keeps the default (on) and records everything.
     */
    bool detail() const { return detail_; }
    void setDetail(bool on) { detail_ = on; }

    /**
     * Bound the retained window: keep (at least) the last @p cap
     * events, discarding the oldest beyond that. 0 (the default)
     * retains everything. The flight recorder (obs/flight.hpp) runs
     * every component's tracing into a small bounded window so it can
     * stay attached for a whole run at a fixed memory cost.
     *
     * Implementation note: the ring is an amortized vector — when the
     * buffer reaches 2×cap, the oldest half is erased in one move, so
     * steady-state cost stays O(1) per event and events() remains a
     * plain chronological vector.
     */
    void setCapacity(std::size_t cap) { capacity_ = cap; }

    /** Retained-window bound (0 = unbounded). */
    std::size_t capacity() const { return capacity_; }

    /** Events discarded past the retained window. */
    std::uint64_t droppedEvents() const { return dropped_; }

    /**
     * Register (or fetch) the track for (process, thread). Tracks
     * map to Perfetto pid/tid pairs; first registration order fixes
     * the numbering, so call sites must register deterministically
     * (they do: all registration happens from single-threaded
     * simulator callbacks).
     */
    int
    track(const std::string &process, const std::string &thread)
    {
        for (std::size_t i = 0; i < tracks.size(); ++i) {
            if (tracks[i].process == process
                && tracks[i].thread == thread)
                return static_cast<int>(i);
        }
        Track t;
        t.process = process;
        t.thread = thread;
        t.pid = 0;
        for (const Track &other : tracks) {
            if (other.process == process) {
                t.pid = other.pid;
                break;
            }
        }
        if (t.pid == 0)
            t.pid = ++nextPid;
        t.tid = 1;
        for (const Track &other : tracks) {
            if (other.process == process)
                ++t.tid;
        }
        tracks.push_back(t);
        return static_cast<int>(tracks.size() - 1);
    }

    /** Allocate a fresh causal span id (never 0). */
    TraceId newFlow() { return ++lastFlow; }

    /** Process name of a registered track. */
    const std::string &trackProcess(int trk) const
    {
        return tracks[static_cast<std::size_t>(trk)].process;
    }

    /** Thread name of a registered track. */
    const std::string &trackThread(int trk) const
    {
        return tracks[static_cast<std::size_t>(trk)].thread;
    }

    /**
     * Install the shard-local merge clock: every subsequent event is
     * stamped with (clock(), monotone seq) — see TraceEvent's merge
     * key. Window-local recorders under the sharded engine install
     * the owning shard simulator's now(); standalone recorders leave
     * it unset and pay nothing.
     */
    void setMergeClock(std::function<corm::sim::Tick()> clock)
    {
        mergeClock_ = std::move(clock);
    }

    /**
     * Re-emit @p e (recorded by a window-local recorder) into this
     * recorder under the (process, thread) track names, re-applying
     * the ends-exactly-once flow rule globally: window recorders can
     * only dedup flow ends within their own window, so the merged
     * recorder is the source of truth for which 'f' wins.
     */
    void absorb(const TraceEvent &e, const std::string &process,
                const std::string &thread)
    {
        if (!enabled_)
            return;
        TraceEvent copy = e;
        copy.track = track(process, thread);
        copy.emitTick = 0;
        copy.emitSeq = 0;
        if (copy.phase == 'f'
            && !endedFlows.insert(copy.flow).second)
            copy.phase = 't';
        push(std::move(copy));
    }

    /** Flow context of the in-progress dispatch (id 0 = none). */
    const FlowContext &currentFlow() const { return flowCtx; }

    /** Install/clear the dispatch flow context (see TraceScope). */
    void setCurrentFlow(FlowContext ctx) { flowCtx = ctx; }

    // Emission -----------------------------------------------------

    void
    complete(int trk, corm::sim::Tick ts, corm::sim::Tick dur,
             std::string name, std::string category,
             std::vector<TraceArg> args = {})
    {
        if (!enabled_)
            return;
        push({'X', ts, dur, trk, 0, std::move(name),
              std::move(category), std::move(args)});
    }

    void
    instant(int trk, corm::sim::Tick ts, std::string name,
            std::string category, std::vector<TraceArg> args = {})
    {
        if (!enabled_)
            return;
        push({'i', ts, 0, trk, 0, std::move(name),
              std::move(category), std::move(args)});
    }

    /** Counter sample: series @p series of counter @p name. */
    void
    counter(int trk, corm::sim::Tick ts, std::string name,
            std::string series, double value)
    {
        if (!enabled_)
            return;
        TraceEvent e;
        e.phase = 'C';
        e.ts = ts;
        e.track = trk;
        e.name = std::move(name);
        e.args.emplace_back(std::move(series), value);
        push(std::move(e));
    }

    /**
     * Flow event of span @p id, the one emission entry point of every
     * coordination leg: a decide stamp begins the span ('s'), @p last
     * ends it ('f'), anything else steps it ('t'). A null id (an
     * unflowed message) records nothing.
     */
    void
    span(int trk, corm::sim::Tick ts, TraceId id, FlowStamp stamp,
         bool last = false)
    {
        if (!enabled_ || id == 0)
            return;
        char phase = stamp.mark == FlowMark::decide ? 's'
            : last                                  ? 'f'
                                                    : 't';
        // A span ends exactly once: retransmitted or duplicated final
        // legs (a re-acked Tune, a duplicated ack) would otherwise
        // each emit an end, splitting the causal chain. The first end
        // wins; later ones join the chain as ordinary steps.
        if (phase == 'f' && !endedFlows.insert(id).second)
            phase = 't';
        TraceEvent e;
        e.phase = phase;
        e.ts = ts;
        e.track = trk;
        e.flow = id;
        e.name = "coord.span";
        e.category = "coord";
        e.stamp = stamp;
        push(std::move(e));
    }

    // Introspection ------------------------------------------------

    /** All recorded events, in emission order. */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Drop all recorded events (tracks and ids are kept). */
    void
    clear()
    {
        events_.clear();
        endedFlows.clear();
    }

    /**
     * Serialize as Chrome trace-event JSON: process/thread metadata
     * first, then every event in emission order. ts/dur are
     * microseconds (fractional; Ticks are nanoseconds).
     *
     * @p extra_key / @p extra_raw optionally splice one additional
     * top-level member (pre-serialized JSON) after the traceEvents
     * array — Perfetto and the schema checker ignore unknown
     * top-level members, so enriched snapshots (the flight recorder's
     * flow-attribution report) stay loadable traces. Empty key: the
     * historical byte-exact output.
     */
    void
    writeJson(std::ostream &out, const std::string &extra_key = {},
              const std::string &extra_raw = {}) const
    {
        JsonWriter j;
        j.beginObject();
        j.field("displayTimeUnit", std::string("ms"));
        j.beginArray("traceEvents");
        for (const Track &t : tracks) {
            metaEvent(j, "process_name", t.pid, 0, t.process);
            metaEvent(j, "thread_name", t.pid, t.tid, t.thread);
        }
        for (const TraceEvent &e : events_) {
            const Track &t =
                tracks[static_cast<std::size_t>(e.track)];
            j.beginObject();
            j.field("name", e.name);
            if (!e.category.empty())
                j.field("cat", e.category);
            j.field("ph", std::string(1, e.phase));
            j.fieldRaw("ts", micros(e.ts));
            if (e.phase == 'X')
                j.fieldRaw("dur", micros(e.dur));
            j.field("pid", t.pid);
            j.field("tid", t.tid);
            if (e.phase == 's' || e.phase == 't' || e.phase == 'f')
                j.field("id", e.flow);
            if (e.phase == 'i')
                j.field("s", std::string("t"));
            if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
                j.beginObject("args");
                j.field("leg", std::string(flowMarkName(e.stamp.mark)));
                if (e.stamp.hasEnd())
                    j.field("end_ns",
                            static_cast<std::uint64_t>(e.stamp.end));
                if (e.stamp.isHop())
                    j.field("replay", e.stamp.replay);
                j.endObject();
            } else if (!e.args.empty()) {
                j.beginObject("args");
                for (const TraceArg &a : e.args)
                    std::visit(
                        [&](const auto &v) { j.field(a.key.c_str(), v); },
                        a.value);
                j.endObject();
            }
            j.endObject();
        }
        j.endArray();
        if (!extra_key.empty())
            j.fieldRaw(extra_key.c_str(), extra_raw);
        j.endObject();
        out << j.str() << "\n";
    }

    /** JSON trace as a string (see writeJson). */
    std::string
    json(const std::string &extra_key = {},
         const std::string &extra_raw = {}) const
    {
        std::ostringstream out;
        writeJson(out, extra_key, extra_raw);
        return out.str();
    }

  private:
    struct Track
    {
        std::string process;
        std::string thread;
        int pid = 0;
        int tid = 0;
    };

    void
    push(TraceEvent &&e)
    {
        if (mergeClock_) {
            e.emitTick = mergeClock_();
            e.emitSeq = ++emitSeq_;
        }
        events_.push_back(std::move(e));
        if (capacity_ != 0 && events_.size() >= capacity_ * 2) {
            dropped_ += events_.size() - capacity_;
            events_.erase(events_.begin(),
                          events_.end()
                              - static_cast<std::ptrdiff_t>(capacity_));
        }
    }

    /** Ticks (ns) as a microsecond JSON number, byte-stable. */
    static std::string
    micros(corm::sim::Tick t)
    {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                      static_cast<unsigned long long>(t / 1000),
                      static_cast<unsigned long long>(t % 1000));
        return buf;
    }

    static void
    metaEvent(JsonWriter &j, const char *what, int pid, int tid,
              const std::string &value)
    {
        j.beginObject();
        j.field("name", std::string(what));
        j.field("ph", std::string("M"));
        j.field("pid", pid);
        j.field("tid", tid);
        j.beginObject("args");
        j.field("name", value);
        j.endObject();
        j.endObject();
    }

    bool enabled_ = true;
    bool detail_ = true;
    std::size_t capacity_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<Track> tracks;
    std::vector<TraceEvent> events_;
    std::set<TraceId> endedFlows;
    TraceId lastFlow = 0;
    FlowContext flowCtx;
    int nextPid = 0;
    std::function<corm::sim::Tick()> mergeClock_;
    std::uint64_t emitSeq_ = 0;
};

/**
 * RAII flow context: the channel installs the delivered message's
 * flow id around the destination island's apply dispatch, so the
 * island's own effect events (weight change, boost, thread-share
 * change) can join the causal chain without widening the
 * ResourceIsland interface.
 */
class TraceScope
{
  public:
    TraceScope(TraceRecorder *recorder, TraceId id, bool final_leg)
        : rec(recorder)
    {
        if (rec) {
            saved = rec->currentFlow();
            rec->setCurrentFlow({id, final_leg});
        }
    }

    ~TraceScope()
    {
        if (rec)
            rec->setCurrentFlow(saved);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    TraceRecorder *rec;
    TraceRecorder::FlowContext saved;
};

} // namespace corm::obs

/**
 * True when tracing is compiled in AND @p rec is attached. Guards
 * every instrumentation block; with CORM_OBS_NO_TRACE the branch is
 * constant-false and the block (argument construction included) is
 * compiled out.
 */
#define CORM_TRACE_ACTIVE(rec)                                        \
    (corm::obs::traceCompiledIn && (rec) != nullptr)

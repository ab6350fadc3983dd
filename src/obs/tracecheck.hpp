/**
 * @file
 * Structural validation of the Chrome trace-event JSON our
 * TraceRecorder emits (and Perfetto loads).
 *
 * Shared between the `trace_check` CLI (bench/trace_check.cpp, used
 * by the trace_smoke ctest against real bench output) and the unit
 * tests, which exercise the edge cases a healthy bench never
 * produces: empty traces, flows missing their ack leg, double
 * begins.
 *
 * Checked invariants: a traceEvents array; per-event ph/name/pid/tid;
 * ts on timed events; dur on complete events; positive ids and a
 * known leg stamp on flow events (obs::FlowStamp: a decision or hop
 * must end no earlier than its ts); per-flow exactly one begin, at
 * most one end, events in
 * non-decreasing timestamp order — and, when @p require_flow is set,
 * at least one complete begin → step → end chain (the causal
 * coordination span the tracing tentpole exists to show). Optional
 * extras (TraceCheckParams): an exact declared-track count, and the
 * cross-shard stitching rule — a flow ending on a different track
 * than it began must carry a step tying the two together, the
 * invariant the sharded barrier-time trace merge must preserve.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace corm::obs {

/** Result of one trace validation. */
struct TraceCheckResult
{
    std::size_t events = 0;        ///< entries in traceEvents
    std::size_t timed = 0;         ///< non-metadata events
    std::size_t tracks = 0;        ///< thread_name metadata tracks
    std::size_t flows = 0;         ///< distinct flow ids
    std::size_t complete = 0;      ///< flows with begin and end
    std::size_t multiHop = 0;      ///< complete flows with >= 1 step
    std::size_t maxSteps = 0;      ///< most steps in any complete flow
    std::size_t dangling = 0;      ///< begun flows that never ended
    /** Complete flows ending on a different track than they began —
     *  the cross-shard spans the sharded capture merge stitches. */
    std::size_t crossTrack = 0;
    /** Individual backwards steps along flow chains (counted always;
     *  each becomes its own violation under monotone_flows). */
    std::size_t monotoneViolations = 0;
    std::vector<std::string> violations;

    bool ok() const { return violations.empty(); }
};

/** Knobs of one trace validation (all checks off by default). */
struct TraceCheckParams
{
    /** Demand one complete begin -> step -> end causal chain. */
    bool require_flow = false;
    /** With require_flow: deepest complete chain must have >= this
     *  many steps (the multi-hop relay check). */
    std::size_t min_steps = 1;
    /** Nonzero: the trace must declare exactly this many tracks
     *  (thread_name metadata entries). */
    std::size_t expect_tracks = 0;
    /**
     * Cross-shard stitching check: every flow that begins ('s') on
     * one track and ends ('f') on a different track must carry at
     * least one step ('t') — the hop that ties the sender-side span
     * to the receiver-side continuation. A merge that lost the lane
     * flow-steps produces exactly this signature: teleporting spans.
     * Also demands at least one such cross-track flow, so an empty
     * or single-track trace cannot vacuously pass.
     */
    bool require_stitched = false;
    /**
     * Monotone-flows validation: timestamps must be non-decreasing
     * along every flow's step chain — dangling and abandoned chains
     * included, which the coarse per-flow ordering check also covers
     * but reports once per flow. Under this knob every individual
     * backwards step is its own violation, naming the event index
     * and the timestamps involved, so a sharded merge that
     * misordered one window is pinpointed rather than summarized.
     */
    bool monotone_flows = false;
};

/**
 * Validate a parsed trace document. @p require_flow additionally
 * demands one complete multi-hop causal chain; @p min_steps raises
 * the bar from "at least one step" to "at least one complete flow
 * with >= min_steps steps" — the multi-hop relay check: a span that
 * crossed an N-link fabric path shows one step per intermediate
 * relay, so a tree scenario's trace must contain deeper chains than
 * the two-island channel's begin -> step -> end.
 */
inline TraceCheckResult
checkTrace(const JsonValue &doc, const TraceCheckParams &params)
{
    TraceCheckResult r;
    auto violation = [&r](const std::string &what) {
        r.violations.push_back(what);
    };
    auto eventViolation = [&](const char *what, std::size_t index) {
        violation("event " + std::to_string(index) + ": " + what);
    };

    if (!doc.isObject()) {
        violation("top level is not an object");
        return r;
    }
    const JsonValue *events = doc.get("traceEvents");
    if (!events || !events->isArray()) {
        violation("missing traceEvents array");
        return r;
    }
    r.events = events->items.size();

    struct FlowChain
    {
        int begins = 0;
        int steps = 0;
        int ends = 0;
        double lastTs = 0.0;
        bool ordered = true; ///< events appeared in non-decreasing ts
        // Track identity of the begin and end legs, for the
        // cross-shard stitching check.
        double beginPid = 0.0, beginTid = 0.0;
        double endPid = 0.0, endTid = 0.0;
    };
    std::map<double, FlowChain> chains;

    for (std::size_t i = 0; i < events->items.size(); ++i) {
        const JsonValue &e = events->items[i];
        if (!e.isObject()) {
            eventViolation("not an object", i);
            continue;
        }
        const JsonValue *ph = e.get("ph");
        if (!ph || !ph->isString() || ph->str.size() != 1) {
            eventViolation("missing/odd ph", i);
            continue;
        }
        const char p = ph->str[0];
        const JsonValue *name = e.get("name");
        if (!name || !name->isString() || name->str.empty())
            eventViolation("missing name", i);
        const JsonValue *pid = e.get("pid");
        const JsonValue *tid = e.get("tid");
        if (!pid || !pid->isNumber() || !tid || !tid->isNumber())
            eventViolation("missing pid/tid", i);

        if (p == 'M') { // metadata carries no timestamp
            if (name && name->isString()
                && name->str == "thread_name")
                ++r.tracks;
            continue;
        }
        ++r.timed;
        const JsonValue *ts = e.get("ts");
        if (!ts || !ts->isNumber()) {
            eventViolation("timed event without numeric ts", i);
            continue;
        }
        if (p == 'X') {
            const JsonValue *dur = e.get("dur");
            if (!dur || !dur->isNumber() || dur->num < 0)
                eventViolation("complete event without dur", i);
        } else if (p == 's' || p == 't' || p == 'f') {
            const JsonValue *id = e.get("id");
            if (!id || !id->isNumber() || id->num <= 0) {
                eventViolation("flow event without positive id", i);
                continue;
            }
            FlowStamp stamp;
            if (!flowStampFromArgs(e.get("args"), stamp))
                eventViolation("flow event without a known leg stamp",
                               i);
            else if (stamp.hasEnd()
                     && static_cast<double>(stamp.end)
                         < std::round(ts->num * 1000.0))
                eventViolation("flow event whose leg ends before its ts",
                               i);
            FlowChain &c = chains[id->num];
            const bool first = c.begins + c.steps + c.ends == 0;
            if (!first && ts->num < c.lastTs) {
                c.ordered = false;
                ++r.monotoneViolations;
                if (params.monotone_flows) {
                    char buf[160];
                    std::snprintf(buf, sizeof(buf),
                                  "event %zu: flow %.0f steps "
                                  "backwards in ts (%.3f -> %.3f us)",
                                  i, id->num, c.lastTs, ts->num);
                    violation(buf);
                }
            }
            c.lastTs = ts->num;
            if (p == 's') {
                ++c.begins;
                if (pid && pid->isNumber() && tid && tid->isNumber()) {
                    c.beginPid = pid->num;
                    c.beginTid = tid->num;
                }
            } else if (p == 't') {
                ++c.steps;
            } else {
                ++c.ends;
                if (pid && pid->isNumber() && tid && tid->isNumber()) {
                    c.endPid = pid->num;
                    c.endTid = tid->num;
                }
            }
        } else if (p != 'i' && p != 'C') {
            eventViolation("unknown phase", i);
        }
    }

    r.flows = chains.size();
    char idbuf[40];
    for (const auto &[id, c] : chains) {
        std::snprintf(idbuf, sizeof(idbuf), "%.0f", id);
        if (c.begins != 1)
            violation("flow " + std::string(idbuf) + " has "
                      + std::to_string(c.begins) + " begins");
        if (c.ends > 1)
            violation("flow " + std::string(idbuf) + " has "
                      + std::to_string(c.ends) + " ends");
        if (!c.ordered)
            violation("flow " + std::string(idbuf)
                      + " events out of ts order");
        if (c.begins == 1 && c.ends == 1) {
            ++r.complete;
            if (c.steps > 0)
                ++r.multiHop;
            r.maxSteps = std::max(
                r.maxSteps, static_cast<std::size_t>(c.steps));
            const bool moved = c.beginPid != c.endPid
                || c.beginTid != c.endTid;
            if (moved) {
                ++r.crossTrack;
                if (params.require_stitched && c.steps == 0)
                    violation("flow " + std::string(idbuf)
                              + " ends on a different track with no "
                                "stitching step");
            }
        } else if (c.begins >= 1 && c.ends == 0) {
            // Begun but never ended: not a violation (a message
            // abandoned at a hub legitimately leaves its span
            // dangling), but surfaced so callers can assert on it.
            ++r.dangling;
        }
    }

    if (params.require_flow && r.multiHop == 0)
        violation("no complete multi-hop flow "
                  "(begin -> step -> end) found");
    if (params.require_flow && params.min_steps > 1
        && r.maxSteps < params.min_steps)
        violation("deepest complete flow has "
                  + std::to_string(r.maxSteps) + " steps, need >= "
                  + std::to_string(params.min_steps)
                  + " (multi-hop relay chain missing)");
    if (params.expect_tracks != 0 && r.tracks != params.expect_tracks)
        violation("expected " + std::to_string(params.expect_tracks)
                  + " tracks, found " + std::to_string(r.tracks));
    if (params.require_stitched && r.crossTrack == 0)
        violation("no cross-track flow found "
                  "(nothing to stitch)");
    return r;
}

/** Compatibility overload (require_flow / min_steps only). */
inline TraceCheckResult
checkTrace(const JsonValue &doc, bool require_flow,
           std::size_t min_steps = 1)
{
    TraceCheckParams p;
    p.require_flow = require_flow;
    p.min_steps = min_steps;
    return checkTrace(doc, p);
}

/** Parse @p text and validate; malformed JSON is a violation. */
inline TraceCheckResult
checkTraceText(std::string_view text, const TraceCheckParams &params)
{
    JsonValue doc;
    std::string err;
    if (!parseJson(text, doc, &err)) {
        TraceCheckResult r;
        r.violations.push_back("malformed JSON: " + err);
        return r;
    }
    return checkTrace(doc, params);
}

/** Compatibility overload (require_flow / min_steps only). */
inline TraceCheckResult
checkTraceText(std::string_view text, bool require_flow,
               std::size_t min_steps = 1)
{
    TraceCheckParams p;
    p.require_flow = require_flow;
    p.min_steps = min_steps;
    return checkTraceText(text, p);
}

} // namespace corm::obs

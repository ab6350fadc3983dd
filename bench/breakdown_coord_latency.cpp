/**
 * @file
 * Tune-to-effect latency decomposition from the causal trace spans.
 *
 * Runs the coordinated RUBiS scenario with tracing on and groups the
 * recorded events by causal span (one span per policy decision) to
 * attribute every microsecond between "classifier decided to Tune"
 * and "remote scheduler changed the weight" to a protocol leg:
 *
 *     decide -> send        policy/sender-side queueing
 *     send -> deliver       mailbox transit (the paper's §2.3 PCI
 *                           coordination-channel latency)
 *     deliver -> apply      receiver-side translation into scheduler
 *                           units
 *     apply -> ack          ack return leg (reliable mode only)
 *
 * Three modes: the paper's fire-and-forget Tunes, Tunes over the
 * ack+retry reliable sender on a clean channel, and reliable Tunes
 * under seeded loss+duplication weather — showing what delivery
 * guarantees cost in decision-to-effect latency.
 *
 * The decomposition runs one in-process trial per mode with a fixed
 * seed, so the table is deterministic and independent of --jobs.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/flowprofile.hpp"
#include "obs/trace.hpp"

namespace {

using corm::obs::TraceEvent;
using corm::obs::TraceId;
using corm::sim::Summary;

/** Per-span timeline reassembled from the recorder's event list. */
struct Span
{
    bool haveDecide = false;
    corm::sim::Tick decideTs = 0;
    /** Posted tune sends as (send, first-copy delivery) pairs. */
    std::vector<std::pair<corm::sim::Tick, corm::sim::Tick>> hops;
    bool haveApply = false;
    corm::sim::Tick applyTs = 0;
    bool haveAck = false;
    corm::sim::Tick ackEnd = 0;
    int retries = 0;
};

/** Aggregated decomposition of one mode's spans. */
struct Breakdown
{
    Summary decideToSend;   ///< us
    Summary sendToDeliver;  ///< us
    Summary deliverToApply; ///< us
    Summary applyToAck;     ///< us
    Summary total;          ///< us, decide -> apply (or ack return)
    std::uint64_t spans = 0;
    std::uint64_t completed = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t retries = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t events = 0;
};

double
usBetween(corm::sim::Tick a, corm::sim::Tick b)
{
    return b >= a ? static_cast<double>(b - a) / 1e3
                  : -static_cast<double>(a - b) / 1e3;
}

/**
 * Rebuild spans from the event list. Every flow event (s/t/f) carries
 * the leg its producer stamped on it, and a hop's stamp carries its
 * first-copy delivery tick, so each flow event is read alone.
 */
std::map<TraceId, Span>
collectSpans(const std::vector<TraceEvent> &events)
{
    using corm::obs::FlowMark;
    std::map<TraceId, Span> spans;
    for (const TraceEvent &e : events) {
        if (e.phase != 's' && e.phase != 't' && e.phase != 'f')
            continue;
        Span &sp = spans[e.flow];
        switch (e.stamp.mark) {
          case FlowMark::decide:
            sp.haveDecide = true;
            sp.decideTs = e.ts;
            break;
          case FlowMark::wire:
            sp.hops.emplace_back(e.ts, e.stamp.end);
            break;
          case FlowMark::apply:
            if (!sp.haveApply) {
                sp.haveApply = true;
                sp.applyTs = e.ts;
            }
            break;
          case FlowMark::ack:
            sp.haveAck = true;
            sp.ackEnd = e.stamp.end;
            break;
          case FlowMark::retry:
            ++sp.retries;
            break;
          default:
            break;
        }
    }
    return spans;
}

Breakdown
decompose(const std::vector<TraceEvent> &events)
{
    Breakdown b;
    b.events = events.size();
    // A duplicate copy is a bare hop:dup:* instant: the span already
    // passed that point with the first copy, so no flow event marks
    // it, and copies are counted over the whole trace.
    for (const TraceEvent &e : events) {
        if (e.name.rfind("hop:dup:", 0) == 0)
            ++b.duplicates;
    }
    for (const auto &[id, sp] : collectSpans(events)) {
        if (!sp.haveDecide)
            continue; // ack-only stragglers of registration traffic
        ++b.spans;
        b.retries += static_cast<std::uint64_t>(sp.retries);
        if (!sp.haveApply || sp.hops.empty()) {
            ++b.abandoned;
            continue;
        }
        ++b.completed;
        // The first posted send is the one the receiver applied
        // (this mode draws no reordering); retransmissions and
        // duplicate copies are suppressed at the endpoint.
        const auto &[sendTs, deliverTs] = sp.hops.front();
        b.decideToSend.record(usBetween(sp.decideTs, sendTs));
        b.sendToDeliver.record(usBetween(sendTs, deliverTs));
        b.deliverToApply.record(usBetween(deliverTs, sp.applyTs));
        corm::sim::Tick effect = sp.applyTs;
        if (sp.haveAck) {
            b.applyToAck.record(usBetween(sp.applyTs, sp.ackEnd));
            effect = sp.ackEnd;
        }
        b.total.record(usBetween(sp.decideTs, effect));
    }
    return b;
}

Breakdown
runMode(const corm::bench::BenchOptions &opts, bool reliable,
        bool faulty, std::uint64_t &events_executed,
        corm::obs::FlowProfiler &prof)
{
    corm::platform::RubisScenarioConfig cfg;
    cfg.coordination = true;
    cfg.warmup = 5 * corm::sim::sec;
    cfg.measure = 20 * corm::sim::sec;
    corm::bench::applyWindow(opts, cfg.warmup, cfg.measure);
    if (opts.seedSet)
        corm::platform::applyTrialSeed(cfg, opts.trial.seed);
    cfg.reliableTunes = reliable;
    if (faulty) {
        cfg.testbed.coordFaults.lossProb = 0.10;
        cfg.testbed.coordFaults.dupProb = 0.05;
    }
    corm::obs::TraceRecorder rec;
    cfg.testbed.trace = &rec;
    const auto r = corm::platform::runRubisScenario(cfg);
    events_executed += r.eventsExecuted;
    prof.ingest(rec);
    return decompose(rec.events());
}

/**
 * The FlowProfiler's view of the same spans: per-leg aggregate
 * attribution with tail percentiles, and the single slowest flow
 * with its blame — the EXPERIMENTS.md attribution table.
 */
void
printAttribution(const char *label,
                 const corm::obs::FlowProfiler &prof)
{
    using corm::obs::FlowLeg;
    using corm::obs::flowLegCount;
    using corm::obs::flowLegName;
    std::printf("\n%s — flow attribution:\n", label);
    std::printf("  %-8s %8s %12s %10s %10s %10s\n", "leg", "flows",
                "sum ms", "p50 us", "p99 us", "p999 us");
    for (std::size_t i = 0; i < flowLegCount; ++i) {
        const auto &d = prof.leg(static_cast<FlowLeg>(i));
        if (d.count == 0)
            continue;
        std::printf("  %-8s %8llu %12.2f %10.1f %10.1f %10.1f\n",
                    flowLegName(static_cast<FlowLeg>(i)),
                    static_cast<unsigned long long>(d.count),
                    static_cast<double>(d.sumNs) / 1e6,
                    d.hist.quantile(0.50), d.hist.quantile(0.99),
                    d.hist.quantile(0.999));
    }
    const auto top = prof.slowest(1);
    if (!top.empty()) {
        std::printf("  slowest flow: %.2f ms, blamed %s "
                    "(%llu retries, %llu hops)\n",
                    static_cast<double>(top.front().totalNs()) / 1e6,
                    top.front().blame(),
                    static_cast<unsigned long long>(
                        top.front().retries),
                    static_cast<unsigned long long>(
                        top.front().hops));
    }
}

void
printLeg(const char *label, const Summary &s)
{
    if (s.count() == 0) {
        std::printf("  %-22s %10s\n", label, "-");
        return;
    }
    std::printf("  %-22s %10.1f %10.1f %10.1f %8llu\n", label,
                s.mean(), s.min(), s.max(),
                static_cast<unsigned long long>(s.count()));
}

void
printMode(const char *label, const Breakdown &b)
{
    std::printf("\n%s:\n", label);
    std::printf("  %-22s %10s %10s %10s %8s\n", "leg (us)", "mean",
                "min", "max", "n");
    printLeg("decide -> send", b.decideToSend);
    printLeg("send -> deliver", b.sendToDeliver);
    printLeg("deliver -> apply", b.deliverToApply);
    printLeg("apply -> ack", b.applyToAck);
    printLeg("TOTAL decide->effect", b.total);
    std::printf("  spans %llu, completed %llu, abandoned %llu, "
                "retries %llu, duplicates %llu\n",
                static_cast<unsigned long long>(b.spans),
                static_cast<unsigned long long>(b.completed),
                static_cast<unsigned long long>(b.abandoned),
                static_cast<unsigned long long>(b.retries),
                static_cast<unsigned long long>(b.duplicates));
}

void
reportMode(corm::bench::BenchReport &report, const char *label,
           const Breakdown &b)
{
    report.addScalars(
        label,
        {{"decide_to_send_us", b.decideToSend.mean()},
         {"send_to_deliver_us", b.sendToDeliver.mean()},
         {"deliver_to_apply_us", b.deliverToApply.mean()},
         {"apply_to_ack_us", b.applyToAck.mean()},
         {"total_us_mean", b.total.mean()},
         {"total_us_max", b.total.max()},
         {"spans", static_cast<double>(b.spans)},
         {"completed", static_cast<double>(b.completed)},
         {"abandoned", static_cast<double>(b.abandoned)},
         {"retries", static_cast<double>(b.retries)},
         {"duplicates", static_cast<double>(b.duplicates)}});
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = corm::bench::parseArgs(
        argc, argv, "breakdown_coord_latency");
    corm::bench::banner(
        "Coordination latency breakdown",
        "decide -> send -> deliver -> apply decomposition of Tune "
        "spans (us)");

    corm::bench::BenchReport report(opts);
    std::uint64_t events = 0;
    corm::obs::FlowProfiler profFf, profRel, profFaulty;
    const Breakdown ff = runMode(opts, false, false, events, profFf);
    const Breakdown rel = runMode(opts, true, false, events, profRel);
    const Breakdown relFaulty =
        runMode(opts, true, true, events, profFaulty);

    printMode("fire-and-forget (paper baseline)", ff);
    printMode("reliable (ack + retry), clean channel", rel);
    printMode("reliable, 10% loss + 5% duplication", relFaulty);
    printAttribution("fire-and-forget", profFf);
    printAttribution("reliable, clean", profRel);
    printAttribution("reliable, 10% loss + 5% dup", profFaulty);

    std::printf(
        "\nReading: the mailbox transit dominates the decide-to-"
        "effect latency of a fire-and-forget Tune; adding\n"
        "delivery guarantees costs one ack return on a clean "
        "channel, and under loss the retry timeout (not the\n"
        "wire) sets the tail — the coordination channel stays "
        "usable exactly because Tunes tolerate loss.\n");

    // Machine-check of that reading (the EXPERIMENTS.md attribution
    // claim): under loss the slowest flow must be retry-timeout
    // bound — blamed on the retry leg, or abandoned outright after
    // the retry budget. A clean reliable channel must have no flow
    // blamed on retries at all.
    using corm::obs::FlowLeg;
    bool attributionHolds = true;
    const auto topFaulty = profFaulty.slowest(1);
    if (topFaulty.empty()
        || (std::strcmp(topFaulty.front().blame(), "retry") != 0
            && std::strcmp(topFaulty.front().blame(), "abandoned")
                != 0)) {
        attributionHolds = false;
        std::fprintf(stderr,
                     "breakdown_coord_latency: ATTRIBUTION CLAIM "
                     "BROKEN: faulty-cell slowest flow blamed %s, "
                     "expected retry/abandoned\n",
                     topFaulty.empty() ? "(none)"
                                       : topFaulty.front().blame());
    }
    if (profFaulty.blameCount("retry")
            + profFaulty.blameCount("abandoned")
        == 0) {
        attributionHolds = false;
        std::fprintf(stderr,
                     "breakdown_coord_latency: ATTRIBUTION CLAIM "
                     "BROKEN: 10%% loss left no retry-blamed "
                     "flows\n");
    }
    if (profRel.blameCount("retry") != 0
        || profFf.blameCount("retry") != 0) {
        attributionHolds = false;
        std::fprintf(stderr,
                     "breakdown_coord_latency: ATTRIBUTION CLAIM "
                     "BROKEN: clean channel has retry-blamed "
                     "flows\n");
    }

    reportMode(report, "fire_and_forget", ff);
    reportMode(report, "reliable", rel);
    reportMode(report, "reliable_faulty", relFaulty);
    report.addScalars(
        "reliable_faulty_attribution",
        {{"flows", static_cast<double>(profFaulty.flows().size())},
         {"blame_retry",
          static_cast<double>(profFaulty.blameCount("retry"))},
         {"blame_abandoned",
          static_cast<double>(profFaulty.blameCount("abandoned"))},
         {"retry_sum_ms",
          static_cast<double>(
              profFaulty.leg(FlowLeg::retry).sumNs)
              / 1e6},
         {"retry_p999_us",
          profFaulty.leg(FlowLeg::retry).hist.quantile(0.999)},
         {"slowest_total_ms",
          topFaulty.empty()
              ? 0.0
              : static_cast<double>(topFaulty.front().totalNs())
                  / 1e6},
         {"slowest_blamed_retry",
          attributionHolds ? 1.0 : 0.0}});
    report.addScalars("run",
                      {{"events_executed_total",
                        static_cast<double>(events)}},
                      events);
    report.write();
    if (!attributionHolds) {
        std::fprintf(stderr, "breakdown_coord_latency: FAILED "
                             "(attribution claim)\n");
        return 1;
    }
    return 0;
}

/**
 * @file
 * Offline flow-latency analytics over a merged Chrome trace-event
 * JSON file (the artefact --trace writes and the sharded barrier
 * merge produces):
 *
 *   trace_analyze FILE [--json OUT] [--top N]
 *
 * Independently recomputes the same attribution report the
 * in-process FlowProfiler produces (obs/flowprofile.hpp): per-flow
 * leg breakdowns (decide/queue/wire/retry/apply/ack), outcome and
 * blame tables, per-(link, message-type) wire distributions with
 * p50/p99/p999, and the top-N slowest flows. The flow_attr_check
 * ctest asserts this output is byte-identical to the report the
 * bench computed in-process from the live recorder — cross
 * validating the capture pipeline (serialize -> merge -> parse)
 * and the profiler itself in one comparison.
 *
 * --json OUT writes the report to OUT (stdout keeps the human
 * summary); without it the report JSON goes to stdout.
 *
 * Exit status: 0 on success, 2 on usage/IO/parse errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_args.hpp"
#include "obs/flowprofile.hpp"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s FILE [--json OUT] [--top N]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *path = nullptr;
    const char *jsonOut = nullptr;
    std::size_t topK = 5;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            jsonOut = argv[++i];
        } else if (!std::strcmp(argv[i], "--top") && i + 1 < argc) {
            topK = corm::bench::unsignedFlag("trace_analyze", argv[i],
                                             argv[i + 1], 0, 1'000'000);
            ++i;
        } else if (!path) {
            path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (!path)
        return usage(argv[0]);

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "trace_analyze: cannot open %s\n", path);
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    corm::obs::FlowProfiler prof;
    std::string err;
    if (!prof.ingestTraceText(buf.str(), &err)) {
        std::fprintf(stderr, "trace_analyze: %s: %s\n", path,
                     err.c_str());
        return 2;
    }

    const std::string report = prof.reportJson(topK);
    if (jsonOut) {
        std::ofstream out(jsonOut);
        if (!out) {
            std::fprintf(stderr, "trace_analyze: cannot write %s\n",
                         jsonOut);
            return 2;
        }
        out << report << "\n";
        using corm::obs::FlowLeg;
        using corm::obs::FlowOutcome;
        std::printf(
            "trace_analyze: %s: %llu flows (%llu completed, %llu "
            "coalesced, %llu abandoned, %llu orphans), total p99 "
            "%.1f us, blame wire/queue/retry %llu/%llu/%llu\n",
            path,
            static_cast<unsigned long long>(prof.flows().size()),
            static_cast<unsigned long long>(
                prof.outcomeCount(FlowOutcome::completed)),
            static_cast<unsigned long long>(
                prof.outcomeCount(FlowOutcome::coalesced)),
            static_cast<unsigned long long>(
                prof.outcomeCount(FlowOutcome::abandoned)),
            static_cast<unsigned long long>(
                prof.outcomeCount(FlowOutcome::orphan)),
            prof.total().hist.quantile(0.99),
            static_cast<unsigned long long>(prof.blameCount("wire")),
            static_cast<unsigned long long>(prof.blameCount("queue")),
            static_cast<unsigned long long>(
                prof.blameCount("retry")));
    } else {
        std::printf("%s\n", report.c_str());
    }
    return 0;
}

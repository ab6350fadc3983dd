/**
 * @file
 * CLI wrapper around the shared trace schema checker
 * (obs/tracecheck.hpp). Used by the trace_smoke and
 * shard_capture_check ctests to validate real bench-produced traces,
 * and handy interactively:
 *
 *   trace_check FILE [--require-flow] [--min-steps N]
 *               [--expect-tracks N] [--stitched-flows]
 *               [--monotone-flows]
 *
 * --min-steps N demands at least one complete flow with >= N steps
 * (implies --require-flow's chain requirement only when that flag is
 * also given; on its own it still validates the deepest chain) — the
 * multi-hop fabric check: a span relayed across an N-link tree path
 * carries one step per relay, so fabric scenarios assert deeper
 * chains than the two-island channel produces.
 *
 * --expect-tracks N demands exactly N declared tracks (thread_name
 * metadata entries) — the per-shard-track shape check.
 *
 * --stitched-flows enforces the cross-shard stitching rule: every
 * flow that ends on a different track than it began must carry at
 * least one step, and at least one such cross-track flow must exist.
 * A sharded trace merge that dropped the lane flow-steps fails this
 * with "teleporting" spans.
 *
 * --monotone-flows reports every individual backwards timestamp step
 * along any flow's chain as its own violation (event index + the
 * two timestamps), instead of the default one-line-per-flow
 * summary — the misordered-window forensics mode for the sharded
 * barrier-time merge.
 *
 * Exit status: 0 on a valid trace, 1 on violations (each printed),
 * 2 on usage/IO errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_args.hpp"
#include "obs/tracecheck.hpp"

namespace {

/** Upper bound of the numeric flags (far beyond any real trace). */
constexpr std::uint64_t maxCount = 1'000'000'000;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s FILE [--require-flow] [--min-steps N] "
                 "[--expect-tracks N] [--stitched-flows] "
                 "[--monotone-flows]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *path = nullptr;
    corm::obs::TraceCheckParams params;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--require-flow")) {
            params.require_flow = true;
        } else if (!std::strcmp(argv[i], "--min-steps")
                   && i + 1 < argc) {
            params.min_steps = corm::bench::unsignedFlag(
                "trace_check", argv[i], argv[i + 1], 1, maxCount);
            ++i;
            params.require_flow = true; // depth bar implies the chain
        } else if (!std::strcmp(argv[i], "--expect-tracks")
                   && i + 1 < argc) {
            params.expect_tracks = corm::bench::unsignedFlag(
                "trace_check", argv[i], argv[i + 1], 1, maxCount);
            ++i;
        } else if (!std::strcmp(argv[i], "--stitched-flows")) {
            params.require_stitched = true;
        } else if (!std::strcmp(argv[i], "--monotone-flows")) {
            params.monotone_flows = true;
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
        std::fprintf(stderr, "trace_check: cannot open %s\n", path);
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    const corm::obs::TraceCheckResult r =
        corm::obs::checkTraceText(buf.str(), params);
    for (const std::string &v : r.violations)
        std::fprintf(stderr, "trace_check: %s\n", v.c_str());

    std::printf("trace_check: %s: %zu events (%zu timed, %zu tracks), "
                "%zu flows (%zu complete, %zu multi-hop, %zu "
                "cross-track, max %zu steps, %zu dangling), "
                "%zu violation(s)\n",
                path, r.events, r.timed, r.tracks, r.flows, r.complete,
                r.multiHop, r.crossTrack, r.maxSteps, r.dangling,
                r.violations.size());
    return r.ok() ? 0 : 1;
}

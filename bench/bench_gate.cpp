/**
 * @file
 * Bench regression gate: compares a freshly produced BENCH_*.json
 * report against a committed baseline (a JSON file under
 * bench/baselines/) with per-metric relative tolerances, and fails
 * when a gated metric drifts outside its band.
 *
 * The simulator is deterministic for a fixed (config, seed), so the
 * gated metrics are exactly reproducible run to run; the tolerances
 * absorb intentional small drift across PRs (and are per metric, so
 * noisy aggregates can run looser than structural counters).
 *
 * Usage:
 *
 *   bench_gate BASELINE FRESH [--scale PATH=FACTOR]... [--expect-fail]
 *   bench_gate --init FRESH --out BASELINE PATH=TOL...
 *
 * The first form gates: every metric listed in BASELINE is looked up
 * by dotted path in FRESH and compared. `--scale` multiplies the
 * fresh value at PATH first (the ctest self-test uses it to
 * synthesize a regression); `--expect-fail` inverts the exit status
 * so that self-test can assert the gate *catches* it.
 *
 * The second form captures a baseline: each PATH=TOL argument reads
 * the value at PATH out of FRESH and records it with relative
 * tolerance TOL.
 *
 * Exit status: 0 pass, 1 regression (or, with --expect-fail, a pass
 * that should have failed), 2 usage/IO/format errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

using corm::obs::JsonValue;
using corm::obs::JsonWriter;

namespace {

bool
readFile(const char *path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/** Look up a dotted path ("results.base.throughput_rps.mean"). */
const JsonValue *
lookup(const JsonValue &doc, const std::string &path)
{
    const JsonValue *v = &doc;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        const std::size_t dot = path.find('.', pos);
        const std::string key = path.substr(
            pos, dot == std::string::npos ? std::string::npos
                                          : dot - pos);
        if (!v->isObject())
            return nullptr;
        v = v->get(key.c_str());
        if (!v)
            return nullptr;
        if (dot == std::string::npos)
            break;
        pos = dot + 1;
    }
    return v;
}

struct GateMetric
{
    std::string path;
    double value = 0.0;
    double relTol = 0.1;
};

int
capture(const char *fresh_path, const char *out_path,
        const std::vector<std::pair<std::string, double>> &wanted)
{
    std::string text;
    if (!readFile(fresh_path, text)) {
        std::fprintf(stderr, "bench_gate: cannot read %s\n",
                     fresh_path);
        return 2;
    }
    JsonValue doc;
    std::string err;
    if (!corm::obs::parseJson(text, doc, &err)) {
        std::fprintf(stderr, "bench_gate: %s: malformed JSON: %s\n",
                     fresh_path, err.c_str());
        return 2;
    }
    JsonWriter w;
    w.beginObject();
    const JsonValue *bench = doc.get("bench");
    w.field("bench", bench && bench->isString() ? bench->str : "");
    w.beginObject("metrics");
    for (const auto &[path, tol] : wanted) {
        const JsonValue *v = lookup(doc, path);
        if (!v || !v->isNumber()) {
            std::fprintf(stderr,
                         "bench_gate: %s: no numeric value at %s\n",
                         fresh_path, path.c_str());
            return 2;
        }
        w.beginObject(path.c_str());
        w.field("value", v->num);
        w.field("rel_tol", tol);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "bench_gate: cannot write %s\n",
                     out_path);
        return 2;
    }
    out << w.str() << "\n";
    std::printf("bench_gate: captured %zu metric(s) -> %s\n",
                wanted.size(), out_path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *baselinePath = nullptr;
    const char *freshPath = nullptr;
    const char *initFresh = nullptr;
    const char *outPath = nullptr;
    bool expectFail = false;
    std::vector<std::pair<std::string, double>> scales;
    std::vector<std::pair<std::string, double>> initMetrics;

    auto value = [&](const char *flag, int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr,
                         "bench_gate: missing value for %s\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    auto splitEq = [](const char *arg, std::string &key,
                      double &num) {
        const char *eq = std::strchr(arg, '=');
        if (!eq || eq == arg)
            return false;
        key.assign(arg, eq);
        num = std::strtod(eq + 1, nullptr);
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--init")) {
            initFresh = value(a, i);
        } else if (!std::strcmp(a, "--out")) {
            outPath = value(a, i);
        } else if (!std::strcmp(a, "--scale")) {
            std::string p;
            double f = 0.0;
            if (!splitEq(value(a, i), p, f)) {
                std::fprintf(stderr,
                             "bench_gate: bad --scale (want "
                             "PATH=FACTOR)\n");
                return 2;
            }
            scales.emplace_back(std::move(p), f);
        } else if (!std::strcmp(a, "--expect-fail")) {
            expectFail = true;
        } else if (initFresh) {
            std::string p;
            double t = 0.0;
            if (!splitEq(a, p, t)) {
                std::fprintf(stderr,
                             "bench_gate: bad metric spec '%s' "
                             "(want PATH=TOL)\n", a);
                return 2;
            }
            initMetrics.emplace_back(std::move(p), t);
        } else if (!baselinePath) {
            baselinePath = a;
        } else if (!freshPath) {
            freshPath = a;
        } else {
            std::fprintf(stderr,
                         "usage: %s BASELINE FRESH [--scale "
                         "PATH=FACTOR]... [--expect-fail]\n"
                         "       %s --init FRESH --out BASELINE "
                         "PATH=TOL...\n",
                         argv[0], argv[0]);
            return 2;
        }
    }

    if (initFresh) {
        if (!outPath || initMetrics.empty()) {
            std::fprintf(stderr,
                         "bench_gate: --init needs --out and at "
                         "least one PATH=TOL\n");
            return 2;
        }
        return capture(initFresh, outPath, initMetrics);
    }

    if (!baselinePath || !freshPath) {
        std::fprintf(stderr,
                     "usage: %s BASELINE FRESH [--scale "
                     "PATH=FACTOR]... [--expect-fail]\n",
                     argv[0]);
        return 2;
    }

    std::string baseText, freshText;
    if (!readFile(baselinePath, baseText)) {
        std::fprintf(stderr, "bench_gate: cannot read %s\n",
                     baselinePath);
        return 2;
    }
    if (!readFile(freshPath, freshText)) {
        std::fprintf(stderr, "bench_gate: cannot read %s\n",
                     freshPath);
        return 2;
    }
    JsonValue base, fresh;
    std::string err;
    if (!corm::obs::parseJson(baseText, base, &err)) {
        std::fprintf(stderr, "bench_gate: %s: malformed JSON: %s\n",
                     baselinePath, err.c_str());
        return 2;
    }
    if (!corm::obs::parseJson(freshText, fresh, &err)) {
        std::fprintf(stderr, "bench_gate: %s: malformed JSON: %s\n",
                     freshPath, err.c_str());
        return 2;
    }

    const JsonValue *metrics = base.get("metrics");
    if (!metrics || !metrics->isObject()
        || metrics->members.empty()) {
        std::fprintf(stderr,
                     "bench_gate: %s: no gated metrics\n",
                     baselinePath);
        return 2;
    }

    std::size_t checked = 0, regressions = 0;
    for (const auto &[path, spec] : metrics->members) {
        const JsonValue *want = spec.get("value");
        const JsonValue *tol = spec.get("rel_tol");
        if (!want || !want->isNumber()) {
            std::fprintf(stderr,
                         "bench_gate: baseline metric %s has no "
                         "value\n", path.c_str());
            return 2;
        }
        const double relTol =
            tol && tol->isNumber() ? tol->num : 0.1;
        const JsonValue *got = lookup(fresh, path);
        if (!got || !got->isNumber()) {
            std::printf("bench_gate: FAIL %s: missing from fresh "
                        "report\n", path.c_str());
            ++regressions;
            continue;
        }
        double observed = got->num;
        for (const auto &[sp, factor] : scales) {
            if (sp == path)
                observed *= factor;
        }
        ++checked;
        const double expect = want->num;
        const double band =
            relTol * (expect < 0 ? -expect : expect);
        const double delta =
            observed - expect < 0 ? expect - observed
                                  : observed - expect;
        if (delta > band) {
            std::printf("bench_gate: FAIL %s: %.6g outside %.6g "
                        "+/- %.1f%%\n",
                        path.c_str(), observed, expect,
                        100.0 * relTol);
            ++regressions;
        } else {
            std::printf("bench_gate: ok   %s: %.6g (baseline %.6g, "
                        "+/- %.1f%%)\n",
                        path.c_str(), observed, expect,
                        100.0 * relTol);
        }
    }

    const bool failed = regressions != 0;
    std::printf("bench_gate: %zu metric(s) checked, %zu "
                "regression(s)%s\n",
                checked, regressions,
                expectFail ? " (inverted: expecting failure)" : "");
    if (expectFail)
        return failed ? 0 : 1;
    return failed ? 1 : 0;
}

/**
 * @file
 * Ablation: coordination-channel latency and island fan-out.
 *
 * The paper attributes part of its mis-coordination to "the
 * relatively large latency of the PCIe-based messaging channel" and
 * argues (§3.3, Hardware considerations; §5) that tighter
 * interconnects (QPI/HTX-class) and hardware signalling would
 * eliminate it, and that the mechanisms must scale to many islands.
 *
 * Part 1 sweeps the channel latency from hardware-signal-class up to
 * slow-PCIe-class and reports the coordinated RUBiS outcome.
 *
 * Part 2 measures registration/tune fan-out across many islands
 * through the global controller (mechanism scalability).
 */

#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "coord/controller.hpp"
#include "coord/fabric.hpp"
#include "sim/sharded.hpp"

namespace {

/** Minimal island that just counts operations (fan-out target). */
class CountingIsland : public corm::coord::ResourceIsland
{
  public:
    explicit CountingIsland(corm::coord::IslandId island_id)
        : id_(island_id), name_("island-" + std::to_string(island_id))
    {}

    corm::coord::IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }
    void applyTune(corm::coord::EntityId, double) override { ++tunes; }
    void applyTrigger(corm::coord::EntityId) override { ++triggers; }
    void learnBinding(const corm::coord::EntityBinding &) override
    {
        ++bindings;
    }

    std::uint64_t tunes = 0, triggers = 0, bindings = 0;

  private:
    corm::coord::IslandId id_;
    std::string name_;
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opts =
        corm::bench::parseArgs(argc, argv, "ablation_scalability");
    corm::bench::banner("Ablation: scalability",
                        "channel latency sweep + many-island fan-out");
    corm::bench::BenchReport report(opts);

    std::printf("Part 1 -- coordination channel one-way latency sweep "
                "(coordinated RUBiS, 60 s):\n");
    std::printf("%12s %12s %12s %12s\n", "latency", "mean RT",
                "throughput", "tunes appl.");
    const corm::sim::Tick latencies[] = {
        1 * corm::sim::usec,    // on-chip hardware signalling
        10 * corm::sim::usec,   // QPI/HTX-class
        120 * corm::sim::usec,  // the prototype's PCIe config space
        500 * corm::sim::usec,  // slow PCIe
        2 * corm::sim::msec,    // slow shared bus
        20 * corm::sim::msec,   // pathological
    };
    constexpr int nLat = static_cast<int>(std::size(latencies));
    // Independent sweep rows: spread them across --jobs threads.
    std::vector<corm::platform::RubisResult> sweep(nLat);
    corm::platform::runTrialsIndexed(nLat, opts.trial.jobs, [&](int i) {
        corm::platform::RubisScenarioConfig cfg;
        cfg.coordination = true;
        cfg.testbed.coordLatency = latencies[i];
        cfg.warmup = 15 * corm::sim::sec;
        cfg.measure = 60 * corm::sim::sec;
        sweep[static_cast<std::size_t>(i)] =
            corm::platform::runRubisScenario(cfg);
    });
    for (int i = 0; i < nLat; ++i) {
        const auto &r = sweep[static_cast<std::size_t>(i)];
        std::printf("%9.0f us %9.0f ms %9.1f /s %12llu\n",
                    corm::sim::toMicros(latencies[i]), r.meanResponseMs,
                    r.throughputRps,
                    static_cast<unsigned long long>(r.tunesApplied));
        char label[48];
        std::snprintf(label, sizeof(label), "latency_%.0fus",
                      corm::sim::toMicros(latencies[i]));
        report.addScalars(label,
                          {{"latency_us",
                            corm::sim::toMicros(latencies[i])},
                           {"mean_response_ms", r.meanResponseMs},
                           {"throughput_rps", r.throughputRps},
                           {"tunes_applied", double(r.tunesApplied)}},
                          r.eventsExecuted);
    }

    std::printf("\nPart 2 -- global-controller fan-out across N "
                "islands (registrations broadcast to all others):\n");
    std::printf("%10s %14s %16s\n", "islands", "entities",
                "announcements");
    for (int n : {2, 4, 8, 16, 32, 64}) {
        corm::coord::GlobalController controller;
        std::vector<std::unique_ptr<CountingIsland>> islands;
        for (int i = 0; i < n; ++i) {
            islands.push_back(std::make_unique<CountingIsland>(
                static_cast<corm::coord::IslandId>(i + 1)));
            controller.registerIsland(*islands.back());
        }
        // Each island registers 4 entities.
        corm::coord::EntityId next = 1;
        for (int i = 0; i < n; ++i) {
            for (int e = 0; e < 4; ++e) {
                corm::coord::EntityBinding b;
                b.ref = {islands[static_cast<std::size_t>(i)]->id(),
                         next};
                b.ip = corm::net::IpAddr(0x0a000000u + next);
                b.name = "vm" + std::to_string(next);
                ++next;
                controller.registerEntity(b);
            }
        }
        std::uint64_t announced = 0;
        for (const auto &isl : islands)
            announced += isl->bindings;
        std::printf("%10d %14zu %16llu\n", n, controller.entityCount(),
                    static_cast<unsigned long long>(announced));
        char label[32];
        std::snprintf(label, sizeof(label), "fanout_%d_islands", n);
        report.addScalars(
            label, {{"islands", double(n)},
                    {"entities", double(controller.entityCount())},
                    {"announcements", double(announced)}});
    }
    // Part 3: fabric topology — the hub (Dom0-style) star against
    // the direct mesh that hardware-supported queues would enable.
    std::printf("\nPart 3 -- N-island fabric: hub-relay star vs "
                "direct mesh (10 us/hop, 10k tunes each):\n");
    std::printf("%10s %16s %16s %14s\n", "islands", "star lat (us)",
                "mesh lat (us)", "hub relays");
    for (int n : {4, 16, 64}) {
        double lat[2] = {0.0, 0.0};
        std::uint64_t relays = 0;
        for (int t = 0; t < 2; ++t) {
            const auto topo = t == 0
                ? corm::coord::FabricTopology::star
                : corm::coord::FabricTopology::mesh;
            corm::coord::FabricParams fp;
            fp.topology = topo;
            fp.hopLatency = 10 * corm::sim::usec;
            fp.hub = 1;
            corm::sim::ShardedEngine engine(1, fp.hopLatency);
            corm::coord::CoordFabric fabric(engine.sim(0), fp);
            std::vector<std::unique_ptr<CountingIsland>> islands;
            for (int i = 0; i < n; ++i) {
                islands.push_back(std::make_unique<CountingIsland>(
                    static_cast<corm::coord::IslandId>(i + 1)));
                fabric.attach(*islands.back());
            }
            fabric.enableSharding(engine, {});
            corm::sim::Rng rng(7);
            for (int k = 0; k < 10000; ++k) {
                corm::coord::CoordMessage m;
                m.type = corm::coord::MsgType::tune;
                m.src = static_cast<corm::coord::IslandId>(
                    1 + rng.uniformInt(static_cast<std::uint64_t>(n)));
                do {
                    m.dst = static_cast<corm::coord::IslandId>(
                        1
                        + rng.uniformInt(
                            static_cast<std::uint64_t>(n)));
                } while (m.dst == m.src);
                m.entity = 1;
                m.value = 1.0;
                fabric.send(m);
            }
            engine.runFor(1 * corm::sim::sec); // every hop lands
            lat[t] = fabric.stats().deliveryLatencyUs.mean();
            if (t == 0)
                relays = fabric.stats().hubRelays.value();
        }
        std::printf("%10d %16.1f %16.1f %14llu\n", n, lat[0], lat[1],
                    static_cast<unsigned long long>(relays));
        char label[32];
        std::snprintf(label, sizeof(label), "fabric_%d_islands", n);
        report.addScalars(label,
                          {{"islands", double(n)},
                           {"star_latency_us", lat[0]},
                           {"mesh_latency_us", lat[1]},
                           {"hub_relays", double(relays)}});
    }

    std::printf("\nFan-out grows as N*(N-1)*entities — the quadratic "
                "cost §5's distributed coordination work targets.\n"
                "Reading on part 1: the RUBiS Tune scheme is robust "
                "to channel latency well past PCIe-class — its\n"
                "actuation is already bounded by the scheduler's "
                "30 ms accounting period and the seconds-scale\n"
                "session waves it tracks; latency-critical schemes "
                "(the Fig. 7 Trigger) are the ones that benefit\n"
                "from tighter interconnects.\n");
    report.write();
    return 0;
}

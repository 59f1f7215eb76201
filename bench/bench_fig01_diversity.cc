/**
 * @file
 * Fig 1: variation (max/min ratio) of system-level and architectural
 * traits across the seven microservices — the diversity argument the
 * whole paper rests on.
 */

#include <algorithm>
#include <cmath>

#include "common.hh"

using namespace softsku;
using namespace softsku::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    printBanner("Fig 1", "diversity across microservices (max/min ratio, "
                         "log scale)");

    SimOptions opts = defaultSimOptions(args);

    struct Trait
    {
        std::string name;
        std::vector<double> values;
    };
    std::vector<Trait> traits{
        {"Throughput (QPS)", {}},      {"Req. latency", {}},
        {"CPU util.", {}},             {"Context switches", {}},
        {"IPC", {}},                   {"LLC code MPKI", {}},
        {"ITLB MPKI", {}},             {"Mem. bandwidth util.", {}},
    };

    for (const WorkloadProfile *service : allMicroservices()) {
        const PlatformSpec &platform =
            platformByName(service->defaultPlatform);
        CounterSet c = productionCounters(*service, opts);
        ServiceOperatingPoint op =
            solveOperatingPoint(*service, platform, opts.seed);
        traits[0].values.push_back(service->request.peakQps);
        traits[1].values.push_back(service->request.requestLatencySec);
        traits[2].values.push_back(op.cpuUtilization);
        traits[3].values.push_back(
            service->contextSwitch.switchesPerSecond);
        traits[4].values.push_back(c.coreIpc);
        traits[5].values.push_back(
            std::max(c.mpkiOf(c.llc, AccessType::Code), 0.01));
        traits[6].values.push_back(std::max(c.itlbMpki(), 0.01));
        traits[7].values.push_back(c.memBandwidthGBs /
                                   platform.peakMemBandwidthGBs);
    }

    TextTable table;
    table.header({"trait", "min", "max", "range (x)", "log10"});
    for (const Trait &t : traits) {
        double lo = *std::min_element(t.values.begin(), t.values.end());
        double hi = *std::max_element(t.values.begin(), t.values.end());
        double ratio = lo > 0 ? hi / lo : 0.0;
        table.row({t.name, format("%.3g", lo), format("%.3g", hi),
                   format("%.3g", ratio),
                   format("%.1f", std::log10(std::max(ratio, 1.0)))});
    }
    std::printf("%s\n", table.render().c_str());

    note("Paper: system-level traits vary by up to ~10^4-10^6x "
         "(throughput, latency, switches);");
    note("architectural traits (IPC, MPKI, bandwidth) by ~10^1-10^2x.");
    return 0;
}

/**
 * @file
 * Fig 3: maximum achievable CPU utilization (user vs kernel/IO share)
 * at peak load under each service's QoS constraints.
 */

#include "common.hh"

using namespace softsku;
using namespace softsku::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    printBanner("Fig 3", "CPU utilization at peak load (user/kernel)");

    SimOptions opts = defaultSimOptions(args);

    TextTable table;
    table.header({"uservice", "user%", "kernel+IO%", "total%", ""});
    for (const WorkloadProfile *service : allMicroservices()) {
        const PlatformSpec &platform =
            platformByName(service->defaultPlatform);
        ServiceOperatingPoint op =
            solveOperatingPoint(*service, platform, opts.seed);
        double user = op.userUtilization * 100.0;
        double kernel = op.kernelUtilization * 100.0;
        table.row({service->displayName, format("%.0f", user),
                   format("%.0f", kernel),
                   format("%.0f", user + kernel),
                   barRow("", user + kernel, 100.0, 30,
                          format("%.0f%%", user + kernel))});
    }
    std::printf("%s\n", table.render().c_str());
    note("Paper: utilization is capped well below 100%% for most services "
         "(QoS headroom); Cache tiers run lowest with the largest "
         "kernel share; Web runs hottest.");
    return 0;
}

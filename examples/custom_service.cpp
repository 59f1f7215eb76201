/**
 * @file
 * Defining and tuning a *new* microservice with the public API.
 *
 * The paper argues μSKU's value is highest for services that have no
 * dedicated performance-tuning engineers (Sec. 6.2).  This example
 * plays such a team: it defines a custom "thumbnailer" microservice
 * profile from scratch (image re-encoding: dense compute over
 * streaming buffers plus a metadata cache), characterizes it on both
 * Skylake platforms, and lets μSKU find its soft SKU.
 *
 * Usage: custom_service [--platform=skylake18] [--seed=1]
 */

#include <cstdio>

#include "core/usku.hh"
#include "services/services.hh"
#include "sim/qos.hh"
#include "sim/service_sim.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace softsku;

namespace {

/** A hypothetical image-thumbnailing microservice. */
WorkloadProfile
makeThumbnailer()
{
    WorkloadProfile p;
    p.name = "thumbnailer";
    p.displayName = "Thumbnailer";
    p.domain = "media";
    p.defaultPlatform = "skylake18";

    // Dense pixel math with a modest control plane.
    p.mix = {.branch = 0.10,
             .floating = 0.28,
             .arith = 0.25,
             .load = 0.26,
             .store = 0.11};

    p.request.peakQps = 800.0;
    p.request.requestLatencySec = 2e-2;
    p.request.pathLengthInsns = 4e7;
    p.request.runningFraction = 0.85;
    p.request.blockingPhases = 1;      // fetch source image
    p.request.workersPerCore = 2.0;
    p.request.sloLatencyMultiplier = 4.0;

    p.codeFootprintBytes = 10ull << 20;
    p.codeZipfSkew = 1.4;
    p.avgFunctionBytes = 512;
    p.avgBasicBlockBytes = 44;
    p.callFraction = 0.16;
    p.branchMispredictRate = 0.007;

    p.dataRegions = {
        {.name = "pixel_buffers",
         .sizeBytes = 512ull << 20,
         .pattern = DataPattern::Sequential,
         .strideBytes = 64,
         .weight = 0.55,
         .zipfSkew = 0.0,
         .madviseHuge = true,
         .thpFriendliness = 0.9},
        {.name = "metadata_cache",
         .sizeBytes = 256ull << 20,
         .pattern = DataPattern::Random,
         .strideBytes = 64,
         .weight = 0.30,
         .zipfSkew = 0.9,
         .hotBytes = 24ull << 20,
         .coldFraction = 0.04,
         .madviseHuge = false,
         .thpFriendliness = 0.6},
        {.name = "encode_scratch",
         .sizeBytes = 64ull << 20,
         .pattern = DataPattern::Strided,
         .strideBytes = 128,
         .weight = 0.15,
         .zipfSkew = 0.0,
         .madviseHuge = false,
         .thpFriendliness = 0.8},
    };

    p.contextSwitch.switchesPerSecond = 4000.0;
    p.kernelTimeShare = 0.04;
    p.switchDisturbance = 0.12;

    p.baseCpi = 0.42;
    p.smtThroughputScale = 1.22;
    p.cpuUtilizationCap = 0.80;
    p.dataMlp = 6.0;
    p.dataMidReuseFraction = 0.45;
    p.sharedDataFraction = 0.35;
    p.writebackFraction = 0.35;

    p.usesAvx = true;                  // SIMD pixel kernels
    p.usesShp = false;                 // no hugetlbfs use
    p.toleratesReboot = true;
    p.mipsValidMetric = true;
    p.validate();
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    WorkloadProfile service = makeThumbnailer();
    const PlatformSpec &platform =
        platformByName(args.get("platform", service.defaultPlatform));
    auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));

    std::printf("Custom microservice: %s on %s\n\n",
                service.displayName.c_str(), platform.name.c_str());

    // Step 1: characterize under the production defaults.
    KnobConfig production = productionConfig(platform, service);
    CounterSet counters =
        simulateService(service, platform, production, SimOptions{});
    ServiceOperatingPoint op =
        solveOperatingPoint(service, platform, seed);

    TextTable table;
    table.header({"metric", "value"});
    table.row({"IPC (per core)", format("%.2f", counters.coreIpc)});
    table.row({"front-end slots",
               format("%.0f%%", counters.topdown.frontEnd * 100)});
    table.row({"back-end slots",
               format("%.0f%%", counters.topdown.backEnd * 100)});
    table.row({"L1-I MPKI",
               format("%.1f", counters.mpkiOf(counters.l1i,
                                              AccessType::Code))});
    table.row({"LLC data MPKI",
               format("%.2f", counters.mpkiOf(counters.llc,
                                              AccessType::Data))});
    table.row({"memory bandwidth",
               format("%.0f GB/s", counters.memBandwidthGBs)});
    table.row({"peak QPS under SLO", format("%.0f", op.peakQps)});
    table.row({"p99 latency at peak",
               format("%.1f ms", op.p99LatencySec * 1e3)});
    table.row({"CPU utilization", format("%.0f%%",
               op.cpuUtilization * 100)});
    std::printf("%s\n", table.render().c_str());

    // Step 2: hand the service to μSKU.
    InputSpec spec;
    spec.microservice = service.name;
    spec.platform = platform.name;
    spec.seed = seed;
    spec.normalize();

    SimOptions simOpts;
    simOpts.warmupInstructions = 600'000;
    simOpts.measureInstructions = 800'000;
    ProductionEnvironment env(service, platform, seed, simOpts);
    Usku tool(env);
    UskuReport report = tool.run(spec);
    std::printf("%s\n", report.summary().c_str());
    return 0;
}

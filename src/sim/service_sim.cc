#include "sim/service_sim.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "cache/cdp.hh"
#include "sim/sim_core.hh"

namespace softsku {

namespace {

using namespace simcore;

/**
 * The TMAM/DRAM operating point of a finished simulation: the pipeline
 * cost model evaluated at a memory latency found by 12 damped
 * fixed-point iterations against the machine's bandwidth curve.
 */
struct Rollup
{
    PipelineCosts costs;
    MemoryOperatingPoint op;
    double threadIpc = 1.0;
};

Rollup
solveRollup(SimState &sim, const WorkloadProfile &profile,
            const PlatformSpec &platform)
{
    Machine &machine = sim.machine;
    const double ghz = machine.coreFreqGHz();
    const double n = static_cast<double>(sim.instructions);

    const double l1iMisses =
        static_cast<double>(machine.l1i().stats().misses[0]);
    const double l2CodeMisses =
        static_cast<double>(machine.l2().stats().misses[0]);
    const double llcCodeMisses =
        static_cast<double>(machine.llc().stats().misses[0]);
    const double l2CodeHits = std::max(0.0, l1iMisses - l2CodeMisses);
    const double llcCodeHits = std::max(0.0, l2CodeMisses - llcCodeMisses);

    const double mispredicts = static_cast<double>(sim.mispredicts);
    const double l2DataHitCount = static_cast<double>(sim.l2DataHitCount);
    const double itlbStlbHits = static_cast<double>(sim.itlbStlbHits);
    const double itlbWalks = static_cast<double>(sim.itlbWalks);
    const double dtlbStlbHits = static_cast<double>(sim.dtlbStlbHits);
    const double dtlbWalks = static_cast<double>(sim.dtlbWalks);

    const double llcLatNs = machine.dram().llcLatencyNs();
    const double walkNs = machine.dram().pageWalkLatencyNs();
    const double bytesPerFill =
        kLineBytes * (1.0 + profile.writebackFraction);
    const double totalFills = static_cast<double>(sim.dramDemandFills +
                                                  sim.dramPrefetchFills);

    // Static huge pages reserved beyond what the service can map are
    // pinned memory lost to the page cache; charge the displacement.
    const double shpWastePenalty =
        static_cast<double>(sim.pages.wastedShpBytes()) /
        (1024.0 * 1024.0 * 1024.0) * kShpWastePenaltyPerGiB;

    // Fraction of the footprint on 2 MiB pages: huge regions cost more
    // per migration when the far tier's promotion daemon is active.
    double footprintBytes = 0.0;
    for (const RegionMapping &mapping : sim.pages.mappings())
        footprintBytes += static_cast<double>(mapping.region->sizeBytes);
    const double hugeFrac =
        footprintBytes > 0.0
            ? static_cast<double>(sim.pages.totalHugeBytes()) /
                  footprintBytes
            : 0.0;

    // Fixed-point state, seeded with the unloaded latency.
    double memLatencyNs = machine.dram().unloadedLatencyNs();
    Rollup out;
    for (int iter = 0; iter < 12; ++iter) {
        out.costs = PipelineCosts{};
        out.costs.instructions = n;
        out.costs.baseCycles = n * profile.baseCpi;

        double l2Cyc = platform.l2LatencyCycles;
        double llcCyc = llcLatNs * ghz;
        double memCyc = memLatencyNs * ghz;
        double walkCyc = walkNs * ghz;

        out.costs.frontEndStallCycles =
            kCodeExposureL2 * l2CodeHits * l2Cyc +
            kCodeExposureLlc * llcCodeHits * llcCyc +
            kCodeExposureMem * llcCodeMisses * memCyc +
            itlbStlbHits * kStlbHitCycles +
            itlbWalks * walkCyc * kItlbWalkExposure;

        out.costs.badSpecCycles =
            mispredicts * platform.mispredictPenaltyCycles;

        out.costs.backEndStallCycles =
            l2DataHitCount * l2Cyc * 0.20 + sim.wLlcDataHit * llcCyc +
            sim.wMemData * memCyc + dtlbStlbHits * kStlbHitCycles * 0.5 +
            dtlbWalks * walkCyc * kDtlbWalkExposure + n * shpWastePenalty;

        out.threadIpc = ipcOf(out.costs);
        double threadIps = out.threadIpc * ghz * 1e9;
        double coreIps = threadIps * profile.smtThroughputScale;
        // The load balancer keeps CPU utilization at the QoS cap
        // (Sec. 2.3.3), which is what bounds offered memory traffic.
        double bw = totalFills / n * bytesPerFill * coreIps *
                    static_cast<double>(machine.activeCores()) *
                    profile.cpuUtilizationCap / 1e9;
        out.op = machine.memory().resolve(bw, hugeFrac);
        // Damped update: the raw fixed point can oscillate around the
        // saturation knee.
        memLatencyNs = 0.5 * memLatencyNs +
                       0.5 * out.op.latencyNs * out.op.backpressure;
    }

    if (getenv("SOFTSKU_DEBUG_COSTS")) {
        std::fprintf(stderr,
            "dbg: l1iM=%.0f l2cM=%.0f llccM=%.0f wLlc=%.1f wMem=%.1f "
            "l2dHit=%llu itlbS=%llu itlbW=%llu dtlbS=%llu dtlbW=%llu "
            "memLat=%.0f fe=%.0f be=%.0f bs=%.0f base=%.0f\n",
            l1iMisses, l2CodeMisses, llcCodeMisses, sim.wLlcDataHit,
            sim.wMemData, (unsigned long long)sim.l2DataHitCount,
            (unsigned long long)sim.itlbStlbHits,
            (unsigned long long)sim.itlbWalks,
            (unsigned long long)sim.dtlbStlbHits,
            (unsigned long long)sim.dtlbWalks, memLatencyNs,
            out.costs.frontEndStallCycles, out.costs.backEndStallCycles,
            out.costs.badSpecCycles, out.costs.baseCycles);
    }
    return out;
}

/** Assemble the CounterSet from a finished simulation and its roll-up. */
CounterSet
assembleCounters(SimState &sim, const Rollup &rollup,
                 const WorkloadProfile &profile,
                 const PlatformSpec &platform)
{
    CounterSet out;
    out.instructions = sim.instructions;
    std::copy(std::begin(sim.classCounts), std::end(sim.classCounts),
              std::begin(out.classCounts));
    out.l1i = sim.machine.l1i().stats();
    out.l1d = sim.machine.l1d().stats();
    out.l2 = sim.machine.l2().stats();
    out.llc = sim.machine.llc().stats();
    out.itlbL1 = sim.machine.itlb().l1().stats();
    out.dtlbL1 = sim.machine.dtlb().l1().stats();
    out.itlbWalks = sim.itlbWalks;
    out.dtlbWalks = sim.dtlbWalks;
    out.dtlbLoadMisses = sim.dtlbLoadMisses;
    out.dtlbStoreMisses = sim.dtlbStoreMisses;
    out.branches = sim.branches;
    out.mispredicts = sim.mispredicts;
    out.btbMisses = sim.btbMisses;
    out.dramDemandFills = sim.dramDemandFills;
    out.dramPrefetchFills = sim.dramPrefetchFills;
    out.contextSwitches = sim.contextSwitches;

    double overheadShare = profile.contextSwitch.penaltyFractionMid() +
                           profile.kernelTimeShare;
    overheadShare = std::min(overheadShare, 0.6);

    out.costs = rollup.costs;
    out.cycles = rollup.costs.totalCycles();
    out.ipc = rollup.threadIpc;
    out.coreIpc = rollup.threadIpc * profile.smtThroughputScale;
    out.topdown = computeTopDown(rollup.costs, platform.issueWidth);
    out.memBandwidthGBs = rollup.op.achievedGBs;
    out.memLatencyNs = rollup.op.latencyNs;
    out.memBackpressure = rollup.op.backpressure;
    out.cswPenaltyFraction = profile.contextSwitch.penaltyFractionMid();
    out.kernelShare = profile.kernelTimeShare + out.cswPenaltyFraction;
    out.mipsPerCore = out.coreIpc * sim.machine.coreFreqGHz() * 1e3 *
                      (1.0 - overheadShare);
    out.platformMips =
        out.mipsPerCore * static_cast<double>(sim.machine.activeCores());
    return out;
}

} // namespace

CounterSet
simulateService(const WorkloadProfile &profile, const PlatformSpec &platform,
                const KnobConfig &knobs, const SimOptions &options)
{
    profile.validate();
    SimState sim(profile, platform, knobs, options);
    if (options.catWays > 0)
        applyCat(sim.machine.llc(), options.catWays);

    sim.prewarm();
    sim.run(options.warmupInstructions, false);
    sim.clearStats();
    sim.run(options.measureInstructions, true);

    return assembleCounters(sim, solveRollup(sim, profile, platform),
                            profile, platform);
}

} // namespace softsku

#include "sim/service_sim.hh"

#include <algorithm>

#include "cache/cdp.hh"
#include "core/knob_registry.hh"
#include "sim/sim_core.hh"

namespace softsku {

namespace {

using namespace simcore;

/**
 * The TMAM/DRAM operating point of a finished event pass: the pipeline
 * cost model evaluated at a memory latency found by 12 damped
 * fixed-point iterations against the memory model's bandwidth curve.
 */
struct Rollup
{
    PipelineCosts costs;
    MemoryOperatingPoint op;
    double threadIpc = 1.0;
};

Rollup
solveRollup(const EventSummary &ev, const WorkloadProfile &profile,
            const PlatformSpec &platform, double ghz, int activeCores,
            const TieredMemoryModel &memory)
{
    const double n = static_cast<double>(ev.instructions);

    const double l1iMisses = static_cast<double>(ev.l1i.misses[0]);
    const double l2CodeMisses = static_cast<double>(ev.l2.misses[0]);
    const double llcCodeMisses = static_cast<double>(ev.llc.misses[0]);
    const double l2CodeHits = std::max(0.0, l1iMisses - l2CodeMisses);
    const double llcCodeHits = std::max(0.0, l2CodeMisses - llcCodeMisses);

    const double mispredicts = static_cast<double>(ev.mispredicts);
    const double l2DataHitCount = static_cast<double>(ev.l2DataHitCount);
    const double itlbStlbHits = static_cast<double>(ev.itlbStlbHits);
    const double itlbWalks = static_cast<double>(ev.itlbWalks);
    const double dtlbStlbHits = static_cast<double>(ev.dtlbStlbHits);
    const double dtlbWalks = static_cast<double>(ev.dtlbWalks);

    const double llcLatNs = memory.near().llcLatencyNs();
    const double walkNs = memory.near().pageWalkLatencyNs();
    const double bytesPerFill =
        kLineBytes * (1.0 + profile.writebackFraction);
    const double totalFills = static_cast<double>(ev.dramDemandFills +
                                                  ev.dramPrefetchFills);

    // Static huge pages reserved beyond what the service can map are
    // pinned memory lost to the page cache; charge the displacement.
    const double shpWastePenalty =
        static_cast<double>(ev.wastedShpBytes) /
        (1024.0 * 1024.0 * 1024.0) * kShpWastePenaltyPerGiB;

    // Fraction of the footprint on 2 MiB pages: huge regions cost more
    // per migration when the far tier's promotion daemon is active.
    const double hugeFrac =
        ev.footprintBytes > 0.0
            ? static_cast<double>(ev.totalHugeBytes) / ev.footprintBytes
            : 0.0;

    // Fixed-point state, seeded with the unloaded latency.
    double memLatencyNs = memory.near().unloadedLatencyNs();
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
            l2DataHitCount * l2Cyc * 0.20 + ev.wLlcDataHit * llcCyc +
            ev.wMemData * memCyc + dtlbStlbHits * kStlbHitCycles * 0.5 +
            dtlbWalks * walkCyc * kDtlbWalkExposure + n * shpWastePenalty;

        out.threadIpc = ipcOf(out.costs);
        double threadIps = out.threadIpc * ghz * 1e9;
        double coreIps = threadIps * profile.smtThroughputScale;
        // The load balancer keeps CPU utilization at the QoS cap
        // (Sec. 2.3.3), which is what bounds offered memory traffic.
        double bw = totalFills / n * bytesPerFill * coreIps *
                    static_cast<double>(activeCores) *
                    profile.cpuUtilizationCap / 1e9;
        out.op = memory.resolve(bw, hugeFrac);
        // Damped update: the raw fixed point can oscillate around the
        // saturation knee.
        memLatencyNs = 0.5 * memLatencyNs +
                       0.5 * out.op.latencyNs * out.op.backpressure;
    }
    return out;
}

/** Assemble the CounterSet from a window's events and its roll-up. */
CounterSet
assembleCounters(const EventSummary &ev, const Rollup &rollup,
                 const WorkloadProfile &profile,
                 const PlatformSpec &platform, double ghz, int activeCores)
{
    CounterSet out;
    out.instructions = ev.instructions;
    std::copy(std::begin(ev.classCounts), std::end(ev.classCounts),
              std::begin(out.classCounts));
    out.l1i = ev.l1i;
    out.l1d = ev.l1d;
    out.l2 = ev.l2;
    out.llc = ev.llc;
    out.itlbL1 = ev.itlbL1;
    out.dtlbL1 = ev.dtlbL1;
    out.itlbWalks = ev.itlbWalks;
    out.dtlbWalks = ev.dtlbWalks;
    out.dtlbLoadMisses = ev.dtlbLoadMisses;
    out.dtlbStoreMisses = ev.dtlbStoreMisses;
    out.branches = ev.branches;
    out.mispredicts = ev.mispredicts;
    out.btbMisses = ev.btbMisses;
    out.dramDemandFills = ev.dramDemandFills;
    out.dramPrefetchFills = ev.dramPrefetchFills;
    out.contextSwitches = ev.contextSwitches;

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
    out.mipsPerCore = out.coreIpc * ghz * 1e3 * (1.0 - overheadShare);
    out.platformMips = out.mipsPerCore * static_cast<double>(activeCores);
    return out;
}

} // namespace

EventSummary
runEvents(const WorkloadProfile &profile, const PlatformSpec &platform,
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
    return sim.summary();
}

CounterSet
rollup(const EventSummary &events, const WorkloadProfile &profile,
       const PlatformSpec &platform, const KnobConfig &knobs)
{
    const KnobConfig actuated = actuatedKnobs(knobs, platform);
    const int cores = actuated.resolvedCores(platform);
    const TieredMemoryModel memory(platform, actuated.uncoreFreqGHz,
                                   actuated.mbaPercent,
                                   actuated.tierPolicy,
                                   actuated.farMemRatio);
    return assembleCounters(
        events,
        solveRollup(events, profile, platform, actuated.coreFreqGHz, cores,
                    memory),
        profile, platform, actuated.coreFreqGHz, cores);
}

CounterSet
simulateService(const WorkloadProfile &profile, const PlatformSpec &platform,
                const KnobConfig &knobs, const SimOptions &options)
{
    return rollup(runEvents(profile, platform, knobs, options), profile,
                  platform, knobs);
}

KnobConfig
actuatedKnobs(const KnobConfig &knobs, const PlatformSpec &platform)
{
    MsrFile msr;
    KernelFs fs;
    actuateKnobs(knobs, platform, msr, fs);
    return effectiveKnobs(msr, fs, platform);
}

KnobConfig
eventKnobs(const KnobConfig &knobs, const PlatformSpec &platform)
{
    const KnobConfig unconfigured =
        effectiveKnobs(MsrFile{}, KernelFs{}, platform);
    KnobConfig out = knobs;
    for (const KnobDescriptor &d : knobRegistry()) {
        if (!d.affectsEvents)
            d.apply(d.capture(unconfigured), out);
    }
    return out;
}

} // namespace softsku

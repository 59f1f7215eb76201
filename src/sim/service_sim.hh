/**
 * @file
 * The trace-driven microservice simulator.
 *
 * One run plays a synthetic instruction/data stream (from the workload
 * generators) through a Machine's structural models — I/D caches with
 * CDP, two-level TLBs fed by the page mapper, BTB, prefetchers, shared
 * LLC with multi-core interference injection — and then assembles the
 * observed event counts into cycles with a TMAM-style cost model and a
 * DRAM bandwidth/latency fixed point.  Everything the characterization
 * figures and μSKU's A/B metric need comes out in one CounterSet.
 *
 * The two halves are separate stages with a plain-data boundary:
 * runEvents() plays the streams and returns an EventSummary, and
 * rollup() prices it under a full configuration.  Only the structural
 * knobs reach the event pass, so configurations that differ only in
 * frequency or memory-tier knobs can share one (see eventKnobs()).
 *
 * Multi-core sharing: one representative hardware thread is simulated;
 * for every LLC access it performs, the other active cores perform one
 * each (they run the same service at the same load).  Foreign *code*
 * accesses reuse the shared text addresses; foreign *data* accesses are
 * the same stream displaced into per-core address spaces.  LLC capacity
 * pressure, CAT/CDP interactions, and the core-count scaling bend
 * (Fig 15) all follow from this.
 */

#ifndef SOFTSKU_SIM_SERVICE_SIM_HH
#define SOFTSKU_SIM_SERVICE_SIM_HH

#include <cstdint>

#include "arch/platform.hh"
#include "core/knobs.hh"
#include "sim/counters.hh"
#include "workload/profile.hh"

namespace softsku {

/** Window sizing and seeding for one simulation. */
struct SimOptions
{
    /** Instructions run before stats collection starts (cache warmup). */
    std::uint64_t warmupInstructions = 1'000'000;
    /** Instructions measured. */
    std::uint64_t measureInstructions = 1'500'000;
    std::uint64_t seed = 1;
    /**
     * CAT capacity limit: restrict LLC allocation (code and data) to
     * the low N ways; 0 leaves all ways enabled.  Used by the Fig 10
     * way-sensitivity sweep.
     */
    int catWays = 0;
    /** Ablation: run the shared LLC with strict LRU instead of SRRIP. */
    bool llcLru = false;
    /** Ablation: disable foreign-core LLC interference injection. */
    bool disableInterference = false;
};

/**
 * What the event pass observed in its measured window: the event
 * counts, the cache and TLB statistics, and the page-mapping scalars
 * the roll-up reads.  Plain data, so it can be memoized and shared.
 */
struct EventSummary
{
    std::uint64_t instructions = 0;
    std::uint64_t classCounts[5] = {0, 0, 0, 0, 0};
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    CacheStats llc;
    TlbStats itlbL1;
    TlbStats dtlbL1;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t itlbStlbHits = 0, itlbWalks = 0;
    std::uint64_t dtlbStlbHits = 0, dtlbWalks = 0;
    std::uint64_t dtlbLoadMisses = 0, dtlbStoreMisses = 0;
    std::uint64_t dramDemandFills = 0, dramPrefetchFills = 0;
    std::uint64_t contextSwitches = 0;
    double wLlcDataHit = 0.0;    //!< Σ 1/mlp over L2-miss LLC-hit data
    double wMemData = 0.0;       //!< Σ 1/mlp over LLC-miss data
    std::uint64_t l2DataHitCount = 0;

    /** Static huge pages reserved beyond what the service maps. */
    std::uint64_t wastedShpBytes = 0;
    /** Footprint bytes mapped on 2 MiB pages. */
    std::uint64_t totalHugeBytes = 0;
    /** Σ of the mapped regions' sizes, summed in mapping order. */
    double footprintBytes = 0.0;

    bool operator==(const EventSummary &) const = default;
};

/**
 * The event pass: play @p profile's instruction and data streams
 * through the machine @p knobs assemble, and count what happens.  Only
 * the knobs whose descriptor sets KnobDescriptor::affectsEvents (cores,
 * CDP, prefetchers, THP, SHP) change the result; see eventKnobs().
 */
EventSummary runEvents(const WorkloadProfile &profile,
                       const PlatformSpec &platform,
                       const KnobConfig &knobs,
                       const SimOptions &options = SimOptions{});

/**
 * The roll-up: price @p events under the full configuration @p knobs.
 * Actuates @p knobs (so the MSR and kernel-file quantization and the
 * range checks apply), builds the memory model, solves the TMAM/DRAM
 * operating point and assembles the CounterSet.  Microseconds, against
 * the event pass's tens to hundreds of milliseconds.
 */
CounterSet rollup(const EventSummary &events, const WorkloadProfile &profile,
                  const PlatformSpec &platform, const KnobConfig &knobs);

/**
 * Simulate @p profile on @p platform configured with @p knobs:
 * rollup(runEvents(...)).  Deterministic for fixed options.
 */
CounterSet simulateService(const WorkloadProfile &profile,
                           const PlatformSpec &platform,
                           const KnobConfig &knobs,
                           const SimOptions &options = SimOptions{});

/**
 * The configuration a server runs after @p knobs is actuated and read
 * back: frequencies on the MSR's 100 MHz ratio grid, the far ratio on
 * the kernel file's 1% grid, "all cores" resolved.  Two configurations
 * with the same actuated form simulate identically.
 */
KnobConfig actuatedKnobs(const KnobConfig &knobs,
                         const PlatformSpec &platform);

/**
 * The event-pass projection of @p knobs: every knob whose descriptor
 * clears KnobDescriptor::affectsEvents takes the value an unconfigured
 * @p platform boots with.  Configurations with equal projections share
 * one event pass.
 */
KnobConfig eventKnobs(const KnobConfig &knobs, const PlatformSpec &platform);

} // namespace softsku

#endif // SOFTSKU_SIM_SERVICE_SIM_HH

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
 * Simulate @p profile on @p platform configured with @p knobs.
 * Deterministic for fixed options.
 */
CounterSet simulateService(const WorkloadProfile &profile,
                           const PlatformSpec &platform,
                           const KnobConfig &knobs,
                           const SimOptions &options = SimOptions{});

} // namespace softsku

#endif // SOFTSKU_SIM_SERVICE_SIM_HH

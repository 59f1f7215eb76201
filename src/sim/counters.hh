/**
 * @file
 * The full counter set one simulated measurement window produces —
 * everything the paper's characterization figures and μSKU's metrics
 * are built from.
 */

#ifndef SOFTSKU_SIM_COUNTERS_HH
#define SOFTSKU_SIM_COUNTERS_HH

#include <cstdint>

#include "arch/topdown.hh"
#include "cache/cache.hh"
#include "tlb/tlb.hh"

namespace softsku {

/** Counters and derived metrics for one simulated window. */
struct CounterSet
{
    // -- execution ---------------------------------------------------------
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    double ipc = 0.0;                 //!< per hardware thread
    double coreIpc = 0.0;             //!< per core (SMT-scaled)
    double mipsPerCore = 0.0;         //!< millions of insns/s per core
    double platformMips = 0.0;        //!< across all active cores

    // -- instruction classes (Fig 5) ----------------------------------------
    std::uint64_t classCounts[5] = {0, 0, 0, 0, 0};

    // -- caches (Figs 8-10) ---------------------------------------------------
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    CacheStats llc;

    // -- TLBs (Fig 11) ---------------------------------------------------------
    TlbStats itlbL1;
    TlbStats dtlbL1;
    std::uint64_t itlbWalks = 0;
    std::uint64_t dtlbWalks = 0;
    std::uint64_t dtlbLoadMisses = 0;
    std::uint64_t dtlbStoreMisses = 0;

    // -- branches -----------------------------------------------------------
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t btbMisses = 0;

    // -- memory system (Fig 12) ------------------------------------------------
    double memBandwidthGBs = 0.0;     //!< platform-wide demand+prefetch
    double memLatencyNs = 0.0;        //!< loaded latency
    double memBackpressure = 1.0;
    std::uint64_t dramDemandFills = 0;
    std::uint64_t dramPrefetchFills = 0;

    // -- pipeline (Figs 6-7) -----------------------------------------------------
    PipelineCosts costs;
    TopDownBreakdown topdown;

    // -- OS (Figs 3-4) --------------------------------------------------------------
    std::uint64_t contextSwitches = 0;
    double cswPenaltyFraction = 0.0;  //!< direct switching time share
    double kernelShare = 0.0;         //!< kernel-mode CPU share

    // -- derived helpers ------------------------------------------------------
    double mpkiOf(const CacheStats &cache, AccessType type) const
    {
        return cache.mpki(type, instructions);
    }

    /**
     * ITLB MPKI as the paper's Fig 11 reports it: first-level ITLB
     * misses per kilo instruction.  (Walks — the portion the STLB
     * cannot absorb — are tracked separately for the cost model.)
     */
    double itlbMpki() const { return itlbL1.mpki(instructions); }

    /** First-level DTLB misses per kilo instruction. */
    double dtlbMpki() const { return dtlbL1.mpki(instructions); }

    double branchMpki() const
    {
        if (instructions == 0)
            return 0.0;
        return static_cast<double>(mispredicts) * 1000.0 /
               static_cast<double>(instructions);
    }

    /** Fraction of retired instructions in @p cls. */
    double classFraction(int cls) const
    {
        if (instructions == 0)
            return 0.0;
        return static_cast<double>(classCounts[cls]) /
               static_cast<double>(instructions);
    }

    /**
     * Exact (bitwise-value) equality over every field: the probe the
     * determinism tests use to assert a rerun reproduces a simulation
     * bit for bit.
     */
    bool operator==(const CounterSet &) const = default;
};

} // namespace softsku

#endif // SOFTSKU_SIM_COUNTERS_HH

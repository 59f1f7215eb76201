/**
 * @file
 * Top-down Microarchitecture Analysis Method (TMAM) accounting.
 *
 * The paper classifies pipeline slots into retiring / front-end / bad
 * speculation / back-end (Fig 7, after Yasin's TMAM).  The simulator
 * accumulates stall *cycles* by cause; this module converts them to the
 * slot breakdown and the resulting IPC.
 */

#ifndef SOFTSKU_ARCH_TOPDOWN_HH
#define SOFTSKU_ARCH_TOPDOWN_HH

namespace softsku {

/** Cycle-level cost inputs for one simulated window. */
struct PipelineCosts
{
    double instructions = 0.0;        //!< retired instructions
    double baseCycles = 0.0;          //!< ideal-execution cycles
    double frontEndStallCycles = 0.0; //!< fetch misses, ITLB walks
    double badSpecCycles = 0.0;       //!< misprediction recovery
    double backEndStallCycles = 0.0;  //!< data misses, DTLB walks

    /** Total cycles for the window. */
    double totalCycles() const
    {
        return baseCycles + frontEndStallCycles + badSpecCycles +
               backEndStallCycles;
    }

    /** Exact equality, so whole results can be compared bit for bit. */
    bool operator==(const PipelineCosts &) const = default;
};

/** Fractions of issue slots by TMAM category; sums to 1. */
struct TopDownBreakdown
{
    double retiring = 0.0;
    double frontEnd = 0.0;
    double badSpeculation = 0.0;
    double backEnd = 0.0;

    /** Sum of the four categories (should be ~1). */
    double total() const
    {
        return retiring + frontEnd + badSpeculation + backEnd;
    }

    /** Exact equality, so whole results can be compared bit for bit. */
    bool operator==(const TopDownBreakdown &) const = default;
};

/**
 * Convert accumulated cycle costs into the TMAM slot breakdown.
 *
 * Slots are issueWidth × cycles.  Retiring slots are the slots actually
 * used by retired instructions; each stall category claims slots in
 * proportion to its share of stall cycles; base-cycle slots not used for
 * retirement (ILP below the machine width) are charged to the back end,
 * matching how TMAM attributes core-bound dependency stalls.
 *
 * @param costs      accumulated cycle costs
 * @param issueWidth pipeline slots per cycle (4 on Skylake/Broadwell)
 */
TopDownBreakdown computeTopDown(const PipelineCosts &costs, int issueWidth);

/** Instructions per cycle for the window. */
double ipcOf(const PipelineCosts &costs);

} // namespace softsku

#endif // SOFTSKU_ARCH_TOPDOWN_HH

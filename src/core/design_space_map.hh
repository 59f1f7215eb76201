/**
 * @file
 * The design-space map the A/B tester fills in (paper Sec. 4): per
 * knob, the measured outcome of every candidate value against the
 * baseline, with 95%-confidence annotations.  The soft-SKU generator
 * consumes it; it also serializes to JSON for reports.
 */

#ifndef SOFTSKU_CORE_DESIGN_SPACE_MAP_HH
#define SOFTSKU_CORE_DESIGN_SPACE_MAP_HH

#include <vector>

#include "core/ab_test.hh"
#include "core/design_space.hh"
#include "util/json.hh"

namespace softsku {

/** Measured outcome of one candidate knob value. */
struct KnobOutcome
{
    KnobValue value;
    double meanMips = 0.0;
    double gainPercent = 0.0;       //!< vs baseline
    double gainCiPercent = 0.0;     //!< CI half-width on the gain
    bool significant = false;
    bool isBaseline = false;
    std::uint64_t samples = 0;
    /**
     * Racing struck this arm before its budget ran out: its few
     * samples say only "not the best", never "how good" — best() must
     * skip it, and its (noisy, truncated) mean must not be composed.
     */
    bool eliminated = false;
    /** Samples the adaptive search did not need, vs the fixed-budget
     *  cap this comparison would otherwise have run to. */
    std::uint64_t samplesSaved = 0;
};

/** Sweep results for one knob. */
struct KnobSweep
{
    KnobId id = KnobId::CoreFrequency;
    std::vector<KnobOutcome> outcomes;

    /**
     * The most performant setting: the highest-mean outcome whose win
     * over the baseline is statistically significant; the baseline
     * itself when nothing significantly beats it.
     */
    const KnobOutcome *best() const;
};

/** The full map: baseline plus one sweep per explored knob. */
struct DesignSpaceMap
{
    KnobConfig baseline;
    double baselineMips = 0.0;
    std::vector<KnobSweep> sweeps;

    /** Serialize for the μSKU report. */
    Json toJson() const;
};

} // namespace softsku

#endif // SOFTSKU_CORE_DESIGN_SPACE_MAP_HH

#include "core/design_space_map.hh"

namespace softsku {

const KnobOutcome *
KnobSweep::best() const
{
    // Compare paired gains, not raw sample means: each candidate was
    // measured at a different time of day, so raw means still carry
    // diurnal load while the paired gain does not.
    const KnobOutcome *baseline = nullptr;
    const KnobOutcome *winner = nullptr;
    for (const KnobOutcome &outcome : outcomes) {
        if (outcome.isBaseline)
            baseline = &outcome;
        // A raced-out arm carries a truncated, noisy mean; the race
        // already proved the surviving arm beats it.
        if (outcome.eliminated)
            continue;
        // Require both statistical significance and a material
        // effect: with tens of thousands of samples even a ±0.01%
        // fluctuation can reach p < 0.05.
        if (!outcome.significant || outcome.gainPercent < 0.05)
            continue;
        if (!winner || outcome.gainPercent > winner->gainPercent)
            winner = &outcome;
    }
    return winner ? winner : baseline;
}

Json
DesignSpaceMap::toJson() const
{
    Json doc = Json::object();
    doc.set("baseline", baseline.toJson());
    doc.set("baseline_mips", Json(baselineMips));

    Json sweepsDoc = Json::object();
    for (const KnobSweep &sweep : sweeps) {
        Json outcomes = Json::array();
        for (const KnobOutcome &outcome : sweep.outcomes) {
            Json entry = Json::object();
            entry.set("value", Json(outcome.value.label));
            entry.set("mean_mips", Json(outcome.meanMips));
            entry.set("gain_percent", Json(outcome.gainPercent));
            entry.set("gain_ci_percent", Json(outcome.gainCiPercent));
            entry.set("significant", Json(outcome.significant));
            entry.set("baseline", Json(outcome.isBaseline));
            entry.set("samples",
                      Json(static_cast<long long>(outcome.samples)));
            // Racing annotations, absent in fixed-budget maps so those
            // serialize byte-identically to the pre-racing format.
            if (outcome.eliminated)
                entry.set("eliminated", Json(true));
            if (outcome.samplesSaved > 0) {
                entry.set("samples_saved", Json(static_cast<long long>(
                                               outcome.samplesSaved)));
            }
            outcomes.push(std::move(entry));
        }
        sweepsDoc.set(knobKey(sweep.id), std::move(outcomes));
    }
    doc.set("sweeps", std::move(sweepsDoc));
    return doc;
}

} // namespace softsku

/**
 * @file
 * The knob descriptor registry: one record per knob carrying everything
 * knob-specific — registry key, display name, reboot requirement,
 * platform availability, applicability rule, sweep-axis generator,
 * KnobValue actuation hooks, JSON codec, and describe() fragment.
 *
 * Before the registry these lived as per-knob switch statements
 * scattered across knobs.cc, design_space.cc, and the configurator;
 * adding a knob meant finding every switch.  Now design_space,
 * configurator, ab_cache context keys, and report_writer iterate
 * descriptors, and a new knob is one new record (the memory-tier knobs
 * are the proof: nothing outside their descriptors special-cases them).
 */

#ifndef SOFTSKU_CORE_KNOB_REGISTRY_HH
#define SOFTSKU_CORE_KNOB_REGISTRY_HH

#include <string>
#include <vector>

#include "core/design_space.hh"
#include "workload/profile.hh"

namespace softsku {

/** Everything knob-specific, in one record. */
struct KnobDescriptor
{
    KnobId id = KnobId::CoreFrequency;
    const char *key = "";             //!< registry key ("core_freq")
    const char *displayName = "";     //!< human-readable name
    bool requiresReboot = false;
    /**
     * Whether the knob changes the simulated event stream (cache, TLB,
     * branch, prefetch and DRAM-fill counts).  Knobs that clear it
     * enter only the roll-up and the memory model, so configurations
     * that differ only in them share one event pass (sim/service_sim.hh
     * eventKnobs()).  True is the safe default: a wrong true costs only
     * speed, while a wrong false prices a configuration from another
     * configuration's events.  KnobRegistry.AffectsEventsMatchesTheSimulator
     * checks every knob's flag against the simulator.
     */
    bool affectsEvents = true;

    /**
     * Platform-availability predicate; null means the knob exists on
     * every platform.  Unavailable knobs are excluded from default
     * sweep sets entirely (InputSpec::normalize) — they are not merely
     * "skipped", they do not exist for that platform.
     */
    bool (*availableOn)(const PlatformSpec &platform) = nullptr;
    /** Skip reason reported when availableOn fails. */
    const char *unavailableReason = "";

    /**
     * Per-knob applicability rule beyond the shared reboot gate; null
     * means always applicable.  Returns nullptr when applicable, else
     * a short skip reason.
     */
    const char *(*inapplicableReason)(const PlatformSpec &platform,
                                      const WorkloadProfile &profile) =
        nullptr;

    /** Axis generator: the candidate values the A/B sweep tests. */
    std::vector<KnobValue> (*domain)(const PlatformSpec &platform,
                                     const WorkloadProfile &profile) =
        nullptr;

    /** Actuation hook: write a candidate value into a config. */
    void (*apply)(const KnobValue &value, KnobConfig &config) = nullptr;
    /** Read the config's current value back (label included). */
    KnobValue (*capture)(const KnobConfig &config) = nullptr;

    /**
     * JSON codec for the keyed "knobs" object (report schema v3).
     * Writers may omit default values so legacy configs keep exactly
     * their seven historical keys.
     */
    void (*writeJson)(const KnobConfig &config, Json &knobsDoc) = nullptr;
    void (*readJson)(const Json &knobsDoc, KnobConfig &config) = nullptr;

    /**
     * describe() fragment ("core=2.2GHz"); empty string omits the
     * fragment, which is how memory-tier knobs at their defaults keep
     * legacy memo/cache keys byte-identical.
     */
    std::string (*describeFragment)(const KnobConfig &config) = nullptr;
};

/** All registered descriptors, in registry (paper) order. */
const std::vector<KnobDescriptor> &knobRegistry();

/** The descriptor for @p id (every KnobId is registered). */
const KnobDescriptor &knobDescriptor(KnobId id);

/** Look up by registry key; nullptr on unknown keys. */
const KnobDescriptor *findKnobDescriptor(const std::string &key);

/** Comma-separated list of valid registry keys, for error messages. */
std::string knobKeyList();

} // namespace softsku

#endif // SOFTSKU_CORE_KNOB_REGISTRY_HH

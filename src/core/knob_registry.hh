/**
 * @file
 * The knob descriptor registry: one record per knob, stating each fact
 * once.  A record names the knob's registry key (which is also its JSON
 * member), display name and flags (reboot, affectsEvents, platform
 * availability, applicability), the KnobConfig member it reads and
 * writes, its sweep axis as raw values, one label function, one
 * describe() fragment, and whether it is omitted at the default-
 * constructed KnobConfig's value.  Shared code in knob_registry.cc
 * derives every hook below from that record — the domain's KnobValues,
 * apply, capture, the JSON codec and the describe() fragment — and
 * codes JSON once per value type (int, double, CdpSetting,
 * PrefetcherPreset, ThpMode, TierPolicy), not once per knob.
 *
 * design_space, configurator, ab_cache context keys, report_writer,
 * the simulator's event projection and the fleet's reboot rule iterate
 * descriptors instead of naming knobs.  Outside the registry only the
 * code that models a knob names its KnobConfig member: actuation
 * (sim/machine.cc), the roll-up (sim/service_sim.cc) and the stock and
 * production configs (core/knobs.cc).  The memory-tier knobs were
 * added exactly that way.
 */

#ifndef SOFTSKU_CORE_KNOB_REGISTRY_HH
#define SOFTSKU_CORE_KNOB_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "core/design_space.hh"
#include "workload/profile.hh"

namespace softsku {

/** Everything knob-specific, in one record. */
struct KnobDescriptor
{
    KnobId id = KnobId::CoreFrequency;
    const char *key = "";             //!< registry key and JSON member
    /** Member name in the flat v2 JSON layout; null when v2 had none. */
    const char *legacyKey = nullptr;
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

    // ---- derived from the typed record (knob_registry.cc) ------------

    /** The candidate values the A/B sweep tests, labeled. */
    std::function<std::vector<KnobValue>(const PlatformSpec &platform,
                                         const WorkloadProfile &profile)>
        domain = nullptr;
    /** Write a candidate value into a config. */
    std::function<void(const KnobValue &value, KnobConfig &config)> apply =
        nullptr;
    /** Read the config's current value back (label included). */
    std::function<KnobValue(const KnobConfig &config)> capture = nullptr;
    /**
     * Set this knob's member of the keyed "knobs" object (report schema
     * v3), or nothing when the knob is omitted at its default — which
     * keeps legacy configs at exactly their seven historical keys.
     */
    std::function<void(const KnobConfig &config, Json &knobsDoc)>
        writeJson = nullptr;
    /**
     * Decode this knob's member value @p node into @p config; false
     * when @p node has the wrong type or an unknown name.
     */
    std::function<bool(const Json &node, KnobConfig &config)> readJson =
        nullptr;
    /**
     * describe() fragment ("core=2.2GHz"); empty when the knob is
     * omitted at its default, so memory-tier knobs at their defaults
     * keep legacy memo/cache keys byte-identical.
     */
    std::function<std::string(const KnobConfig &config)> describeFragment =
        nullptr;
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

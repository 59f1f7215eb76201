/**
 * @file
 * The soft-SKU design space: the paper's seven configurable server
 * knobs (Sec. 4-5), plus the hyperscale-era memory-tier knobs.
 *
 *  1. core frequency        (MSR, 1.6-2.2 GHz)
 *  2. uncore frequency      (MSR, 1.4-1.8 GHz)
 *  3. active core count     (boot-loader isolcpus; requires reboot)
 *  4. LLC code/data ways    (resctrl CDP)
 *  5. hardware prefetchers  (MSR, five presets)
 *  6. transparent huge pages (kernel config file)
 *  7. static huge pages     (kernel parameter, 0-600 by 100)
 *  8. memory-bandwidth throttle (resctrl MB percentage)
 *  9. tier promotion policy (kernel memory-tiering policy file)
 * 10. far-memory placement ratio (kernel memory-tiering ratio file)
 *
 * Knobs 8-10 exist only on platforms that declare a far-memory tier
 * (PlatformSpec::farMemory); everything knob-generic — keys, display
 * names, sweep axes, actuation, JSON — lives in the descriptor
 * registry (core/knob_registry.hh), and the free functions below are
 * thin registry lookups.
 */

#ifndef SOFTSKU_CORE_KNOBS_HH
#define SOFTSKU_CORE_KNOBS_HH

#include <compare>
#include <optional>
#include <string>
#include <vector>

#include "arch/platform.hh"
#include "mem/dram.hh"
#include "os/hugepage.hh"
#include "prefetch/config.hh"
#include "util/json.hh"

namespace softsku {

struct WorkloadProfile;

/** Identifier for one of the registered knobs. */
enum class KnobId
{
    CoreFrequency = 0,
    UncoreFrequency,
    CoreCount,
    Cdp,
    Prefetcher,
    Thp,
    Shp,
    Mba,
    TierPolicyKnob,
    FarMemRatio,
};

/** All registered knob ids, in registry (paper) order. */
std::vector<KnobId> allKnobIds();

/** Registry key for a knob ("core_freq", "uncore_freq", ...). */
std::string knobKey(KnobId id);

/** Parse a knob registry key; fatal() on unknown keys, listing the
 *  valid ones. */
KnobId knobFromKey(const std::string &key);

/** True when changing this knob requires a server reboot. */
bool knobRequiresReboot(KnobId id);

/** CDP partition setting (knob 4). */
struct CdpSetting
{
    bool enabled = false;
    int dataWays = 0;
    int codeWays = 0;

    bool operator==(const CdpSetting &) const = default;
    auto operator<=>(const CdpSetting &) const = default;
};

/** A full soft-SKU configuration: a value for each registered knob. */
struct KnobConfig
{
    double coreFreqGHz = 2.2;
    double uncoreFreqGHz = 1.8;
    /** 0 means "all cores on the platform". */
    int activeCores = 0;
    CdpSetting cdp;
    PrefetcherPreset prefetch = PrefetcherPreset::AllOn;
    ThpMode thp = ThpMode::Always;
    int shpCount = 0;

    // Memory-tier knobs.  The defaults are the exact no-far-tier
    // behavior, and describe()/toJson() omit them at their defaults, so
    // legacy seven-knob configs keep their historical bytes (memo keys,
    // cache contexts, reports).
    /** resctrl MB throttle percent; 100 = unthrottled. */
    int mbaPercent = 100;
    /** Far-tier promotion aggressiveness; Static never migrates. */
    TierPolicy tierPolicy = TierPolicy::Static;
    /** Fraction of the footprint placed on the far tier. */
    double farMemRatio = 0.0;

    bool operator==(const KnobConfig &) const = default;
    /** Memberwise order, so configurations can key ordered maps. */
    auto operator<=>(const KnobConfig &) const = default;

    /** Resolve activeCores against a platform (0 → total). */
    int resolvedCores(const PlatformSpec &platform) const;

    /**
     * Canonical form for equality: activeCores resolved against the
     * platform, so "18 cores" and "all cores" compare equal on an
     * 18-core machine.
     */
    KnobConfig canonical(const PlatformSpec &platform) const;

    /** One-line description, e.g. for A/B test logs. */
    std::string describe() const;

    /**
     * Serialize for design-space maps and reports (schema v3): a keyed
     * "knobs" object written by the descriptor codecs.  Memory-tier
     * knobs are omitted at their defaults, so legacy configs emit
     * exactly the seven historical keys.
     */
    Json toJson() const;

    /**
     * Deserialize with the descriptor codecs; nullopt when a knob's
     * member has the wrong type or an unknown name.  Absent members
     * keep their defaults.  Reads both the v3 keyed-knobs layout and
     * the flat v2 layout ("core_freq_ghz", ...) so persisted A/B caches
     * and old reports stay loadable.
     */
    static std::optional<KnobConfig> fromJson(const Json &doc);
};

/**
 * The stock, fresh-install configuration for @p platform running
 * @p profile (paper Sec. 6.2): max core/uncore frequency (core capped
 * 0.2 GHz lower for AVX-heavy services), all cores, no CDP, all
 * prefetchers, THP always on, no SHPs.
 */
KnobConfig stockConfig(const PlatformSpec &platform,
                       const WorkloadProfile &profile);

/**
 * The hand-tuned production configuration the paper's characterization
 * ran under and μSKU competes against (Sec. 6.1): max frequencies (AVX
 * cap applies), all cores, no CDP, THP in its kernel-default madvise
 * mode, expert-chosen prefetcher sets (all on, except L2-stream+DCU on
 * Broadwell), and Web's hand-picked SHP reservations (200 on Skylake,
 * 488 on Broadwell).
 */
KnobConfig productionConfig(const PlatformSpec &platform,
                            const WorkloadProfile &profile);

} // namespace softsku

#endif // SOFTSKU_CORE_KNOBS_HH

#include "core/knob_registry.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

namespace {

// ---- JSON and KnobValue slot, once per value type -------------------------

template <typename T>
struct ValueCodec;

template <>
struct ValueCodec<double>
{
    static constexpr auto slot = &KnobValue::number;
    static Json encode(double value) { return Json(value); }
    static bool
    decode(const Json &node, double &out)
    {
        if (!node.isNumber())
            return false;
        out = node.asNumber();
        return true;
    }
};

template <>
struct ValueCodec<int>
{
    static constexpr auto slot = &KnobValue::number;
    static Json encode(int value) { return Json(value); }
    static bool
    decode(const Json &node, int &out)
    {
        // The range check keeps the cast defined on hostile input.
        if (!node.isNumber() || !(std::abs(node.asNumber()) < 1e9))
            return false;
        out = static_cast<int>(node.asNumber());
        return true;
    }
};

template <>
struct ValueCodec<CdpSetting>
{
    static constexpr auto slot = &KnobValue::cdp;
    static Json
    encode(const CdpSetting &cdp)
    {
        Json doc = Json::object();
        doc.set("enabled", Json(cdp.enabled));
        doc.set("data_ways", Json(cdp.dataWays));
        doc.set("code_ways", Json(cdp.codeWays));
        return doc;
    }
    static bool
    decode(const Json &node, CdpSetting &out)
    {
        const Json *enabled = node.find("enabled");
        const Json *data = node.find("data_ways");
        const Json *code = node.find("code_ways");
        if (!enabled || !enabled->isBool() || !data || !code)
            return false;
        out.enabled = enabled->asBool();
        return ValueCodec<int>::decode(*data, out.dataWays) &&
               ValueCodec<int>::decode(*code, out.codeWays);
    }
};

/** Enums are spelled by name; decoding accepts any letter case. */
template <typename E, std::string (*name)(E), std::vector<E> (*all)()>
struct NamedCodec
{
    static Json encode(E value) { return Json(name(value)); }
    static bool
    decode(const Json &node, E &out)
    {
        if (!node.isString())
            return false;
        const std::string text = toLower(node.asString());
        for (E value : all()) {
            if (name(value) == text) {
                out = value;
                return true;
            }
        }
        return false;
    }
};

template <>
struct ValueCodec<PrefetcherPreset>
    : NamedCodec<PrefetcherPreset, prefetcherPresetKey, allPrefetcherPresets>
{
    static constexpr auto slot = &KnobValue::prefetch;
};

template <>
struct ValueCodec<ThpMode> : NamedCodec<ThpMode, thpModeName, allThpModes>
{
    static constexpr auto slot = &KnobValue::thp;
};

template <>
struct ValueCodec<TierPolicy>
    : NamedCodec<TierPolicy, tierPolicyName, allTierPolicies>
{
    static constexpr auto slot = &KnobValue::tier;
};

// ---- the typed half of a record, and the hooks derived from it ------------

/** The facts about a knob that depend on its KnobConfig member's type. */
template <typename T>
struct Typed
{
    T KnobConfig::*member = nullptr;
    /** The sweep axis, as raw values. */
    std::vector<T> (*axis)(const PlatformSpec &platform,
                           const WorkloadProfile &profile) = nullptr;
    std::string (*label)(T value) = nullptr;      //!< "2.2 GHz"
    std::string (*fragment)(T value) = nullptr;   //!< "core=2.2GHz"
    /** Omit from describe() and JSON at KnobConfig{}'s value. */
    bool omitAtDefault = false;
};

/** Complete descriptor @p d with the hooks its typed facts @p t imply. */
template <typename T>
KnobDescriptor
knob(KnobDescriptor d, Typed<T> t)
{
    using Codec = ValueCodec<T>;
    const KnobId id = d.id;
    const char *key = d.key;
    auto omitted = [t](const KnobConfig &config) {
        return t.omitAtDefault && config.*t.member == KnobConfig{}.*t.member;
    };
    auto valueOf = [id, t](T raw) {
        KnobValue value;
        value.id = id;
        value.*Codec::slot = raw;
        value.label = t.label(raw);
        return value;
    };
    d.domain = [t, valueOf](const PlatformSpec &platform,
                            const WorkloadProfile &profile) {
        std::vector<KnobValue> domain;
        for (T raw : t.axis(platform, profile))
            domain.push_back(valueOf(raw));
        return domain;
    };
    d.apply = [t](const KnobValue &value, KnobConfig &config) {
        config.*t.member = static_cast<T>(value.*Codec::slot);
    };
    d.capture = [t, valueOf](const KnobConfig &config) {
        return valueOf(config.*t.member);
    };
    d.writeJson = [t, key, omitted](const KnobConfig &config, Json &doc) {
        if (!omitted(config))
            doc.set(key, Codec::encode(config.*t.member));
    };
    d.readJson = [t](const Json &node, KnobConfig &config) {
        return Codec::decode(node, config.*t.member);
    };
    d.describeFragment = [t, omitted](const KnobConfig &config) {
        return omitted(config) ? std::string() : t.fragment(config.*t.member);
    };
    return d;
}

// ---- shared fragments -----------------------------------------------------

bool
hasFarTier(const PlatformSpec &platform)
{
    return platform.farMemory.present;
}

constexpr const char *kNoFarTier = "platform declares no far-memory tier";

std::string
cdpWays(CdpSetting cdp)
{
    return format("{%dd,%dc}", cdp.dataWays, cdp.codeWays);
}

// ---- the registry ---------------------------------------------------------

std::vector<KnobDescriptor>
buildRegistry()
{
    // Short names for the axis and applicability lambdas' parameters.
    using Platform = const PlatformSpec &;
    using Profile = const WorkloadProfile &;
    return {
        knob<double>(
            {.id = KnobId::CoreFrequency, .key = "core_freq",
             .legacyKey = "core_freq_ghz", .displayName = "Core frequency",
             .affectsEvents = false},
            {.member = &KnobConfig::coreFreqGHz,
             .axis = [](Platform platform, Profile profile) {
                 double maxGHz = platform.coreFreqMaxGHz;
                 if (profile.usesAvx)
                     maxGHz -= 0.2;   // shared core/uncore power budget
                 std::vector<double> axis;
                 for (double f : platform.coreFrequencySettings()) {
                     if (f <= maxGHz + 1e-9)
                         axis.push_back(f);
                 }
                 return axis;
             },
             .label = [](double f) { return format("%.1f GHz", f); },
             .fragment = [](double f) { return format("core=%.1fGHz", f); }}),

        knob<double>(
            {.id = KnobId::UncoreFrequency, .key = "uncore_freq",
             .legacyKey = "uncore_freq_ghz",
             .displayName = "Uncore frequency", .affectsEvents = false},
            {.member = &KnobConfig::uncoreFreqGHz,
             .axis = [](Platform platform, Profile) {
                 return platform.uncoreFrequencySettings();
             },
             .label = [](double f) { return format("%.1f GHz", f); },
             .fragment =
                 [](double f) { return format("uncore=%.1fGHz", f); }}),

        // isolcpus is a boot-loader flag (Sec. 5).
        knob<int>(
            {.id = KnobId::CoreCount, .key = "core_count",
             .legacyKey = "active_cores", .displayName = "Core count",
             .requiresReboot = true},
            {.member = &KnobConfig::activeCores,
             .axis = [](Platform platform, Profile) {
                 std::vector<int> axis;
                 for (int cores = 2; cores < platform.totalCores();
                      cores += 2)
                     axis.push_back(cores);
                 axis.push_back(platform.totalCores());
                 return axis;
             },
             .label = [](int cores) {
                 return cores <= 0 ? std::string("all cores")
                                   : format("%d cores", cores);
             },
             .fragment = [](int cores) {
                 return cores <= 0 ? std::string("cores=all")
                                   : format("cores=%d", cores);
             }}),

        knob<CdpSetting>(
            {.id = KnobId::Cdp, .key = "cdp", .legacyKey = "cdp",
             .displayName = "CDP: LLC code/data ways",
             .inapplicableReason = [](Platform platform,
                                      Profile) -> const char * {
                 return platform.supportsRdt
                            ? nullptr
                            : "platform lacks RDT (CAT/CDP)";
             }},
            {.member = &KnobConfig::cdp,
             .axis = [](Platform platform, Profile) {
                 std::vector<CdpSetting> axis{CdpSetting{}};
                 for (int data = 1; data < platform.llc.ways; ++data)
                     axis.push_back({true, data, platform.llc.ways - data});
                 return axis;
             },
             .label = [](CdpSetting cdp) {
                 return cdp.enabled ? cdpWays(cdp) : "CDP off";
             },
             .fragment = [](CdpSetting cdp) {
                 return "cdp=" + (cdp.enabled ? cdpWays(cdp) : "off");
             }}),

        knob<PrefetcherPreset>(
            {.id = KnobId::Prefetcher, .key = "prefetcher",
             .legacyKey = "prefetcher", .displayName = "Prefetcher"},
            {.member = &KnobConfig::prefetch,
             .axis = [](Platform, Profile) { return allPrefetcherPresets(); },
             .label = prefetcherPresetName,
             .fragment = [](PrefetcherPreset preset) {
                 return "pf=" + prefetcherPresetKey(preset);
             }}),

        knob<ThpMode>(
            {.id = KnobId::Thp, .key = "thp", .legacyKey = "thp",
             .displayName = "Transparent huge pages"},
            {.member = &KnobConfig::thp,
             .axis = [](Platform, Profile) { return allThpModes(); },
             .label = [](ThpMode mode) { return "THP " + thpModeName(mode); },
             .fragment =
                 [](ThpMode mode) { return "thp=" + thpModeName(mode); }}),

        // SHP reservations are boot-time kernel parameters.
        knob<int>(
            {.id = KnobId::Shp, .key = "shp", .legacyKey = "shp_count",
             .displayName = "Static huge pages", .requiresReboot = true,
             .inapplicableReason = [](Platform, Profile profile)
                 -> const char * {
                 return profile.usesShp
                            ? nullptr
                            : "service does not use the SHP allocation APIs";
             }},
            {.member = &KnobConfig::shpCount,
             .axis = [](Platform, Profile) {
                 std::vector<int> axis;
                 for (int count = 0; count <= 600; count += 100)
                     axis.push_back(count);
                 return axis;
             },
             .label = [](int count) { return format("%d SHPs", count); },
             .fragment = [](int count) { return format("shp=%d", count); }}),

        knob<int>(
            {.id = KnobId::Mba, .key = "mba",
             .displayName = "Memory-bandwidth throttle (MBA)",
             .affectsEvents = false, .availableOn = hasFarTier,
             .unavailableReason = kNoFarTier},
            {.member = &KnobConfig::mbaPercent,
             .axis = [](Platform, Profile) {
                 return std::vector<int>{100, 90, 70, 50, 30};
             },
             .label = [](int percent) { return format("%d%% MB", percent); },
             .fragment = [](int percent) { return format("mba=%d", percent); },
             .omitAtDefault = true}),

        knob<TierPolicy>(
            {.id = KnobId::TierPolicyKnob, .key = "tier_policy",
             .displayName = "Far-memory promotion policy",
             .affectsEvents = false, .availableOn = hasFarTier,
             .unavailableReason = kNoFarTier},
            {.member = &KnobConfig::tierPolicy,
             .axis = [](Platform, Profile) { return allTierPolicies(); },
             .label = [](TierPolicy policy) {
                 return "tier " + tierPolicyName(policy);
             },
             .fragment = [](TierPolicy policy) {
                 return "tier=" + tierPolicyName(policy);
             },
             .omitAtDefault = true}),

        knob<double>(
            {.id = KnobId::FarMemRatio, .key = "far_mem_ratio",
             .displayName = "Far-memory placement ratio",
             .affectsEvents = false, .availableOn = hasFarTier,
             .unavailableReason = kNoFarTier},
            {.member = &KnobConfig::farMemRatio,
             .axis = [](Platform, Profile) {
                 return std::vector<double>{0.0, 0.10, 0.25, 0.40, 0.60};
             },
             .label = [](double ratio) {
                 return format("%.0f%% far", ratio * 100.0);
             },
             .fragment = [](double ratio) { return format("far=%.2f", ratio); },
             .omitAtDefault = true}),
    };
}

} // namespace

const std::vector<KnobDescriptor> &
knobRegistry()
{
    static const std::vector<KnobDescriptor> registry = buildRegistry();
    return registry;
}

const KnobDescriptor &
knobDescriptor(KnobId id)
{
    for (const KnobDescriptor &d : knobRegistry()) {
        if (d.id == id)
            return d;
    }
    panic("knob id %d has no registered descriptor",
          static_cast<int>(id));
}

const KnobDescriptor *
findKnobDescriptor(const std::string &key)
{
    for (const KnobDescriptor &d : knobRegistry()) {
        if (key == d.key)
            return &d;
    }
    return nullptr;
}

std::string
knobKeyList()
{
    std::string keys;
    for (const KnobDescriptor &d : knobRegistry()) {
        if (!keys.empty())
            keys += ", ";
        keys += d.key;
    }
    return keys;
}

} // namespace softsku

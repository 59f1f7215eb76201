#include "core/knob_registry.hh"

#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

namespace {

// ---- shared fragments -----------------------------------------------------

bool
hasFarTier(const PlatformSpec &platform)
{
    return platform.farMemory.present;
}

constexpr const char *kNoFarTier = "platform declares no far-memory tier";

std::string
mbaLabel(int percent)
{
    return format("%d%% MB", percent);
}

std::string
tierLabel(TierPolicy policy)
{
    return format("tier %s", tierPolicyName(policy).c_str());
}

std::string
farRatioLabel(double ratio)
{
    return format("%.0f%% far", ratio * 100.0);
}

// ---- the registry ---------------------------------------------------------

std::vector<KnobDescriptor>
buildRegistry()
{
    std::vector<KnobDescriptor> reg;

    {   // 1. core frequency
        KnobDescriptor d;
        d.id = KnobId::CoreFrequency;
        d.key = "core_freq";
        d.displayName = "Core frequency";
        d.affectsEvents = false;
        d.domain = [](const PlatformSpec &platform,
                      const WorkloadProfile &profile) {
            std::vector<KnobValue> domain;
            double maxGHz = platform.coreFreqMaxGHz;
            if (profile.usesAvx)
                maxGHz -= 0.2;   // shared core/uncore power budget
            for (double f : platform.coreFrequencySettings()) {
                if (f > maxGHz + 1e-9)
                    continue;
                KnobValue v;
                v.number = f;
                v.label = format("%.1f GHz", f);
                domain.push_back(std::move(v));
            }
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.coreFreqGHz = value.number;
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.number = config.coreFreqGHz;
            v.label = format("%.1f GHz", config.coreFreqGHz);
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            doc.set("core_freq", Json(config.coreFreqGHz));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            config.coreFreqGHz =
                doc.numberOr("core_freq", config.coreFreqGHz);
        };
        d.describeFragment = [](const KnobConfig &config) {
            return format("core=%.1fGHz", config.coreFreqGHz);
        };
        reg.push_back(d);
    }

    {   // 2. uncore frequency
        KnobDescriptor d;
        d.id = KnobId::UncoreFrequency;
        d.key = "uncore_freq";
        d.displayName = "Uncore frequency";
        d.affectsEvents = false;
        d.domain = [](const PlatformSpec &platform,
                      const WorkloadProfile &) {
            std::vector<KnobValue> domain;
            for (double f : platform.uncoreFrequencySettings()) {
                KnobValue v;
                v.number = f;
                v.label = format("%.1f GHz", f);
                domain.push_back(std::move(v));
            }
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.uncoreFreqGHz = value.number;
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.number = config.uncoreFreqGHz;
            v.label = format("%.1f GHz", config.uncoreFreqGHz);
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            doc.set("uncore_freq", Json(config.uncoreFreqGHz));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            config.uncoreFreqGHz =
                doc.numberOr("uncore_freq", config.uncoreFreqGHz);
        };
        d.describeFragment = [](const KnobConfig &config) {
            return format("uncore=%.1fGHz", config.uncoreFreqGHz);
        };
        reg.push_back(d);
    }

    {   // 3. active core count
        KnobDescriptor d;
        d.id = KnobId::CoreCount;
        d.key = "core_count";
        d.displayName = "Core count";
        // isolcpus is a boot-loader flag (Sec. 5).
        d.requiresReboot = true;
        d.domain = [](const PlatformSpec &platform,
                      const WorkloadProfile &) {
            std::vector<KnobValue> domain;
            for (int cores = 2; cores < platform.totalCores();
                 cores += 2) {
                KnobValue v;
                v.number = cores;
                v.label = format("%d cores", cores);
                domain.push_back(std::move(v));
            }
            KnobValue v;
            v.number = platform.totalCores();
            v.label = format("%d cores", platform.totalCores());
            domain.push_back(std::move(v));
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.activeCores = static_cast<int>(value.number);
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.number = config.activeCores;
            v.label = config.activeCores <= 0
                          ? "all cores"
                          : format("%d cores", config.activeCores);
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            doc.set("core_count", Json(config.activeCores));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            config.activeCores = static_cast<int>(
                doc.numberOr("core_count", config.activeCores));
        };
        d.describeFragment = [](const KnobConfig &config) {
            return format("cores=%s",
                          config.activeCores <= 0
                              ? "all"
                              : format("%d", config.activeCores).c_str());
        };
        reg.push_back(d);
    }

    {   // 4. CDP LLC code/data ways
        KnobDescriptor d;
        d.id = KnobId::Cdp;
        d.key = "cdp";
        d.displayName = "CDP: LLC code/data ways";
        d.inapplicableReason = [](const PlatformSpec &platform,
                                  const WorkloadProfile &)
            -> const char * {
            if (!platform.supportsRdt)
                return "platform lacks RDT (CAT/CDP)";
            return nullptr;
        };
        d.domain = [](const PlatformSpec &platform,
                      const WorkloadProfile &) {
            std::vector<KnobValue> domain;
            KnobValue off;
            off.label = "CDP off";
            domain.push_back(std::move(off));
            for (int data = 1; data < platform.llc.ways; ++data) {
                int code = platform.llc.ways - data;
                KnobValue v;
                v.cdp = {true, data, code};
                v.label = format("{%dd,%dc}", data, code);
                domain.push_back(std::move(v));
            }
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.cdp = value.cdp;
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.cdp = config.cdp;
            v.label = config.cdp.enabled
                          ? format("{%dd,%dc}", config.cdp.dataWays,
                                   config.cdp.codeWays)
                          : "CDP off";
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            Json cdpDoc = Json::object();
            cdpDoc.set("enabled", Json(config.cdp.enabled));
            cdpDoc.set("data_ways", Json(config.cdp.dataWays));
            cdpDoc.set("code_ways", Json(config.cdp.codeWays));
            doc.set("cdp", std::move(cdpDoc));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            if (!doc.contains("cdp"))
                return;
            const Json &cdpDoc = doc.at("cdp");
            config.cdp.enabled = cdpDoc.boolOr("enabled", false);
            config.cdp.dataWays =
                static_cast<int>(cdpDoc.numberOr("data_ways", 0));
            config.cdp.codeWays =
                static_cast<int>(cdpDoc.numberOr("code_ways", 0));
        };
        d.describeFragment = [](const KnobConfig &config) {
            return format("cdp=%s",
                          config.cdp.enabled
                              ? format("{%dd,%dc}", config.cdp.dataWays,
                                       config.cdp.codeWays)
                                    .c_str()
                              : "off");
        };
        reg.push_back(d);
    }

    {   // 5. hardware prefetchers
        KnobDescriptor d;
        d.id = KnobId::Prefetcher;
        d.key = "prefetcher";
        d.displayName = "Prefetcher";
        d.domain = [](const PlatformSpec &, const WorkloadProfile &) {
            std::vector<KnobValue> domain;
            for (PrefetcherPreset preset : allPrefetcherPresets()) {
                KnobValue v;
                v.prefetch = preset;
                v.label = prefetcherPresetName(preset);
                domain.push_back(std::move(v));
            }
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.prefetch = value.prefetch;
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.prefetch = config.prefetch;
            v.label = prefetcherPresetName(config.prefetch);
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            doc.set("prefetcher",
                    Json(prefetcherPresetKey(config.prefetch)));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            if (doc.contains("prefetcher"))
                config.prefetch = prefetcherPresetFromKey(
                    doc.at("prefetcher").asString());
        };
        d.describeFragment = [](const KnobConfig &config) {
            return format("pf=%s",
                          prefetcherPresetKey(config.prefetch).c_str());
        };
        reg.push_back(d);
    }

    {   // 6. transparent huge pages
        KnobDescriptor d;
        d.id = KnobId::Thp;
        d.key = "thp";
        d.displayName = "Transparent huge pages";
        d.domain = [](const PlatformSpec &, const WorkloadProfile &) {
            std::vector<KnobValue> domain;
            for (ThpMode mode :
                 {ThpMode::Madvise, ThpMode::Always, ThpMode::Never}) {
                KnobValue v;
                v.thp = mode;
                v.label = "THP " + thpModeName(mode);
                domain.push_back(std::move(v));
            }
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.thp = value.thp;
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.thp = config.thp;
            v.label = "THP " + thpModeName(config.thp);
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            doc.set("thp", Json(thpModeName(config.thp)));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            if (doc.contains("thp"))
                config.thp = thpModeFromString(doc.at("thp").asString());
        };
        d.describeFragment = [](const KnobConfig &config) {
            return format("thp=%s", thpModeName(config.thp).c_str());
        };
        reg.push_back(d);
    }

    {   // 7. static huge pages
        KnobDescriptor d;
        d.id = KnobId::Shp;
        d.key = "shp";
        d.displayName = "Static huge pages";
        // SHP reservations are boot-time kernel parameters.
        d.requiresReboot = true;
        d.inapplicableReason = [](const PlatformSpec &,
                                  const WorkloadProfile &profile)
            -> const char * {
            if (!profile.usesShp)
                return "service does not use the SHP allocation APIs";
            return nullptr;
        };
        d.domain = [](const PlatformSpec &, const WorkloadProfile &) {
            std::vector<KnobValue> domain;
            for (int count = 0; count <= 600; count += 100) {
                KnobValue v;
                v.number = count;
                v.label = format("%d SHPs", count);
                domain.push_back(std::move(v));
            }
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.shpCount = static_cast<int>(value.number);
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.number = config.shpCount;
            v.label = format("%d SHPs", config.shpCount);
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            doc.set("shp", Json(config.shpCount));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            config.shpCount = static_cast<int>(
                doc.numberOr("shp", config.shpCount));
        };
        d.describeFragment = [](const KnobConfig &config) {
            return format("shp=%d", config.shpCount);
        };
        reg.push_back(d);
    }

    {   // 8. memory-bandwidth throttle (resctrl MBA)
        KnobDescriptor d;
        d.id = KnobId::Mba;
        d.key = "mba";
        d.displayName = "Memory-bandwidth throttle (MBA)";
        d.affectsEvents = false;
        d.availableOn = hasFarTier;
        d.unavailableReason = kNoFarTier;
        d.domain = [](const PlatformSpec &, const WorkloadProfile &) {
            std::vector<KnobValue> domain;
            for (int percent : {100, 90, 70, 50, 30}) {
                KnobValue v;
                v.number = percent;
                v.label = mbaLabel(percent);
                domain.push_back(std::move(v));
            }
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.mbaPercent = static_cast<int>(value.number);
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.number = config.mbaPercent;
            v.label = mbaLabel(config.mbaPercent);
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            if (config.mbaPercent != 100)
                doc.set("mba", Json(config.mbaPercent));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            config.mbaPercent = static_cast<int>(
                doc.numberOr("mba", config.mbaPercent));
        };
        d.describeFragment = [](const KnobConfig &config) {
            if (config.mbaPercent == 100)
                return std::string();
            return format("mba=%d", config.mbaPercent);
        };
        reg.push_back(d);
    }

    {   // 9. far-tier promotion policy
        KnobDescriptor d;
        d.id = KnobId::TierPolicyKnob;
        d.key = "tier_policy";
        d.displayName = "Far-memory promotion policy";
        d.affectsEvents = false;
        d.availableOn = hasFarTier;
        d.unavailableReason = kNoFarTier;
        d.domain = [](const PlatformSpec &, const WorkloadProfile &) {
            std::vector<KnobValue> domain;
            for (TierPolicy policy : allTierPolicies()) {
                KnobValue v;
                v.tier = policy;
                v.label = tierLabel(policy);
                domain.push_back(std::move(v));
            }
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.tierPolicy = value.tier;
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.tier = config.tierPolicy;
            v.label = tierLabel(config.tierPolicy);
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            if (config.tierPolicy != TierPolicy::Static)
                doc.set("tier_policy",
                        Json(tierPolicyName(config.tierPolicy)));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            if (doc.contains("tier_policy"))
                config.tierPolicy = tierPolicyFromString(
                    doc.at("tier_policy").asString());
        };
        d.describeFragment = [](const KnobConfig &config) {
            if (config.tierPolicy == TierPolicy::Static)
                return std::string();
            return format("tier=%s",
                          tierPolicyName(config.tierPolicy).c_str());
        };
        reg.push_back(d);
    }

    {   // 10. far-memory placement ratio
        KnobDescriptor d;
        d.id = KnobId::FarMemRatio;
        d.key = "far_mem_ratio";
        d.displayName = "Far-memory placement ratio";
        d.affectsEvents = false;
        d.availableOn = hasFarTier;
        d.unavailableReason = kNoFarTier;
        d.domain = [](const PlatformSpec &, const WorkloadProfile &) {
            std::vector<KnobValue> domain;
            for (double ratio : {0.0, 0.10, 0.25, 0.40, 0.60}) {
                KnobValue v;
                v.number = ratio;
                v.label = farRatioLabel(ratio);
                domain.push_back(std::move(v));
            }
            return domain;
        };
        d.apply = [](const KnobValue &value, KnobConfig &config) {
            config.farMemRatio = value.number;
        };
        d.capture = [](const KnobConfig &config) {
            KnobValue v;
            v.number = config.farMemRatio;
            v.label = farRatioLabel(config.farMemRatio);
            return v;
        };
        d.writeJson = [](const KnobConfig &config, Json &doc) {
            if (config.farMemRatio != 0.0)
                doc.set("far_mem_ratio", Json(config.farMemRatio));
        };
        d.readJson = [](const Json &doc, KnobConfig &config) {
            config.farMemRatio =
                doc.numberOr("far_mem_ratio", config.farMemRatio);
        };
        d.describeFragment = [](const KnobConfig &config) {
            if (config.farMemRatio == 0.0)
                return std::string();
            return format("far=%.2f", config.farMemRatio);
        };
        reg.push_back(d);
    }

    return reg;
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

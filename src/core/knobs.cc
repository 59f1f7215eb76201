#include "core/knobs.hh"

#include "core/knob_registry.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "workload/profile.hh"

namespace softsku {

std::vector<KnobId>
allKnobIds()
{
    std::vector<KnobId> ids;
    for (const KnobDescriptor &d : knobRegistry())
        ids.push_back(d.id);
    return ids;
}

std::string
knobKey(KnobId id)
{
    return knobDescriptor(id).key;
}

KnobId
knobFromKey(const std::string &key)
{
    std::string k = toLower(key);
    if (const KnobDescriptor *d = findKnobDescriptor(k))
        return d->id;
    fatal("unknown knob '%s' (expected one of: %s)", key.c_str(),
          knobKeyList().c_str());
}

bool
knobRequiresReboot(KnobId id)
{
    return knobDescriptor(id).requiresReboot;
}

int
KnobConfig::resolvedCores(const PlatformSpec &platform) const
{
    if (activeCores <= 0)
        return platform.totalCores();
    return std::min(activeCores, platform.totalCores());
}

KnobConfig
KnobConfig::canonical(const PlatformSpec &platform) const
{
    KnobConfig out = *this;
    out.activeCores = resolvedCores(platform);
    return out;
}

std::string
KnobConfig::describe() const
{
    // Joined descriptor fragments; knobs at "absent" defaults emit
    // nothing, so legacy configs keep their historical string bytes.
    std::string out;
    for (const KnobDescriptor &d : knobRegistry()) {
        std::string fragment = d.describeFragment(*this);
        if (fragment.empty())
            continue;
        if (!out.empty())
            out += ' ';
        out += fragment;
    }
    return out;
}

Json
KnobConfig::toJson() const
{
    Json knobs = Json::object();
    for (const KnobDescriptor &d : knobRegistry())
        d.writeJson(*this, knobs);
    Json doc = Json::object();
    doc.set("knobs", std::move(knobs));
    return doc;
}

KnobConfig
KnobConfig::fromJson(const Json &doc)
{
    KnobConfig cfg;
    if (doc.contains("knobs")) {
        // Schema v3: keyed knobs object, one codec per descriptor.
        const Json &knobs = doc.at("knobs");
        for (const KnobDescriptor &d : knobRegistry())
            d.readJson(knobs, cfg);
        return cfg;
    }

    // Flat v2 layout, kept readable for persisted caches and reports.
    cfg.coreFreqGHz = doc.numberOr("core_freq_ghz", cfg.coreFreqGHz);
    cfg.uncoreFreqGHz = doc.numberOr("uncore_freq_ghz", cfg.uncoreFreqGHz);
    cfg.activeCores =
        static_cast<int>(doc.numberOr("active_cores", cfg.activeCores));
    if (doc.contains("cdp")) {
        const Json &cdpDoc = doc.at("cdp");
        cfg.cdp.enabled = cdpDoc.boolOr("enabled", false);
        cfg.cdp.dataWays =
            static_cast<int>(cdpDoc.numberOr("data_ways", 0));
        cfg.cdp.codeWays =
            static_cast<int>(cdpDoc.numberOr("code_ways", 0));
    }
    if (doc.contains("prefetcher"))
        cfg.prefetch = prefetcherPresetFromKey(doc.at("prefetcher").asString());
    if (doc.contains("thp"))
        cfg.thp = thpModeFromString(doc.at("thp").asString());
    cfg.shpCount = static_cast<int>(doc.numberOr("shp_count", 0));
    return cfg;
}

KnobConfig
productionConfig(const PlatformSpec &platform,
                 const WorkloadProfile &profile)
{
    KnobConfig cfg = stockConfig(platform, profile);
    cfg.thp = ThpMode::Madvise;
    if (platform.microarchitecture == "Intel Broadwell")
        cfg.prefetch = PrefetcherPreset::L2StreamAndDcu;
    if (profile.name == "web" && profile.usesShp) {
        cfg.shpCount =
            platform.microarchitecture == "Intel Broadwell" ? 488 : 200;
    }
    return cfg;
}

KnobConfig
stockConfig(const PlatformSpec &platform, const WorkloadProfile &profile)
{
    KnobConfig cfg;
    cfg.coreFreqGHz = platform.coreFreqMaxGHz;
    if (profile.usesAvx)
        cfg.coreFreqGHz -= 0.2;
    cfg.uncoreFreqGHz = platform.uncoreFreqMaxGHz;
    cfg.activeCores = 0;
    cfg.cdp = CdpSetting{};
    cfg.prefetch = PrefetcherPreset::AllOn;
    cfg.thp = ThpMode::Always;
    cfg.shpCount = 0;
    if (platform.farMemory.present) {
        // Fresh installs on far-memory platforms ship the kernel's
        // balanced tiering daemon and the platform's capacity split.
        cfg.tierPolicy = TierPolicy::Balanced;
        cfg.farMemRatio = platform.farMemory.defaultRatio;
    }
    return cfg;
}

} // namespace softsku

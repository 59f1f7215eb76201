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

std::optional<KnobConfig>
KnobConfig::fromJson(const Json &doc)
{
    // Schema v3 keys a "knobs" object by registry key; the flat v2
    // layout, kept readable for old reports, used the legacy keys.
    const Json *keyed = doc.find("knobs");
    const Json &knobs = keyed ? *keyed : doc;
    if (!knobs.isObject())
        return std::nullopt;
    KnobConfig cfg;
    for (const KnobDescriptor &d : knobRegistry()) {
        const char *member = keyed ? d.key : d.legacyKey;
        const Json *node = member ? knobs.find(member) : nullptr;
        if (node && !d.readJson(*node, cfg))
            return std::nullopt;
    }
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

#include "core/design_space.hh"

#include "core/knob_registry.hh"
#include "util/logging.hh"

namespace softsku {

void
KnobValue::applyTo(KnobConfig &config) const
{
    knobDescriptor(id).apply(*this, config);
}

KnobValue
KnobValue::fromConfig(KnobId id, const KnobConfig &config)
{
    return knobDescriptor(id).capture(config);
}

bool
knobApplicable(KnobId id, const PlatformSpec &platform,
               const WorkloadProfile &profile, std::string *reason)
{
    auto fail = [&](const char *why) {
        if (reason)
            *reason = why;
        return false;
    };
    const KnobDescriptor &d = knobDescriptor(id);
    if (d.availableOn && !d.availableOn(platform))
        return fail(d.unavailableReason);
    if (d.requiresReboot && !profile.toleratesReboot)
        return fail("service cannot tolerate reboots on live traffic");
    if (d.inapplicableReason) {
        if (const char *why = d.inapplicableReason(platform, profile))
            return fail(why);
    }
    return true;
}

std::vector<KnobValue>
knobDomain(KnobId id, const PlatformSpec &platform,
           const WorkloadProfile &profile)
{
    std::vector<KnobValue> domain = knobDescriptor(id).domain(platform,
                                                              profile);
    SOFTSKU_ASSERT(!domain.empty());
    return domain;
}

} // namespace softsku

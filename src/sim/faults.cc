#include "sim/faults.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

namespace {

/** Salt separating the fault streams from the measurement-noise ones. */
constexpr std::uint64_t kFaultSalt = 0xFA17FA17FA17FA17ULL;

/** Salts separating the stateless correlated-hazard hashes from each
 *  other (and from the global surge schedule). */
constexpr std::uint64_t kRackEventSalt = 0x7ACCE4E47ACCE4E4ULL;
constexpr std::uint64_t kDomainSurgeSalt = 0xD0AA145C0A915EEDULL;
constexpr std::uint64_t kCohortSalt = 0xC0804714C0804714ULL;

/** Uniform [0, 1) from a 64-bit hash. */
double
hash01(std::uint64_t x)
{
    return static_cast<double>(mix64(x) >> 11) * 0x1.0p-53;
}

FaultPlan
preset(const std::string &name)
{
    FaultPlan plan;
    if (name == "off")
        return plan;
    if (name == "mild") {
        plan.crashPerHour = 0.005;
        plan.sampleDropRate = 0.005;
        plan.sampleCorruptRate = 0.002;
        plan.surgeWindowRate = 0.02;
        plan.configApplyFailRate = 0.01;
        plan.stuckRebootRate = 0.02;
        return plan;
    }
    if (name == "moderate") {
        plan.crashPerHour = 0.02;
        plan.sampleDropRate = 0.02;
        plan.sampleCorruptRate = 0.01;
        plan.surgeWindowRate = 0.05;
        plan.configApplyFailRate = 0.03;
        plan.stuckRebootRate = 0.05;
        return plan;
    }
    if (name == "severe") {
        plan.crashPerHour = 0.1;
        plan.sampleDropRate = 0.08;
        plan.sampleCorruptRate = 0.04;
        plan.surgeWindowRate = 0.15;
        plan.configApplyFailRate = 0.1;
        plan.stuckRebootRate = 0.15;
        return plan;
    }
    fatal("unknown fault preset '%s' (off, mild, moderate, severe)",
          name.c_str());
}

} // namespace

bool
FaultPlan::any() const
{
    return crashPerHour > 0.0 || sampleDropRate > 0.0 ||
           sampleCorruptRate > 0.0 || surgeWindowRate > 0.0 ||
           configApplyFailRate > 0.0 || stuckRebootRate > 0.0 ||
           rackEventPerHour > 0.0 || domainSurgeRate > 0.0;
}

FaultPlan
FaultPlan::fromSpec(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &partRaw : split(spec, ',')) {
        std::string part(trim(partRaw));
        if (part.empty())
            continue;
        auto eq = part.find('=');
        if (eq == std::string::npos) {
            plan = preset(toLower(part));
            continue;
        }
        std::string key = toLower(trim(part.substr(0, eq)));
        std::string text(trim(part.substr(eq + 1)));
        auto value = parseDouble(text);
        if (!value || *value < 0.0)
            fatal("fault spec: '%s' is not a non-negative number in "
                  "'%s'", text.c_str(), part.c_str());
        if (key == "crash")
            plan.crashPerHour = *value;
        else if (key == "drop")
            plan.sampleDropRate = *value;
        else if (key == "corrupt")
            plan.sampleCorruptRate = *value;
        else if (key == "spike")
            plan.corruptSpikeFactor = *value;
        else if (key == "surge")
            plan.surgeWindowRate = *value;
        else if (key == "surge_mag")
            plan.surgeMagnitude = *value;
        else if (key == "apply")
            plan.configApplyFailRate = *value;
        else if (key == "stuck")
            plan.stuckRebootRate = *value;
        else if (key == "stuck_extra")
            plan.stuckRebootExtraSec = *value;
        else if (key == "perf_min")
            plan.replacementPerfMin = *value;
        else if (key == "rack")
            plan.rackEventPerHour = *value;
        else if (key == "rack_downtime")
            plan.rackEventDowntimeSec = *value;
        else if (key == "rack_window")
            plan.rackEventWindowSec = *value;
        else if (key == "dsurge")
            plan.domainSurgeRate = *value;
        else if (key == "dsurge_mag")
            plan.domainSurgeMagnitude = *value;
        else if (key == "drift")
            plan.rackDriftSigma = *value;
        else
            fatal("fault spec: unknown key '%s' (crash, drop, corrupt, "
                  "spike, surge, surge_mag, apply, stuck, stuck_extra, "
                  "perf_min, rack, rack_downtime, rack_window, dsurge, "
                  "dsurge_mag, drift)", key.c_str());
    }
    return plan;
}

std::string
FaultPlan::describe() const
{
    if (!any())
        return "off";
    std::vector<std::string> parts;
    if (crashPerHour > 0.0)
        parts.push_back(format("crash=%g/h", crashPerHour));
    if (sampleDropRate > 0.0)
        parts.push_back(format("drop=%g", sampleDropRate));
    if (sampleCorruptRate > 0.0)
        parts.push_back(format("corrupt=%g", sampleCorruptRate));
    if (surgeWindowRate > 0.0)
        parts.push_back(format("surge=%g", surgeWindowRate));
    if (configApplyFailRate > 0.0)
        parts.push_back(format("apply=%g", configApplyFailRate));
    if (stuckRebootRate > 0.0)
        parts.push_back(format("stuck=%g", stuckRebootRate));
    if (rackEventPerHour > 0.0)
        parts.push_back(format("rack=%g/h", rackEventPerHour));
    if (domainSurgeRate > 0.0)
        parts.push_back(format("dsurge=%g", domainSurgeRate));
    if (rackDriftSigma > 0.0)
        parts.push_back(format("drift=%g", rackDriftSigma));
    return join(parts, ",");
}

Json
FaultPlan::toJson() const
{
    Json doc = Json::object();
    doc.set("crash_per_hour", Json(crashPerHour));
    doc.set("sample_drop_rate", Json(sampleDropRate));
    doc.set("sample_corrupt_rate", Json(sampleCorruptRate));
    doc.set("surge_window_rate", Json(surgeWindowRate));
    doc.set("surge_magnitude", Json(surgeMagnitude));
    doc.set("config_apply_fail_rate", Json(configApplyFailRate));
    doc.set("stuck_reboot_rate", Json(stuckRebootRate));
    // Domain hazards appear only when armed, so plans without them
    // serialize exactly as before.
    if (rackEventPerHour > 0.0)
        doc.set("rack_event_per_hour", Json(rackEventPerHour));
    if (domainSurgeRate > 0.0)
        doc.set("domain_surge_rate", Json(domainSurgeRate));
    if (rackDriftSigma > 0.0)
        doc.set("rack_drift_sigma", Json(rackDriftSigma));
    return doc;
}

bool
FaultTelemetry::any() const
{
    return faultsInjected() + samplesRejected + retries +
               guardrailAborts + abandoned >
           0;
}

void
FaultTelemetry::merge(const FaultTelemetry &other)
{
    samplesDropped += other.samplesDropped;
    samplesCorrupted += other.samplesCorrupted;
    samplesRejected += other.samplesRejected;
    crashes += other.crashes;
    applyFailures += other.applyFailures;
    retries += other.retries;
    guardrailAborts += other.guardrailAborts;
    abandoned += other.abandoned;
}

Json
FaultTelemetry::toJson() const
{
    Json doc = Json::object();
    doc.set("faults_injected",
            Json(static_cast<long long>(faultsInjected())));
    doc.set("samples_dropped",
            Json(static_cast<long long>(samplesDropped)));
    doc.set("samples_corrupted",
            Json(static_cast<long long>(samplesCorrupted)));
    doc.set("samples_rejected",
            Json(static_cast<long long>(samplesRejected)));
    doc.set("crashes", Json(static_cast<long long>(crashes)));
    doc.set("apply_failures",
            Json(static_cast<long long>(applyFailures)));
    doc.set("retries", Json(static_cast<long long>(retries)));
    doc.set("guardrail_aborts",
            Json(static_cast<long long>(guardrailAborts)));
    doc.set("abandoned", Json(static_cast<long long>(abandoned)));
    return doc;
}

FaultInjector::FaultInjector(const FaultPlan &plan, std::uint64_t seed)
    : plan_(plan), seed_(seed), rng_(seed ^ kFaultSalt)
{
}

FaultInjector
FaultInjector::forStream(std::uint64_t streamId) const
{
    FaultInjector child(plan_, seed_);
    child.rng_ = Rng(seed_ ^ kFaultSalt).split(streamId);
    return child;
}

bool
FaultInjector::dropSample()
{
    return plan_.sampleDropRate > 0.0 && rng_.chance(plan_.sampleDropRate);
}

bool
FaultInjector::corruptSample()
{
    return plan_.sampleCorruptRate > 0.0 &&
           rng_.chance(plan_.sampleCorruptRate);
}

double
FaultInjector::corruptionFactor()
{
    // Half the corruptions read back as zeros (a wedged counter), half
    // as spikes (multiplexing glitch).
    return rng_.chance(0.5) ? 0.0 : plan_.corruptSpikeFactor;
}

bool
FaultInjector::crash(double dtSec)
{
    if (plan_.crashPerHour <= 0.0 || dtSec <= 0.0)
        return false;
    return rng_.chance(plan_.crashPerHour * dtSec / 3600.0);
}

bool
FaultInjector::applyFails()
{
    return plan_.configApplyFailRate > 0.0 &&
           rng_.chance(plan_.configApplyFailRate);
}

bool
FaultInjector::rebootSticks()
{
    return plan_.stuckRebootRate > 0.0 &&
           rng_.chance(plan_.stuckRebootRate);
}

double
FaultInjector::replacementPerfFactor()
{
    return rng_.uniform(plan_.replacementPerfMin, 1.0);
}

double
FaultInjector::rackCohortPerf(int rack) const
{
    double u = hash01((static_cast<std::uint64_t>(rack) + 1) *
                          0x2545F4914F6CDD1DULL ^
                      seed_ ^ kCohortSalt);
    return plan_.replacementPerfMin +
           (1.0 - plan_.replacementPerfMin) * u;
}

double
FaultInjector::replacementPerfFactorForRack(int rack)
{
    if (plan_.rackDriftSigma <= 0.0)
        return replacementPerfFactor();
    // Same single uniform draw as the uncorrelated path, but centered
    // on the rack's cohort — drift clusters by configuration cohort.
    double center = rackCohortPerf(rack);
    double lo = std::max(0.05, center - plan_.rackDriftSigma);
    double hi = std::min(1.0, center + plan_.rackDriftSigma);
    return rng_.uniform(lo, hi);
}

bool
FaultInjector::rackEventInWindow(int rack, double timeSec,
                                 double dtSec) const
{
    if (plan_.rackEventPerHour <= 0.0 || plan_.rackEventWindowSec <= 0.0 ||
        dtSec <= 0.0)
        return false;
    const double w = plan_.rackEventWindowSec;
    const double pWindow =
        std::min(1.0, plan_.rackEventPerHour * w / 3600.0);
    // An event fires at the start of its decision window; scan the
    // window starts landing in (timeSec - dtSec, timeSec].  With the
    // telemetry cadence far below the window length this examines at
    // most one start.
    auto lo = static_cast<std::int64_t>(std::floor((timeSec - dtSec) / w));
    auto hi = static_cast<std::int64_t>(std::floor(timeSec / w));
    for (std::int64_t win = lo; win <= hi; ++win) {
        double start = static_cast<double>(win) * w;
        if (start <= timeSec - dtSec || start > timeSec)
            continue;
        double u = hash01(static_cast<std::uint64_t>(win) *
                              0x9E3779B97F4A7C15ULL ^
                          (static_cast<std::uint64_t>(rack) + 1) *
                              0xD1B54A32D192ED03ULL ^
                          seed_ ^ kRackEventSalt);
        if (u < pWindow)
            return true;
    }
    return false;
}

double
FaultInjector::surgeFactor(double timeSec) const
{
    if (plan_.surgeWindowRate <= 0.0 || plan_.surgeWindowSec <= 0.0)
        return 1.0;
    auto window =
        static_cast<std::uint64_t>(timeSec / plan_.surgeWindowSec);
    double u = static_cast<double>(
                   mix64(window ^ seed_ ^ kFaultSalt) >> 11) *
               0x1.0p-53;
    if (u >= plan_.surgeWindowRate)
        return 1.0;
    // Surge height varies per window: reuse the decision draw's
    // position inside the acceptance band.
    double height = plan_.surgeWindowRate > 0.0
                        ? u / plan_.surgeWindowRate
                        : 0.0;
    return 1.0 + plan_.surgeMagnitude * (0.5 + 0.5 * height);
}

double
FaultInjector::domainSurgeFactor(int region, double timeSec) const
{
    if (plan_.domainSurgeRate <= 0.0 || plan_.surgeWindowSec <= 0.0)
        return 1.0;
    auto window =
        static_cast<std::uint64_t>(timeSec / plan_.surgeWindowSec);
    double u = hash01(window * 0xBF58476D1CE4E5B9ULL ^
                      (static_cast<std::uint64_t>(region) + 1) *
                          0x94D049BB133111EBULL ^
                      seed_ ^ kDomainSurgeSalt);
    if (u >= plan_.domainSurgeRate)
        return 1.0;
    double height = u / plan_.domainSurgeRate;
    return 1.0 + plan_.domainSurgeMagnitude * (0.5 + 0.5 * height);
}

} // namespace softsku

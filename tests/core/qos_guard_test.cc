/**
 * @file
 * The sweep's QoS guardrail against the thread-pool DES it stands for.
 *
 * The guardrail decides capacity collapse on core counts
 * (RobustnessPolicy::capacityCollapses over resolved cores).  The DES
 * solve (solveOperatingPoint) finds each core count's peak arrival rate
 * under the SLO and the service's utilization cap.  For every service,
 * platform and (baseline, candidate) pair on the core_count axis, the
 * DES verdict — peak QPS below 70% of the baseline's, or a p99 over the
 * SLO by more than 10% — must equal the core-count verdict.
 *
 * The one exception is the pairs whose core ratio lies within 3% of the
 * 70% floor.  Each DES peak strays from the utilization cap by a few
 * percent of capacity, so the ratio of two peaks can land on either side
 * of the floor there: the DES verdict is a coin-flip of the seed.  The
 * test pins the core-count rule's verdict on those pairs instead (an
 * exact 70% is kept: `<` reads "strictly below") and pins where they
 * are.  The sweeps compare against the production baseline (all
 * cores), where the only such pair is 28 of 40 cores on skylake20.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/ab_test.hh"
#include "core/knob_registry.hh"
#include "services/services.hh"
#include "sim/qos.hh"

namespace softsku {
namespace {

/** The p99 overshoot of the SLO the DES guardrail tolerated. */
constexpr double kSloMargin = 0.10;

/** Core ratios within this fraction of the floor are decided by DES
 *  noise, not by capacity. */
constexpr double kFloorBand = 0.03;

/** Resolved core counts on @p platform's core_count axis. */
std::vector<int>
coreAxis(const PlatformSpec &platform, const WorkloadProfile &profile)
{
    std::vector<int> cores;
    for (const KnobValue &value :
         knobDescriptor(KnobId::CoreCount).domain(platform, profile)) {
        KnobConfig config;
        value.applyTo(config);
        cores.push_back(config.resolvedCores(platform));
    }
    return cores;
}

/** DES seeds per (service, platform): seed 1 everywhere, and 1–3 on
 *  the perfbench fleet targets. */
std::vector<std::uint64_t>
seedsFor(const std::string &service, const std::string &platform)
{
    const std::set<std::pair<std::string, std::string>> multiSeed = {
        {"web", "skylake18"}, {"ads2", "skylake18"},
        {"feed1", "skylake18cxl"}};
    if (multiSeed.count({service, platform}))
        return {1, 2, 3};
    return {1};
}

class QosGuardVerdicts : public testing::TestWithParam<std::string>
{
};

TEST_P(QosGuardVerdicts, CoreCountRuleMatchesTheDes)
{
    const PlatformSpec &platform = platformByName(GetParam());
    const RobustnessPolicy robust = RobustnessPolicy::hostile();
    // (baseline cores, candidate cores) -> the guard's verdict, for the
    // pairs within 3% of the floor.
    std::map<std::pair<int, int>, bool> nearFloor;
    for (const WorkloadProfile *profile : allMicroservices()) {
        const std::vector<int> axis = coreAxis(platform, *profile);
        for (std::uint64_t seed : seedsFor(profile->name, platform.name)) {
            std::vector<ServiceOperatingPoint> points;
            for (int cores : axis) {
                points.push_back(
                    solveOperatingPoint(*profile, platform, seed, cores));
            }
            for (size_t b = 0; b < axis.size(); ++b) {
                for (size_t c = 0; c < axis.size(); ++c) {
                    const bool guard =
                        robust.capacityCollapses(axis[b], axis[c]);
                    const double ratio = static_cast<double>(axis[c]) /
                                         (robust.minPeakQpsFraction *
                                          axis[b]);
                    if (std::fabs(ratio - 1.0) <= kFloorBand) {
                        nearFloor[{axis[b], axis[c]}] = guard;
                        continue;
                    }
                    const ServiceOperatingPoint &base = points[b];
                    const ServiceOperatingPoint &cand = points[c];
                    const bool des =
                        robust.capacityCollapses(base.peakQps,
                                                 cand.peakQps) ||
                        cand.p99LatencySec >
                            cand.sloLatencySec * (1.0 + kSloMargin);
                    EXPECT_EQ(guard, des)
                        << profile->name << " seed " << seed << ": "
                        << axis[c] << " vs " << axis[b]
                        << " cores, DES peaks " << cand.peakQps << " vs "
                        << base.peakQps << ", p99 " << cand.p99LatencySec
                        << " (SLO " << cand.sloLatencySec << ")";
                }
            }
        }
    }
    // Every axis has 10 of 14 cores; the 40-core axis adds the rest.
    // 14 of 20 and 28 of 40 are exact ties.
    std::map<std::pair<int, int>, bool> expected = {{{14, 10}, false}};
    if (platform.name == "skylake20") {
        expected.insert({{{20, 14}, false},
                         {{26, 18}, true},
                         {{28, 20}, false},
                         {{32, 22}, true},
                         {{34, 24}, false},
                         {{38, 26}, true},
                         {{40, 28}, false}});
    }
    EXPECT_EQ(nearFloor, expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, QosGuardVerdicts,
    testing::Values(std::string("broadwell16"), std::string("skylake18"),
                    std::string("skylake18cxl"),
                    std::string("skylake20")),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace softsku

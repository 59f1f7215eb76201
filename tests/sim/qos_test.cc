/** @file Tests for the QoS operating-point solver. */

#include <gtest/gtest.h>

#include "arch/platform.hh"
#include "services/services.hh"
#include "sim/qos.hh"

namespace softsku {
namespace {

TEST(Qos, RespectsSloAndUtilizationCap)
{
    const WorkloadProfile &service = feed2Profile();
    ServiceOperatingPoint op = solveOperatingPoint(
        service, platformByName(service.defaultPlatform));
    EXPECT_GT(op.peakQps, 0.0);
    EXPECT_LE(op.p99LatencySec, op.sloLatencySec * 1.02);
    EXPECT_LE(op.cpuUtilization, service.cpuUtilizationCap + 0.02);
    EXPECT_GT(op.userUtilization, op.kernelUtilization);
}

TEST(Qos, BreakdownFractionsSumToOne)
{
    const WorkloadProfile &service = webProfile();
    ServiceOperatingPoint op = solveOperatingPoint(
        service, platformByName(service.defaultPlatform));
    const ThreadPoolResult &pool = op.pool;
    EXPECT_NEAR(pool.runningFraction + pool.queueFraction +
                    pool.schedulerFraction + pool.ioFraction,
                1.0, 1e-9);
    // Web spends most of a request blocked (Fig 2a).
    EXPECT_LT(pool.runningShare(), 0.5);
}

TEST(Qos, LeafServicesMostlyRunning)
{
    const WorkloadProfile &service = feed1Profile();
    ServiceOperatingPoint op = solveOperatingPoint(
        service, platformByName(service.defaultPlatform));
    EXPECT_GT(op.pool.runningShare(), 0.85);
}

TEST(Qos, CacheKernelShareHighest)
{
    ServiceOperatingPoint web =
        solveOperatingPoint(webProfile(), skylake18());
    ServiceOperatingPoint cache =
        solveOperatingPoint(cache2Profile(), skylake18());
    double webKernelShare = web.kernelUtilization / web.cpuUtilization;
    double cacheKernelShare =
        cache.kernelUtilization / cache.cpuUtilization;
    EXPECT_GT(cacheKernelShare, webKernelShare * 2);
}

TEST(Qos, Deterministic)
{
    const WorkloadProfile &service = ads2Profile();
    const PlatformSpec &platform = platformByName(service.defaultPlatform);
    ServiceOperatingPoint a = solveOperatingPoint(service, platform, 5);
    ServiceOperatingPoint b = solveOperatingPoint(service, platform, 5);
    EXPECT_DOUBLE_EQ(a.peakQps, b.peakQps);
    EXPECT_DOUBLE_EQ(a.p99LatencySec, b.p99LatencySec);
}

} // namespace
} // namespace softsku

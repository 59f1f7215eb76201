#include "sim/qos.hh"

#include <algorithm>
#include <cmath>

#include "arch/platform.hh"

namespace softsku {

namespace {

/** Evaluate the pool at a given arrival rate; small DES per probe. */
ThreadPoolResult
evaluateRate(const WorkloadProfile &profile, int cores, double arrivalRate,
             std::uint64_t seed)
{
    ThreadPoolParams params;
    params.cores = cores;
    params.workers = std::max(
        1, static_cast<int>(std::lround(profile.request.workersPerCore *
                                        cores)));
    params.arrivalRatePerSec = arrivalRate;
    // CPU demand is anchored to the request-latency scale: the
    // calibrated per-request latency already reflects the service's
    // production-hardware performance (the paper's Table 2 path
    // lengths are service-level, not per-request-per-server).
    params.cpuTimePerRequestSec = profile.request.requestLatencySec *
                                  profile.request.runningFraction;
    params.cpuNoiseSigma = 0.35;
    params.blockingPhases = profile.request.blockingPhases;
    if (profile.request.blockingPhases > 0 &&
        profile.request.runningFraction < 1.0) {
        // Downstream-I/O time implied by the running fraction (or the
        // explicit I/O share when the rest of the blocked time is
        // queue/scheduler contention), split across the calls.
        double ioShare = profile.request.ioFraction > 0.0
                             ? profile.request.ioFraction
                             : 1.0 - profile.request.runningFraction;
        double running = params.cpuTimePerRequestSec;
        double blocked =
            running * ioShare / profile.request.runningFraction;
        params.blockingTimeSec =
            blocked / profile.request.blockingPhases;
    }
    params.requestsToSimulate = 12000;
    params.warmupRequests = 1500;
    return simulateThreadPool(params, seed);
}

} // namespace

ServiceOperatingPoint
solveOperatingPoint(const WorkloadProfile &profile,
                    const PlatformSpec &platform, std::uint64_t seed,
                    int activeCores)
{
    ServiceOperatingPoint op;

    // Worker threads schedule onto hardware contexts (SMT included);
    // a core-count knob below the socket size takes contexts away.
    int onlineCores =
        activeCores > 0 ? std::min(activeCores, platform.totalCores())
                        : platform.totalCores();
    int cores = onlineCores * platform.smtWays;
    double sloSec = profile.request.requestLatencySec *
                    profile.request.sloLatencyMultiplier;
    op.sloLatencySec = sloSec;

    // The most load the hardware could serve ignoring latency: one
    // request's CPU time per hardware context.
    double cpuPerRequest = profile.request.requestLatencySec *
                           profile.request.runningFraction;
    double serviceRateCap = static_cast<double>(cores) / cpuPerRequest;

    // Binary search the largest arrival rate whose p99 meets the SLO
    // and whose utilization stays below the service's cap.
    double lo = serviceRateCap * 0.02;
    double hi = serviceRateCap * 0.98;
    ThreadPoolResult best = evaluateRate(profile, cores, lo, seed);
    double bestRate = lo;
    for (int iter = 0; iter < 14; ++iter) {
        double mid = 0.5 * (lo + hi);
        ThreadPoolResult result =
            evaluateRate(profile, cores, mid, seed + iter + 1);
        bool ok = result.p99LatencySec <= sloSec &&
                  result.coreUtilization <= profile.cpuUtilizationCap;
        if (ok) {
            best = result;
            bestRate = mid;
            lo = mid;
        } else {
            hi = mid;
        }
    }

    op.peakQps = bestRate;
    op.meanLatencySec = best.meanLatencySec;
    op.p99LatencySec = best.p99LatencySec;
    op.pool = best;

    double kernelShare = profile.kernelTimeShare +
                         profile.contextSwitch.penaltyFractionMid();
    op.cpuUtilization =
        std::min(best.coreUtilization * (1.0 + kernelShare),
                 profile.cpuUtilizationCap);
    op.kernelUtilization = op.cpuUtilization * kernelShare /
                           (1.0 + kernelShare);
    op.userUtilization = op.cpuUtilization - op.kernelUtilization;
    return op;
}

} // namespace softsku

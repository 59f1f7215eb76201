/**
 * @file
 * Service-level QoS solver.
 *
 * The paper's load balancers admit only as much load as each service
 * can sustain without violating its latency SLO (Sec. 2.3.3), which is
 * why CPU utilization differs so much across services (Fig 3).  The
 * solver combines the architectural simulation (per-core instruction
 * throughput) with the thread-pool discrete-event model (queueing,
 * scheduling, blocking) and searches for the peak arrival rate that
 * still meets the SLO — yielding peak QPS, the latency breakdown of
 * Fig 2, and the utilization ceiling of Fig 3.
 */

#ifndef SOFTSKU_SIM_QOS_HH
#define SOFTSKU_SIM_QOS_HH

#include "os/scheduler.hh"
#include "workload/profile.hh"

namespace softsku {

struct PlatformSpec;
struct KnobConfig;

/** The solved peak operating point of one service on one server. */
struct ServiceOperatingPoint
{
    double peakQps = 0.0;             //!< max sustainable arrival rate
    double meanLatencySec = 0.0;
    double p99LatencySec = 0.0;
    double sloLatencySec = 0.0;       //!< the constraint that bound it
    double cpuUtilization = 0.0;      //!< total CPU busy fraction
    double userUtilization = 0.0;     //!< user-mode share of total CPU
    double kernelUtilization = 0.0;   //!< kernel + IO-wait share
    ThreadPoolResult pool;            //!< latency breakdown at peak
};

/**
 * Solve the peak-load operating point.
 *
 * @param profile     the microservice
 * @param platform    the server SKU
 * @param seed        determinism seed for the DES
 * @param activeCores cores the configuration leaves online (isolcpus);
 *                    0 means the full socket.  Fewer cores means fewer
 *                    worker contexts and a proportionally lower peak.
 */
ServiceOperatingPoint solveOperatingPoint(const WorkloadProfile &profile,
                                          const PlatformSpec &platform,
                                          std::uint64_t seed = 1,
                                          int activeCores = 0);

} // namespace softsku

#endif // SOFTSKU_SIM_QOS_HH

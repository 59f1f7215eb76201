/**
 * @file
 * Measurement plumbing for the end-to-end benchmark: host
 * clocks and resource usage, seed derivation, output digests, the
 * benchmark's own span log, the check ledger, and the memory-bound
 * host probe.  Nothing here touches the library; perfbench.cc wires these
 * around calls into it.
 */

#ifndef SOFTSKU_PERFBENCH_HARNESS_HH
#define SOFTSKU_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host seconds. */
double nowSec();

/** User + system CPU seconds of the whole process (all threads). */
double processCpuSec();

/**
 * Reset the process's peak resident size to its current resident size,
 * so that peakRssMb() covers only what runs afterwards.  False when the
 * kernel refuses.
 */
bool resetPeakRss();

/** Peak resident size of the process since the last resetPeakRss(),
 *  in MiB (VmHWM). */
double peakRssMb();

/** CPUs this process may run on (what `nproc` prints). */
unsigned availableCpus();

/**
 * A seed for the @p salt-th input stream of a run seeded @p seed.
 * Kept below 2^31 so it survives a round trip through the report
 * JSON's doubles unchanged.
 */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/** FNV-1a 64-bit digest of @p bytes as 16 hex digits. */
std::string digest(const std::string &bytes);

/** Exact bit pattern of @p value as 16 hex digits. */
std::string bitsHex(double value);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank @p q quantile of @p values (0 when empty). */
double quantile(std::vector<double> values, double q);

/**
 * The benchmark's own spans.  Each records a name, its parent span
 * (the innermost span open on the same thread), start and end.  Spans
 * stay in memory and are written once, as Chrome trace_event JSON, when
 * the run ends.  Safe to record from several threads.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        long parent = -1;
        unsigned thread = 0;
        double start = 0.0;
        double end = 0.0;
    };

    /** Open a span; returns its id. */
    long open(const std::string &name);
    /** Close span @p id. */
    void close(long id);

    /** Durations (s) of every closed span called @p name. */
    std::vector<double> durations(const std::string &name) const;
    /** Sum of durations of every closed span called @p name. */
    double total(const std::string &name) const;

    /** Write every span as Chrome trace_event JSON; false on error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    double origin_ = nowSec();
};

/** RAII span on a SpanLog; a null log records nothing. */
class BenchSpan
{
  public:
    BenchSpan(SpanLog *log, const std::string &name);
    ~BenchSpan();
    BenchSpan(const BenchSpan &) = delete;
    BenchSpan &operator=(const BenchSpan &) = delete;

  private:
    SpanLog *log_;
    long id_ = -1;
};

/**
 * Every output check a run makes.  Each check is one attempted
 * operation; a failed check is a failed operation, so the result's
 * failed ÷ attempted is the run's error rate.
 */
class CheckLedger
{
  public:
    /** Record one check called @p name. */
    void expect(bool ok, const std::string &name,
                const std::string &detail = "");

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** One line per check name: passes/attempts. */
    std::string render() const;

  private:
    struct Tally
    {
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
    };
    std::map<std::string, Tally> byName_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * A fixed memory-bound kernel: host milliseconds for a dependent
 * pointer chase through a 64 MiB single-cycle permutation, far larger
 * than any LLC.  It is the run's noise witness — its time tracks host
 * memory interference, which is what slows the simulator's
 * memory-bound loop.  It is reported beside the other metrics and never
 * used to scale or filter them.  The permutation is built and freed in
 * each call, outside the timed chase.
 */
double hostProbeMs();

} // namespace perfbench

#endif // SOFTSKU_PERFBENCH_HARNESS_HH

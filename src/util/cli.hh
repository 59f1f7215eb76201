/**
 * @file
 * A minimal command-line flag parser for the examples and bench
 * harnesses.  Flags take the forms --name=value, --name value, and
 * boolean --name — plus ToolOptions, the one parser for the flag set
 * every μSKU tool shares (--jobs, --faults, --trace-out, ...), so the
 * tools cannot drift apart in how they spell or wire these.
 */

#ifndef SOFTSKU_UTIL_CLI_HH
#define SOFTSKU_UTIL_CLI_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/faults.hh"
#include "util/logging.hh"

namespace softsku {

/** Parsed command line: named flags plus positional arguments. */
class CliArgs
{
  public:
    /** Parse argv; unknown flags are accepted (harnesses are permissive). */
    CliArgs(int argc, const char *const *argv);

    /** True when --name was present at all. */
    bool has(const std::string &name) const;

    /** Flag value as string, or @p fallback when absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Flag value as integer; fatal() on malformed input. */
    long long getInt(const std::string &name, long long fallback) const;

    /** Flag value as double; fatal() on malformed input. */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Parse the conventional --jobs flag: a positive thread count, or
     * "auto"/"0" for the hardware concurrency.  Returns @p fallback
     * when the flag is absent; fatal() on malformed input.
     */
    unsigned getJobs(unsigned fallback = 1,
                     const std::string &name = "jobs") const;

    /**
     * Parse the conventional --log-level flag
     * (silent|error|warn|info|debug).  Returns @p fallback when the
     * flag is absent; fatal() on an unknown level name.
     */
    LogLevel getLogLevel(LogLevel fallback = LogLevel::Info,
                         const std::string &name = "log-level") const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

/**
 * The flag set shared by every μSKU tool (tune_web, tune_fleet,
 * fleet_rollout, the Fig. 19 bench):
 *
 *   --jobs=N|auto      worker threads (reports are N-invariant)
 *   --search=MODE      sample allocation: fixed|race|halving
 *   --confidence=P     significance level / racing error budget
 *   --knobs=k1,k2,...  restrict the swept knob set to these registry
 *                      keys (default: every knob the platform offers)
 *   --faults=SPEC      fault plan preset or k=v list
 *   --fault-seed=N     fault-decision RNG seed
 *   --domains=SPEC     fleet failure-domain topology: RACKS or
 *                      RACKSxREGIONS (e.g. "8" or "8x2")
 *   --cache-dir=PATH   persistent A/B memo cache directory
 *   --emit=DIR         write one dashboard JSON per target into DIR
 *                      (<service>.<platform>.v<schema>.json)
 *   --trace-out=PATH   Chrome trace_event export
 *   --metrics          print the flight-recorder table on exit
 *   --progress         live sweep progress line (stderr)
 *   --log-level=LVL    silent|error|warn|info|debug
 *
 * fromArgs() parses them once; apply() performs the process-level
 * side effects (log level, tracer arming, hostile-fleet banner) so a
 * tool's main() stays three lines of plumbing.
 */
struct ToolOptions
{
    unsigned jobs = 1;
    /**
     * Sample-allocation override for the spec ("fixed", "race",
     * "halving"); empty keeps whatever the input spec asks for.  Held
     * as a string — the util layer cannot see core's SearchMode —
     * and overlaid via InputSpec::applySearchOverrides().
     */
    std::string search;
    /** Confidence override for the spec; 0 keeps the spec's value. */
    double confidence = 0.0;
    /**
     * Comma-separated registry keys restricting the swept knob set;
     * empty keeps the spec's own list.  Held as a string — the util
     * layer cannot see core's KnobId — and overlaid via
     * InputSpec::applySearchOverrides().
     */
    std::string knobs;
    FaultPlan faults;
    std::uint64_t faultSeed = 1;
    /**
     * Failure-domain topology spec for fleet tools ("8", "8x2"); empty
     * keeps the trivial single-rack fleet.  Held as a string — the
     * util layer cannot see sim's FleetTopology — and parsed by
     * FleetTopology::fromSpec() at the point of use.
     */
    std::string domains;
    std::string cacheDir;
    /**
     * Dashboard-emission directory (--emit=DIR); empty disables.  Each
     * target writes `<service>.<platform>.v<schema>.json` here — a
     * stable, schema-versioned file name a dashboard can poll without
     * parsing tool stdout.
     */
    std::string emitDir;
    std::string traceOut;
    bool metrics = false;
    bool progress = false;
    LogLevel logLevel = LogLevel::Info;

    /** Parse the shared flags out of @p args. */
    static ToolOptions fromArgs(const CliArgs &args,
                                unsigned defaultJobs = 1);

    /**
     * Apply the process-level switches: set the log level, arm the
     * tracer when a trace path was given, and announce the hostile
     * fleet when a fault plan is active.
     */
    void apply() const;

    /**
     * Write the Chrome trace when --trace-out was given.  Call once,
     * after the run(s) — a no-op without the flag.
     */
    void writeTrace() const;
};

} // namespace softsku

#endif // SOFTSKU_UTIL_CLI_HH

/**
 * @file
 * Shared helpers for the figure/table bench harnesses.
 *
 * Every bench binary reproduces one table or figure from the paper's
 * evaluation; these helpers keep window sizing and measurement wiring
 * uniform across them.
 */

#ifndef SOFTSKU_BENCH_COMMON_HH
#define SOFTSKU_BENCH_COMMON_HH

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/knobs.hh"
#include "services/services.hh"
#include "sim/qos.hh"
#include "sim/service_sim.hh"
#include "util/cli.hh"
#include "util/file.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace softsku::bench {

/** Default windows: big enough for stable counters, fast enough to
 *  keep a full figure under ~30 s of wall clock. */
inline SimOptions
defaultSimOptions(const CliArgs &args)
{
    SimOptions opts;
    opts.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    opts.warmupInstructions = static_cast<std::uint64_t>(
        args.getInt("warmup", 700'000));
    opts.measureInstructions = static_cast<std::uint64_t>(
        args.getInt("insns", 900'000));
    return opts;
}

/** Simulate one service on its fleet platform under production knobs. */
inline CounterSet
productionCounters(const WorkloadProfile &service, const SimOptions &opts)
{
    const PlatformSpec &platform = platformByName(service.defaultPlatform);
    KnobConfig knobs = productionConfig(platform, service);
    return simulateService(service, platform, knobs, opts);
}

/** Paper-vs-measured annotation line for EXPERIMENTS.md cross-checks. */
inline void
note(const char *fmt, ...)
{
    va_list va;
    va_start(va, fmt);
    std::vprintf(fmt, va);
    va_end(va);
    std::printf("\n");
}

/**
 * Write @p doc as a --json-out artifact: whole-file and checked, so a
 * path that cannot be written exits 1 with the reason instead of
 * reporting a file that does not exist.
 */
inline void
writeJsonOut(const std::string &path, const Json &doc)
{
    if (!writeFileAtomic(path, doc.dump(2) + "\n"))
        fatal("cannot write %s: %s", path.c_str(), std::strerror(errno));
    note("wrote %s", path.c_str());
}

} // namespace softsku::bench

#endif // SOFTSKU_BENCH_COMMON_HH

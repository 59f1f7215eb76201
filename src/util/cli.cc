#include "util/cli.hh"

#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/thread_pool.hh"

namespace softsku {

CliArgs::CliArgs(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        size_t eq = body.find('=');
        if (eq != std::string::npos) {
            flags_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
            flags_[body] = argv[++i];
        } else {
            flags_[body] = "true";
        }
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return flags_.count(name) > 0;
}

std::string
CliArgs::get(const std::string &name, const std::string &fallback) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
}

long long
CliArgs::getInt(const std::string &name, long long fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    auto parsed = parseInt(it->second);
    if (!parsed)
        fatal("flag --%s expects an integer, got '%s'", name.c_str(),
              it->second.c_str());
    return *parsed;
}

unsigned
CliArgs::getJobs(unsigned fallback, const std::string &name) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    if (it->second == "auto")
        return ThreadPool::hardwareThreads();
    auto parsed = parseInt(it->second);
    if (!parsed || *parsed < 0)
        fatal("flag --%s expects a thread count or 'auto', got '%s'",
              name.c_str(), it->second.c_str());
    if (*parsed == 0)
        return ThreadPool::hardwareThreads();
    return static_cast<unsigned>(*parsed);
}

LogLevel
CliArgs::getLogLevel(LogLevel fallback, const std::string &name) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    LogLevel level;
    if (!logLevelFromName(it->second, level)) {
        fatal("flag --%s expects silent|error|warn|info|debug, got '%s'",
              name.c_str(), it->second.c_str());
    }
    return level;
}

double
CliArgs::getDouble(const std::string &name, double fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    auto parsed = parseDouble(it->second);
    if (!parsed)
        fatal("flag --%s expects a number, got '%s'", name.c_str(),
              it->second.c_str());
    return *parsed;
}

ToolOptions
ToolOptions::fromArgs(const CliArgs &args, unsigned defaultJobs)
{
    ToolOptions opts;
    opts.jobs = args.getJobs(defaultJobs);
    opts.search = args.get("search");
    // Spelling is validated here so a typo dies at the flag, not deep
    // in a run; the core layer re-parses the surviving string.
    if (!opts.search.empty() && opts.search != "fixed" &&
        opts.search != "race" && opts.search != "halving") {
        fatal("flag --search expects fixed|race|halving, got '%s'",
              opts.search.c_str());
    }
    opts.confidence = args.getDouble("confidence", 0.0);
    if (args.has("confidence") &&
        (opts.confidence <= 0.5 || opts.confidence >= 1.0)) {
        fatal("flag --confidence expects a value in (0.5, 1), got '%s'",
              args.get("confidence").c_str());
    }
    // Key spellings are validated by knobFromKey at the overlay point,
    // which can see the registry and list the valid keys.
    opts.knobs = args.get("knobs");
    if (args.has("faults"))
        opts.faults = FaultPlan::fromSpec(args.get("faults"));
    opts.faultSeed =
        static_cast<std::uint64_t>(args.getInt("fault-seed", 1));
    opts.domains = args.get("domains");
    opts.cacheDir = args.get("cache-dir");
    opts.emitDir = args.get("emit");
    opts.traceOut = args.get("trace-out");
    opts.metrics = args.has("metrics");
    opts.progress = args.has("progress");
    opts.logLevel = args.getLogLevel(LogLevel::Info);
    return opts;
}

void
ToolOptions::apply() const
{
    setLogLevel(logLevel);
    if (!traceOut.empty())
        Tracer::global().enable();
    if (faults.any()) {
        inform("fault injection armed: %s (seed %llu)",
               faults.describe().c_str(),
               static_cast<unsigned long long>(faultSeed));
    }
}

void
ToolOptions::writeTrace() const
{
    if (!traceOut.empty())
        Tracer::global().writeChromeTrace(traceOut);
}

} // namespace softsku

/**
 * @file
 * End-to-end benchmark.  Links the library and runs one of four
 * workloads through public entry points only, in one process:
 *
 *   characterize  simulateService for every service on its default
 *                 platform plus feed1 on skylake18cxl (simulator only)
 *   tune_web      Usku::run for web on skylake18 (time to a soft SKU)
 *   tune_fleet    FleetOrchestrator::tuneAll over three targets on a
 *                 shared pool, racing search, moderate faults
 *   replay_warm   a warm, fully cache-served tuneAll replay, then a
 *                 staged rollout of each winner into one ODS store,
 *                 the health view and the emitted dashboard reports
 *
 * BENCHMARK.json runs tune_fleet and replay_warm, the two that fit the
 * run budget at a run length the host's noise allows; characterize and
 * tune_web are run by hand.
 *
 * A run probes the host (untimed), sets up (timed, several times),
 * then repeats the workload's fixed unit of work until the time budget
 * is spent and reports per-unit medians.  Every unit's outputs are
 * checked; with --trace 1 the traced path runs twice more, without and
 * then inside the benchmark's own spans, and yields the per-layer
 * numbers.  See perfbench/README.md for the workloads, metrics and
 * checks.
 *
 * Usage: perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--workdir DIR] [--reference FILE]
 *                  [--print-digests]
 *
 * Run it from the repository root.  Work files, and a traced run's
 * spans (trace-<workload>.json), go under --workdir.
 */

#include <algorithm>
#include <exception>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "core/ab_cache.hh"
#include "core/configurator.hh"
#include "core/orchestrator.hh"
#include "core/report_writer.hh"
#include "core/usku.hh"
#include "harness.hh"
#include "obs/trace.hh"
#include "services/services.hh"
#include "sim/fleet.hh"
#include "sim/service_sim.hh"
#include "telemetry/health_view.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace fs = std::filesystem;
using namespace softsku;
using namespace perfbench;

namespace {

/** The seed the reference digests were recorded at. */
constexpr std::uint64_t kDigestSeed = 1;

/** Fleet targets of tune_fleet and replay_warm. */
const char *const kFleetTargets =
    "web:skylake18,ads2:skylake18,feed1:skylake18cxl";

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/**
 * Simulation windows.  The tuning workloads run at one seventh of the
 * tune_web tool's 700k/900k so that a unit fits the run's time budget;
 * every layer still does its work.  replay_warm's cold fill is
 * dominated by A/B measurement, not window length, so it runs small.
 */
SimOptions
windows(std::uint64_t warmup, std::uint64_t measure)
{
    SimOptions options;
    options.warmupInstructions = warmup;
    options.measureInstructions = measure;
    return options;
}

const SimOptions kCharacterizeWindows = SimOptions{};
const SimOptions kTuneWindows = windows(100'000, 130'000);
const SimOptions kReplayWindows = windows(30'000, 40'000);
const SimOptions kWarmupWindows = windows(10'000, 10'000);

double
windowMinsts(const SimOptions &options)
{
    return static_cast<double>(options.warmupInstructions +
                               options.measureInstructions) /
           1e6;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDigestSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
    std::string reference = "perfbench/reference.json";
    bool printDigests = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag.c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = std::stoull(value());
        else if (flag == "--seconds")
            args.seconds = std::stod(value());
        else if (flag == "--trace")
            args.trace = value() != "0";
        else if (flag == "--workdir")
            args.workdir = value();
        else if (flag == "--reference")
            args.reference = value();
        else if (flag == "--print-digests")
            args.printDigests = true;
        else
            fatal("unknown argument '%s'", flag.c_str());
    }
    if (args.seconds <= 0.0)
        fatal("--seconds must be positive");
    return args;
}

/** Named output bytes of one unit, in a fixed order. */
using Outputs = std::map<std::string, std::string>;

/** What one unit did besides its outputs. */
struct UnitResult
{
    Outputs outputs;
    double simMinsts = 0.0;  //!< simulated instructions, millions
};

/** Per-layer metric name → value, filled by the traced unit. */
using Layers = std::map<std::string, double>;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::uintmax_t
directoryBytes(const std::string &dir)
{
    std::uintmax_t bytes = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file())
            bytes += entry.file_size();
    }
    return bytes;
}

/** Every field of a CounterSet, doubles as exact bit patterns. */
std::string
serializeCounters(const CounterSet &c)
{
    std::ostringstream out;
    auto d = [&](const char *name, double v) {
        out << name << '=' << bitsHex(v) << '\n';
    };
    auto u = [&](const char *name, std::uint64_t v) {
        out << name << '=' << v << '\n';
    };
    auto cache = [&](const char *name, const CacheStats &s) {
        out << name << '=' << s.accesses[0] << ',' << s.accesses[1] << ','
            << s.misses[0] << ',' << s.misses[1] << ',' << s.prefetchFills
            << ',' << s.prefetchUseful << ',' << s.evictions << '\n';
    };
    auto tlb = [&](const char *name, const TlbStats &s) {
        out << name << '=' << s.accesses << ',' << s.misses << ','
            << s.misses4k << ',' << s.misses2m << '\n';
    };
    u("instructions", c.instructions);
    d("cycles", c.cycles);
    d("ipc", c.ipc);
    d("core_ipc", c.coreIpc);
    d("mips_per_core", c.mipsPerCore);
    d("platform_mips", c.platformMips);
    for (std::uint64_t count : c.classCounts)
        u("class", count);
    cache("l1i", c.l1i);
    cache("l1d", c.l1d);
    cache("l2", c.l2);
    cache("llc", c.llc);
    tlb("itlb_l1", c.itlbL1);
    tlb("dtlb_l1", c.dtlbL1);
    u("itlb_walks", c.itlbWalks);
    u("dtlb_walks", c.dtlbWalks);
    u("dtlb_load_misses", c.dtlbLoadMisses);
    u("dtlb_store_misses", c.dtlbStoreMisses);
    u("branches", c.branches);
    u("mispredicts", c.mispredicts);
    u("btb_misses", c.btbMisses);
    d("mem_bw", c.memBandwidthGBs);
    d("mem_latency", c.memLatencyNs);
    d("mem_backpressure", c.memBackpressure);
    u("dram_demand_fills", c.dramDemandFills);
    u("dram_prefetch_fills", c.dramPrefetchFills);
    d("cost_insns", c.costs.instructions);
    d("cost_base", c.costs.baseCycles);
    d("cost_fe", c.costs.frontEndStallCycles);
    d("cost_bs", c.costs.badSpecCycles);
    d("cost_be", c.costs.backEndStallCycles);
    d("td_retiring", c.topdown.retiring);
    d("td_fe", c.topdown.frontEnd);
    d("td_bs", c.topdown.badSpeculation);
    d("td_be", c.topdown.backEnd);
    u("context_switches", c.contextSwitches);
    d("csw_penalty", c.cswPenaltyFraction);
    d("kernel_share", c.kernelShare);
    return out.str();
}

/** SpanLog::total of @p spans, 0 when there is no log. */
double
spanTotal(const SpanLog *spans, const std::string &name)
{
    return spans ? spans->total(name) : 0.0;
}

/** SpanLog::durations of @p spans, none when there is no log. */
std::vector<double>
spanDurations(const SpanLog *spans, const std::string &name)
{
    return spans ? spans->durations(name) : std::vector<double>{};
}

double
metricValue(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const MetricRow &row : snapshot.rows) {
        if (row.name == name)
            return row.value;
    }
    return 0.0;
}

/** Every configuration an independent sweep of @p spec simulates up
 *  front: production, stock, and each candidate arm. */
std::vector<KnobConfig>
sweepConfigs(const InputSpec &specIn, const WorkloadProfile &profile,
             const PlatformSpec &platform)
{
    InputSpec spec = specIn;
    spec.normalize();
    KnobConfig production = productionConfig(platform, profile);
    std::vector<KnobConfig> configs{production,
                                    stockConfig(platform, profile)};
    for (const KnobPlan &plan :
         buildTestPlan(spec, platform, profile).knobs) {
        for (const KnobValue &value : plan.values) {
            KnobConfig candidate = production;
            value.applyTo(candidate);
            configs.push_back(candidate);
        }
    }
    return configs;
}

/** Add the A/B layer's counts from @p reports to @p layers. */
void
addAbLayer(const std::vector<UskuReport> &reports, Layers &layers)
{
    double accepted = 0, rejected = 0, dropped = 0;
    for (const UskuReport &report : reports) {
        layers["core.ab_comparisons"] +=
            static_cast<double>(report.abComparisons);
        layers["core.arm_pulls"] +=
            metricValue(report.metrics, "sweep.arm_pulls");
        accepted += metricValue(report.metrics, "ab.samples_accepted");
        rejected += metricValue(report.metrics, "ab.samples_rejected");
        dropped += metricValue(report.metrics, "ab.samples_dropped");
    }
    layers["core.ab_samples"] += accepted;
    double attempted = accepted + rejected + dropped;
    layers["core.sample_yield"] = attempted > 0 ? accepted / attempted : 0;
}

std::string
shortTargetName(const TuneTarget &target)
{
    // Metric names allow no ':'; feed1 runs on the far-memory SKU.
    return target.spec.platform == "skylake18cxl"
               ? target.spec.microservice + "-cxl"
               : target.spec.microservice;
}

// ---------------------------------------------------------------------
// The simulator rows and the per-service probe shared by every traced
// run.

struct SimRow
{
    std::string name;
    const WorkloadProfile *profile;
    const PlatformSpec *platform;
    std::uint64_t seed;
};

std::vector<SimRow>
simRows(std::uint64_t seed)
{
    std::vector<SimRow> rows;
    for (const WorkloadProfile *profile : allMicroservices()) {
        rows.push_back({profile->name, profile,
                        &platformByName(profile->defaultPlatform), 0});
    }
    rows.push_back({"feed1-cxl", &feed1Profile(), &skylake18cxl(), 0});
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i].seed = deriveSeed(seed, 100 + i);
    return rows;
}

CounterSet
simulateRow(const SimRow &row, SimOptions options)
{
    options.seed = row.seed;
    return simulateService(*row.profile, *row.platform,
                           productionConfig(*row.platform, *row.profile),
                           options);
}

/**
 * Per-service simulator numbers: host ns per simulated instruction at
 * the characterize windows, the fixed cost of a 1 000-instruction call,
 * the host-time share of foreign-core interference, and the modelled
 * event rates of the rows' CounterSets.  @p rowSec and @p counters hold
 * full-window calls already made (characterize's traced unit); rows
 * missing from them are simulated here.  Returns the full-window
 * CounterSets under characterize's output names, so that every traced
 * run checks them against characterize's reference digests.
 */
Outputs
simProbe(const std::vector<SimRow> &rows, std::map<std::string, double> rowSec,
         std::map<std::string, CounterSet> counters, Layers &layers,
         SpanLog *spans)
{
    const double insns = windowMinsts(kCharacterizeWindows) * 1e6;
    for (const SimRow &row : rows) {
        if (!rowSec.count(row.name)) {
            BenchSpan span(spans, "probe.simulate");
            double t0 = nowSec();
            counters[row.name] = simulateRow(row, kCharacterizeWindows);
            rowSec[row.name] = nowSec() - t0;
        }
        layers["sim.ns_per_insn." + row.name] =
            rowSec[row.name] / insns * 1e9;

        std::vector<double> fixed;
        for (int rep = 0; rep < 3; ++rep) {
            BenchSpan span(spans, "probe.fixed_cost");
            double t0 = nowSec();
            simulateRow(row, windows(0, 1000));
            fixed.push_back((nowSec() - t0) * 1e3);
        }
        layers["sim.fixed_cost_ms." + row.name] = median(fixed);

        if (row.name == "web" || row.name == "ads2") {
            // Interleaved pairs with and without interference, so both
            // sides see the same host; median of three each.
            SimOptions quiet = kCharacterizeWindows;
            quiet.disableInterference = true;
            std::vector<double> with, without;
            for (int rep = 0; rep < 3; ++rep) {
                BenchSpan span(spans, "probe.interference");
                double t0 = nowSec();
                simulateRow(row, kCharacterizeWindows);
                double t1 = nowSec();
                simulateRow(row, quiet);
                with.push_back(t1 - t0);
                without.push_back(nowSec() - t1);
            }
            layers["sim.interference_share." + row.name] =
                1.0 - median(without) / median(with);
        }
    }

    // Modelled hardware events over all rows, per kilo-instruction.
    // Simulated, not host, numbers: a speed-only change keeps them
    // bit-identical.
    double insn = 0, cycles = 0;
    std::map<std::string, double> events;
    for (const auto &[name, c] : counters) {
        insn += static_cast<double>(c.instructions);
        cycles += c.cycles;
        events["cache.l1i_mpki"] += c.l1i.totalMisses();
        events["cache.l1d_mpki"] += c.l1d.totalMisses();
        events["cache.l2_mpki"] += c.l2.totalMisses();
        events["cache.llc_mpki"] += c.llc.totalMisses();
        events["cache.llc_accesses_pki"] += c.llc.totalAccesses();
        events["tlb.itlb_walks_pki"] += c.itlbWalks;
        events["tlb.dtlb_walks_pki"] += c.dtlbWalks;
        events["prefetch.dram_fills_pki"] += c.dramPrefetchFills;
        events["mem.dram_demand_fills_pki"] += c.dramDemandFills;
        events["sim.btb_mpki"] += c.btbMisses;
        events["os.context_switches_pki"] += c.contextSwitches;
    }
    for (const auto &[name, count] : events)
        layers[name] = insn > 0 ? count * 1000.0 / insn : 0.0;
    layers["arch.ipc"] = cycles > 0 ? insn / cycles : 0.0;

    Outputs outputs;
    for (const auto &[name, c] : counters)
        outputs["characterize/" + name] = serializeCounters(c);
    return outputs;
}

/** Each characterize-window CounterSet in @p outputs retired exactly
 *  its window. */
void
checkWindowsRetired(const Outputs &outputs, CheckLedger &checks)
{
    std::string expected =
        "instructions=" +
        std::to_string(kCharacterizeWindows.measureInstructions) + "\n";
    for (const auto &[name, bytes] : outputs) {
        checks.expect(bytes.rfind(expected, 0) == 0,
                      "characterize.window_retired", name);
    }
}

// ---------------------------------------------------------------------
// Workloads.

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One set-up repetition: build inputs, warm up (and for
     *  replay_warm, cold-fill the cache). */
    virtual void setUp() = 0;

    /**
     * One unit of work.  With @p layers non-null this is the traced
     * unit: it fills @p layers and wraps calls into each layer in spans
     * on @p spans, which may be null (the same path without spans).
     */
    virtual UnitResult runUnit(SpanLog *spans, Layers *layers) = 0;

    /** Checks on one unit's outputs beyond determinism and digests. */
    virtual void checkUnit(const UnitResult &, CheckLedger &) {}

    /** Per-layer numbers measured outside the traced unit; returns
     *  the probe's own outputs, checked like a unit's. */
    virtual Outputs probeLayers(Layers &, SpanLog *) = 0;
};

class Characterize : public Workload
{
  public:
    explicit Characterize(std::uint64_t seed) : seed_(seed) {}

    void
    setUp() override
    {
        rows_ = simRows(seed_);
        for (const SimRow &row : rows_)
            simulateRow(row, kWarmupWindows);
    }

    UnitResult
    runUnit(SpanLog *spans, Layers *layers) override
    {
        UnitResult result;
        std::map<std::string, double> rowSec;
        std::map<std::string, CounterSet> counters;
        for (const SimRow &row : rows_) {
            double t0 = nowSec();
            CounterSet c;
            {
                BenchSpan span(spans, "sim.simulate");
                c = simulateRow(row, kCharacterizeWindows);
            }
            rowSec[row.name] = nowSec() - t0;
            result.outputs["characterize/" + row.name] =
                serializeCounters(c);
            result.simMinsts += windowMinsts(kCharacterizeWindows);
            if (layers)
                counters[row.name] = c;
        }
        if (layers) {
            std::vector<double> ms;
            for (const auto &[name, sec] : rowSec)
                ms.push_back(sec * 1e3);
            (*layers)["sim.calls"] = static_cast<double>(rows_.size());
            (*layers)["sim.minsts"] = result.simMinsts;
            (*layers)["sim.busy_s"] = spanTotal(spans, "sim.simulate");
            (*layers)["sim.call_ms_p50"] = quantile(ms, 0.5);
            (*layers)["sim.call_ms_p90"] = quantile(ms, 0.9);
            rowSec_ = rowSec;
            counters_ = counters;
        }
        return result;
    }

    void
    checkUnit(const UnitResult &result, CheckLedger &checks) override
    {
        checkWindowsRetired(result.outputs, checks);
    }

    Outputs
    probeLayers(Layers &layers, SpanLog *spans) override
    {
        return simProbe(rows_, rowSec_, counters_, layers, spans);
    }

  private:
    std::uint64_t seed_;
    std::vector<SimRow> rows_;
    std::map<std::string, double> rowSec_;
    std::map<std::string, CounterSet> counters_;
};

/** Empty (or create) directory @p path; returns it. */
std::string
freshDir(const std::string &path)
{
    fs::remove_all(path);
    fs::create_directories(path);
    return path;
}

class TuneWeb : public Workload
{
  public:
    TuneWeb(std::uint64_t seed, std::string workdir)
        : seed_(seed), envSeed_(deriveSeed(seed, 1)),
          workdir_(std::move(workdir))
    {
    }

    void
    setUp() override
    {
        spec_ = InputSpec{};
        spec_.microservice = "web";
        spec_.platform = "skylake18";
        spec_.sweep = SweepMode::Independent;
        spec_.seed = envSeed_;
        spec_.normalize();

        InputSpec warm = spec_;
        warm.knobs = {KnobId::Thp};
        ProductionEnvironment env(webProfile(), skylake18(), envSeed_,
                                  kWarmupWindows);
        UskuOptions options;
        options.cacheDir = freshDir(workdir_ + "/setup-cache");
        Usku(env, options).run(warm);
    }

    UnitResult
    runUnit(SpanLog *spans, Layers *layers) override
    {
        UnitResult result;
        cacheDir_ = freshDir(workdir_ + "/cache-" + std::to_string(unit_++));
        ProductionEnvironment env(webProfile(), skylake18(), envSeed_,
                                  kTuneWindows);
        std::size_t prefilled = 0;
        if (layers) {
            // The sim/core split, made from outside: simulate every
            // configuration the sweep will ask for, then tune against
            // the warm truth cache.
            BenchSpan phase(spans, "sim.prefill");
            for (const KnobConfig &config :
                 sweepConfigs(spec_, webProfile(), skylake18())) {
                BenchSpan span(spans, "sim.simulate");
                env.counters(config);
            }
            prefilled = env.configsSimulated();
        }
        UskuOptions options;
        options.cacheDir = cacheDir_;
        UskuReport report;
        {
            BenchSpan span(spans, "core.usku_run");
            report = Usku(env, options).run(spec_);
        }
        result.outputs["tune_web/report"] = report.toJson().dump(2);
        result.simMinsts = static_cast<double>(env.configsSimulated()) *
                           windowMinsts(kTuneWindows);
        configsEvaluated_ = report.configsEvaluated;
        configsSimulated_ = env.configsSimulated();
        cacheHits_ = report.cacheHits;

        if (layers) {
            Layers &l = *layers;
            std::vector<double> ms;
            for (double sec : spanDurations(spans, "sim.simulate"))
                ms.push_back(sec * 1e3);
            l["sim.calls"] = static_cast<double>(env.configsSimulated());
            l["sim.minsts"] = result.simMinsts;
            l["sim.busy_s"] = spanTotal(spans, "sim.prefill");
            l["sim.call_ms_p50"] = quantile(ms, 0.5);
            l["sim.call_ms_p90"] = quantile(ms, 0.9);
            l["sim.unsplit_calls"] =
                static_cast<double>(env.configsSimulated() - prefilled);
            l["core.measure_s"] = spanTotal(spans, "core.usku_run");
            l["core.tune_s.web"] = l["core.measure_s"];
            // A cold run measures every comparison and validation chunk.
            l["core.cache_misses"] =
                static_cast<double>(report.abComparisons - report.cacheHits) +
                metricValue(report.metrics, "validation.chunks");
            addAbLayer({report}, l);
        }
        return result;
    }

    void
    checkUnit(const UnitResult &, CheckLedger &checks) override
    {
        checks.expect(configsSimulated_ == configsEvaluated_,
                      "tune_web.one_simulation_per_config");
        checks.expect(cacheHits_ == 0, "tune_web.cold_cache_measures");
        checks.expect(directoryBytes(cacheDir_) > 0,
                      "tune_web.cache_written");
    }

    Outputs
    probeLayers(Layers &layers, SpanLog *spans) override
    {
        // Cache layer from outside: load what the traced unit stored,
        // then store it again into an empty directory.
        ProductionEnvironment env(webProfile(), skylake18(), envSeed_,
                                  kTuneWindows);
        std::string context = abCacheContext(env, spec_, RobustnessPolicy{});
        std::unordered_map<std::string, ABTestResult> memo;
        ValidationCache validation;
        double t0 = nowSec();
        {
            BenchSpan span(spans, "core.cache_load");
            loadAbCache(cacheDir_, context, memo, &validation);
        }
        layers["core.cache_load_ms"] = (nowSec() - t0) * 1e3;
        std::string storeDir = freshDir(workdir_ + "/store-probe");
        t0 = nowSec();
        {
            BenchSpan span(spans, "core.cache_store");
            storeAbCache(storeDir, context, memo, &validation);
        }
        layers["core.cache_store_ms"] = (nowSec() - t0) * 1e3;
        layers["core.cache_bytes"] =
            static_cast<double>(directoryBytes(cacheDir_));

        std::string text = readFile(abCacheFilePath(cacheDir_, context));
        t0 = nowSec();
        {
            BenchSpan span(spans, "util.json_parse");
            Json::parse(text);
        }
        layers["util.json_parse_ms"] = (nowSec() - t0) * 1e3;
        return simProbe(simRows(seed_), {}, {}, layers, spans);
    }

  private:
    std::uint64_t seed_;
    std::uint64_t envSeed_;
    std::string workdir_;
    InputSpec spec_;
    std::string cacheDir_;
    int unit_ = 0;
    std::uint64_t configsEvaluated_ = 0;
    std::uint64_t configsSimulated_ = 0;
    std::uint64_t cacheHits_ = 0;
};

/** The three fleet targets with their specs derived from @p seed. */
std::vector<TuneTarget>
fleetTargets(std::uint64_t seed, const SimOptions &simOpts)
{
    std::vector<TuneTarget> targets =
        TuneTarget::parseList(kFleetTargets, simOpts);
    for (TuneTarget &target : targets) {
        target.spec.sweep = SweepMode::Independent;
        target.spec.seed = deriveSeed(seed, 2);
    }
    return targets;
}

FleetOrchestratorOptions
fleetOptions(std::uint64_t seed, unsigned jobs,
             const std::string &cacheDir = "")
{
    FleetOrchestratorOptions options;
    options.jobs = jobs;
    options.faults = FaultPlan::fromSpec("moderate");
    options.faultSeed = deriveSeed(seed, 3);
    options.search = "race";
    options.cacheDir = cacheDir;
    return options;
}

/**
 * replay_warm tunes the same targets with the same search but benign:
 * under faults the cold fill that every set-up repeats costs twice as
 * long, which the run budget cannot carry.  Its rollouts run under the
 * moderate plan.
 */
FleetOrchestratorOptions
replayOptions(std::uint64_t seed, unsigned jobs, const std::string &cacheDir)
{
    FleetOrchestratorOptions options = fleetOptions(seed, jobs, cacheDir);
    options.faults = FaultPlan{};
    return options;
}

/**
 * What FleetOrchestrator::tuneAll does, spelled out through Usku's
 * public options so the benchmark can own each target's environment:
 * simulate every configuration in @p prefill on the pool first (the
 * sim phase), then tune every target on its own tuning thread over the
 * same pool (the core phase).  The reports must equal tuneAll's byte
 * for byte; the repeat-identity check holds them to it.
 */
std::vector<UskuReport>
tracedTuneAll(const std::vector<TuneTarget> &targets,
              const FleetOrchestratorOptions &fleet,
              const std::vector<std::vector<KnobConfig>> &prefill,
              SpanLog *spans, Layers &layers)
{
    std::unique_ptr<ThreadPool> pool;
    if (fleet.jobs > 1)
        pool = std::make_unique<ThreadPool>(fleet.jobs);
    std::vector<std::unique_ptr<ProductionEnvironment>> envs;
    std::vector<std::pair<std::size_t, KnobConfig>> jobs;
    for (std::size_t i = 0; i < targets.size(); ++i) {
        envs.push_back(std::make_unique<ProductionEnvironment>(
            serviceByName(targets[i].spec.microservice),
            platformByName(targets[i].spec.platform),
            targets[i].spec.seed, targets[i].simOpts));
        for (const KnobConfig &config : prefill[i])
            jobs.emplace_back(i, config);
    }

    double t0 = nowSec();
    {
        BenchSpan phase(spans, "sim.prefill");
        auto simulate = [&](std::size_t j) {
            BenchSpan span(spans, "sim.simulate");
            envs[jobs[j].first]->counters(jobs[j].second);
        };
        if (pool) {
            pool->parallelFor(jobs.size(), simulate);
        } else {
            for (std::size_t j = 0; j < jobs.size(); ++j)
                simulate(j);
        }
    }
    double simWall = nowSec() - t0;
    std::vector<std::size_t> prefilled;
    for (const auto &env : envs)
        prefilled.push_back(env->configsSimulated());

    std::vector<UskuReport> reports(targets.size());
    std::vector<std::exception_ptr> errors(targets.size());
    auto tuneOne = [&](std::size_t i) {
        try {
            InputSpec spec = targets[i].spec;
            ToolOptions overrides;
            overrides.search = fleet.search;
            overrides.confidence = fleet.confidence;
            spec.applySearchOverrides(overrides);
            UskuOptions options;
            options.pool = pool.get();
            options.jobs = 1;
            options.robustness = fleet.robustness;
            options.faults = fleet.faults;
            options.faultSeed = fleet.faultSeed;
            options.cacheDir = fleet.cacheDir;
            options.traceTag = static_cast<std::uint64_t>(i) + 1;
            BenchSpan span(spans,
                           "core.tune." + shortTargetName(targets[i]));
            reports[i] = Usku(*envs[i], options).run(spec);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    t0 = nowSec();
    {
        BenchSpan phase(spans, "core.tune");
        if (pool) {
            std::vector<std::thread> tuners;
            for (std::size_t i = 0; i < targets.size(); ++i)
                tuners.emplace_back(tuneOne, i);
            for (std::thread &tuner : tuners)
                tuner.join();
        } else {
            for (std::size_t i = 0; i < targets.size(); ++i)
                tuneOne(i);
        }
    }
    double coreWall = nowSec() - t0;
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }

    std::vector<double> ms;
    for (double sec : spanDurations(spans, "sim.simulate"))
        ms.push_back(sec * 1e3);
    double calls = 0, unsplit = 0;
    for (std::size_t i = 0; i < envs.size(); ++i) {
        calls += static_cast<double>(envs[i]->configsSimulated());
        unsplit += static_cast<double>(envs[i]->configsSimulated() -
                                       prefilled[i]);
        layers["core.tune_s." + shortTargetName(targets[i])] =
            spanTotal(spans, "core.tune." + shortTargetName(targets[i]));
    }
    layers["sim.calls"] += calls;
    layers["sim.minsts"] += calls * windowMinsts(targets[0].simOpts);
    layers["sim.busy_s"] += simWall;
    layers["sim.call_ms_p50"] = quantile(ms, 0.5);
    layers["sim.call_ms_p90"] = quantile(ms, 0.9);
    layers["sim.unsplit_calls"] += unsplit;
    layers["core.measure_s"] += coreWall;
    addAbLayer(reports, layers);
    if (pool) {
        ThreadPoolStats stats = pool->stats();
        layers["util.pool_tasks"] = static_cast<double>(stats.executed);
        layers["util.pool_stolen"] = static_cast<double>(stats.stolen);
    }
    return reports;
}

class TuneFleet : public Workload
{
  public:
    TuneFleet(std::uint64_t seed, unsigned jobs)
        : seed_(seed), jobs_(jobs)
    {
    }

    void
    setUp() override
    {
        targets_ = fleetTargets(seed_, kTuneWindows);
        std::vector<TuneTarget> warm = fleetTargets(seed_, kWarmupWindows);
        for (TuneTarget &target : warm)
            target.spec.knobs = {KnobId::Thp};
        FleetOrchestrator(fleetOptions(seed_, jobs_)).tuneAll(warm);
    }

    UnitResult
    runUnit(SpanLog *spans, Layers *layers) override
    {
        std::vector<UskuReport> reports;
        if (layers) {
            std::vector<std::vector<KnobConfig>> prefill;
            for (const TuneTarget &target : targets_) {
                prefill.push_back(sweepConfigs(
                    target.spec, serviceByName(target.spec.microservice),
                    platformByName(target.spec.platform)));
            }
            double cpu0 = processCpuSec(), t0 = nowSec();
            reports = tracedTuneAll(targets_, fleetOptions(seed_, jobs_),
                                    prefill, spans, *layers);
            tracedSims_ = (*layers)["sim.calls"];
            (*layers)["util.pool_busy_share"] =
                (processCpuSec() - cpu0) / ((nowSec() - t0) * jobs_);
        } else {
            reports = FleetOrchestrator(fleetOptions(seed_, jobs_))
                          .tuneAll(targets_)
                          .reports;
        }
        UnitResult result;
        countedSims_ = 0;
        for (std::size_t i = 0; i < targets_.size(); ++i) {
            result.outputs["tune_fleet/" + shortTargetName(targets_[i])] =
                reports[i].toJson().dump(2);
            countedSims_ += static_cast<double>(reports[i].configsEvaluated);
        }
        result.simMinsts = countedSims_ * windowMinsts(kTuneWindows);
        return result;
    }

    void
    checkUnit(const UnitResult &, CheckLedger &checks) override
    {
        // tuneAll's environments are its own, so untraced units count
        // one simulation per configuration a report evaluated; the
        // traced unit owns the environments and checks that count.
        if (tracedSims_ >= 0)
            checks.expect(tracedSims_ == countedSims_,
                          "tune_fleet.simulation_count");
        tracedSims_ = -1;
    }

    Outputs
    probeLayers(Layers &layers, SpanLog *spans) override
    {
        return simProbe(simRows(seed_), {}, {}, layers, spans);
    }

  private:
    std::uint64_t seed_;
    unsigned jobs_;
    std::vector<TuneTarget> targets_;
    double countedSims_ = 0;
    double tracedSims_ = -1;
};

class ReplayWarm : public Workload
{
  public:
    ReplayWarm(std::uint64_t seed, unsigned jobs, std::string workdir)
        : seed_(seed), jobs_(jobs), workdir_(std::move(workdir))
    {
    }

    void
    setUp() override
    {
        targets_ = fleetTargets(seed_, kReplayWindows);
        cacheDir_ = freshDir(workdir_ + "/cache");
        // One target at a time on the pool: each target's cache file
        // is independent, and filling them in turn keeps one batch of
        // simulations in memory at once.  Filling all three at once
        // halves set-up but leaves about 30 MiB of fragmented heap
        // resident, which the timed units' memory peak would carry.
        FleetOrchestrator orchestrator(
            replayOptions(seed_, jobs_, cacheDir_));
        coldTuned_.clear();
        coldReports_.clear();
        for (const TuneTarget &target : targets_) {
            coldTuned_.push_back(orchestrator.tuneAll({target}).reports[0]);
            coldReports_.push_back(coldTuned_.back().toJson().dump(2));
        }
    }

    UnitResult
    runUnit(SpanLog *spans, Layers *layers) override
    {
        UnitResult result;
        FleetOrchestratorOptions options = replayOptions(seed_, 1, cacheDir_);
        std::vector<UskuReport> reports;
        if (layers) {
            // No prefill: the environments count what the cache-served
            // replay simulates by itself, which checks countedSims_.
            // Its simulations stay inside core.measure_s.
            reports = tracedTuneAll(
                targets_, options,
                std::vector<std::vector<KnobConfig>>(targets_.size()), spans,
                *layers);
            tracedSims_ = (*layers)["sim.calls"];
        } else {
            reports = FleetOrchestrator(options).tuneAll(targets_).reports;
        }
        hits_.clear();
        pulls_.clear();
        countedSims_ = 0;
        FleetTuneResult tuned;
        for (std::size_t i = 0; i < targets_.size(); ++i) {
            result.outputs["replay_warm/report/" +
                           shortTargetName(targets_[i])] =
                reports[i].toJson().dump(2);
            // A fully cache-served run simulates only the configs its
            // report prices; the traced unit checks this count.
            const PlatformSpec &platform =
                platformByName(targets_[i].spec.platform);
            std::set<std::string> priced;
            for (const KnobConfig *config :
                 {&reports[i].production, &reports[i].stock,
                  &reports[i].softSku})
                priced.insert(config->canonical(platform).describe());
            countedSims_ += static_cast<double>(priced.size());
            hits_.push_back(reports[i].cacheHits);
            pulls_.push_back(static_cast<std::uint64_t>(
                metricValue(reports[i].metrics, "sweep.arm_pulls")));
            tuned.reports.push_back(std::move(reports[i]));
        }
        // The rollouts' simulations run in environments rolloutAll
        // owns, so they are not counted.
        result.simMinsts = countedSims_ * windowMinsts(kReplayWindows);

        // Deploy every winner as tune_fleet --rollout=64 --domains=8x2
        // does: one slice per target under the moderate plan, one shared
        // ODS store, one simulated clock.
        FleetRolloutPlan plan;
        plan.servers = 64;
        plan.topology = FleetTopology::fromSpec("8x2");
        plan.policy = RolloutPolicy::blastRadiusAware();
        ods_ = std::make_unique<OdsStore>();
        if (layers) {
            Tracer::global().clear();
            Tracer::global().enable();
        }
        {
            BenchSpan span(spans, "sim.rollout");
            outcomes_ = FleetOrchestrator(fleetOptions(seed_, 1))
                            .rolloutAll(targets_, tuned, plan, *ods_);
        }

        // The dashboard files, as tune_fleet --emit writes them.
        std::string emitDir = freshDir(workdir_ + "/emit");
        for (std::size_t i = 0; i < targets_.size(); ++i) {
            const TuneTarget &target = targets_[i];
            const FleetRolloutOutcome &outcome = outcomes_[i];
            Json doc = Json::object();
            doc.set("schema_version", Json(kReportSchemaVersion));
            doc.set("target", Json(target.name()));
            doc.set("report", tuned.reports[i].toJson());
            doc.set("rollout", outcome.rollout.toJson());
            doc.set("health", outcome.health);
            std::string path;
            {
                BenchSpan span(spans, "core.report_emit");
                path = emitTargetReport(emitDir, target.spec.microservice,
                                        target.spec.platform, doc);
            }
            std::string name = shortTargetName(target);
            result.outputs["replay_warm/rollout/" + name] =
                outcome.rollout.toJson().dump(2);
            emitted_[name] = {path, doc.dump(2)};

            if (layers) {
                Layers &l = *layers;
                l["sim.rollout_resumes"] += outcome.rollout.resumes;
                l["sim.rollout_rollbacks"] += outcome.rollout.wavesRolledBack;
                l["sim.rollout_converted"] += outcome.rollout.serversConverted;
                l["core.report_bytes"] +=
                    static_cast<double>(fs::file_size(path));
            }
        }

        if (layers) {
            Layers &l = *layers;
            double waves = 0;
            for (const SpanRecord &span : Tracer::global().sortedSpans())
                waves += span.name == "rollout.wave" ? 1 : 0;
            Tracer::global().disable();
            Tracer::global().clear();
            OdsStoreStats stats = ods_->stats();
            l["sim.rollout_waves"] = waves;
            l["sim.rollout_s"] = spanTotal(spans, "sim.rollout");
            l["telemetry.ods_points"] = static_cast<double>(stats.rawPoints);
            l["telemetry.ods_series"] = static_cast<double>(stats.series);
            l["core.report_emit_ms"] =
                spanTotal(spans, "core.report_emit") * 1e3;
        }
        return result;
    }

    void
    checkUnit(const UnitResult &result, CheckLedger &checks) override
    {
        if (tracedSims_ >= 0)
            checks.expect(tracedSims_ == countedSims_,
                          "replay_warm.simulation_count");
        tracedSims_ = -1;
        for (std::size_t i = 0; i < targets_.size(); ++i) {
            std::string name = shortTargetName(targets_[i]);
            checks.expect(result.outputs.at("replay_warm/report/" + name) ==
                              coldReports_[i],
                          "replay_warm.report_matches_cold", name);
            checks.expect(hits_[i] == pulls_[i] && pulls_[i] > 0,
                          "replay_warm.every_pull_cache_hit", name);
            checks.expect(missingChunks(i) == 0,
                          "replay_warm.every_chunk_cached", name);
            const auto &[path, text] = emitted_.at(name);
            auto [doc, ok] = Json::parse(readFile(path));
            checks.expect(ok && doc.dump(2) == text,
                          "replay_warm.emitted_report_readback", name);
        }
    }

    Outputs
    probeLayers(Layers &layers, SpanLog *spans) override
    {
        // Cache layer from outside: load each target's cache, then
        // store it again into an empty directory, as the set-up's cold
        // fill writes it.
        double loadMs = 0, storeMs = 0, parseMs = 0, hits = 0, misses = 0;
        std::string storeDir = freshDir(workdir_ + "/store-probe");
        for (std::size_t i = 0; i < targets_.size(); ++i) {
            std::string context = contextFor(i);
            std::unordered_map<std::string, ABTestResult> memo;
            ValidationCache validation;
            double t0 = nowSec();
            {
                BenchSpan span(spans, "core.cache_load");
                loadAbCache(cacheDir_, context, memo, &validation);
            }
            loadMs += (nowSec() - t0) * 1e3;
            t0 = nowSec();
            {
                BenchSpan span(spans, "core.cache_store");
                storeAbCache(storeDir, context, memo, &validation);
            }
            storeMs += (nowSec() - t0) * 1e3;
            std::string text = readFile(abCacheFilePath(cacheDir_, context));
            t0 = nowSec();
            {
                BenchSpan span(spans, "util.json_parse");
                Json::parse(text);
            }
            parseMs += (nowSec() - t0) * 1e3;
            std::uint64_t chunks = validationChunks(i);
            std::uint64_t missing = missingChunks(i);
            hits += static_cast<double>(hits_[i] + chunks - missing);
            misses += static_cast<double>(pulls_[i] - std::min(hits_[i],
                                                               pulls_[i]) +
                                          missing);
        }
        layers["core.cache_load_ms"] = loadMs;
        layers["core.cache_store_ms"] = storeMs;
        layers["util.json_parse_ms"] = parseMs;
        layers["core.cache_hits"] = hits;
        layers["core.cache_misses"] = misses;
        layers["core.cache_bytes"] =
            static_cast<double>(directoryBytes(cacheDir_));

        // The health view over the store the last unit's rollouts
        // wrote, one report per rollout window, as rolloutAll makes them.
        double t0 = nowSec();
        {
            BenchSpan span(spans, "telemetry.health_report");
            FleetHealthView view(*ods_);
            for (std::size_t i = 0; i < targets_.size(); ++i) {
                view.report(targets_[i].spec.microservice,
                            outcomes_[i].startedAtSec,
                            outcomes_[i].rollout.finishedAtSec);
            }
        }
        layers["telemetry.health_report_ms"] = (nowSec() - t0) * 1e3;
        return simProbe(simRows(seed_), {}, {}, layers, spans);
    }

  private:
    /** The cache context target @p i's replay reads under. */
    std::string
    contextFor(std::size_t i) const
    {
        const TuneTarget &target = targets_[i];
        ProductionEnvironment env(serviceByName(target.spec.microservice),
                                  platformByName(target.spec.platform),
                                  target.spec.seed, target.simOpts);
        InputSpec spec = target.spec;
        ToolOptions overrides;
        overrides.search = replayOptions(seed_, 1, cacheDir_).search;
        spec.applySearchOverrides(overrides);
        spec.normalize();
        return abCacheContext(env, spec, RobustnessPolicy{});
    }

    std::uint64_t
    validationChunks(std::size_t i) const
    {
        return static_cast<std::uint64_t>(
            metricValue(coldTuned_[i].metrics, "validation.chunks"));
    }

    /** Validation chunks of target @p i's soft SKU absent from the
     *  cache the replay reads. */
    std::uint64_t
    missingChunks(std::size_t i) const
    {
        std::unordered_map<std::string, ABTestResult> memo;
        ValidationCache validation;
        loadAbCache(cacheDir_, contextFor(i), memo, &validation);
        const UskuReport &cold = coldTuned_[i];
        const PlatformSpec &platform =
            platformByName(targets_[i].spec.platform);
        std::uint64_t missing = 0;
        for (std::uint64_t c = 0; c < validationChunks(i); ++c) {
            std::string key = validationChunkKey(
                platform, cold.softSku, cold.production,
                cold.spec.validationDurationSec, 60.0, c);
            missing += validation.count(key) ? 0 : 1;
        }
        return validationChunks(i) == 0 ? 1 : missing;
    }

    std::uint64_t seed_;
    unsigned jobs_;
    std::string workdir_;
    std::vector<TuneTarget> targets_;
    std::string cacheDir_;
    std::vector<std::string> coldReports_;
    std::vector<UskuReport> coldTuned_;
    std::vector<std::uint64_t> hits_;
    std::vector<std::uint64_t> pulls_;
    double countedSims_ = 0;
    double tracedSims_ = -1;
    std::unique_ptr<OdsStore> ods_;
    std::vector<FleetRolloutOutcome> outcomes_;
    std::map<std::string, std::pair<std::string, std::string>> emitted_;
};

std::unique_ptr<Workload>
makeWorkload(const Args &args, const std::string &workdir)
{
    // The fleet pool follows the host: nproc, capped at 4.
    unsigned jobs = std::min(4u, availableCpus());
    if (args.workload == "characterize")
        return std::make_unique<Characterize>(args.seed);
    if (args.workload == "tune_web")
        return std::make_unique<TuneWeb>(args.seed, workdir);
    if (args.workload == "tune_fleet")
        return std::make_unique<TuneFleet>(args.seed, jobs);
    if (args.workload == "replay_warm")
        return std::make_unique<ReplayWarm>(args.seed, jobs, workdir);
    fatal("unknown workload '%s' (characterize, tune_web, tune_fleet, "
          "replay_warm)",
          args.workload.c_str());
}

// ---------------------------------------------------------------------
// Result reporting.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Units of the per-layer metrics; anything unlisted is a count. */
std::string
layerUnit(const std::string &name)
{
    auto ends = [&](const std::string &suffix) {
        return name.size() >= suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
    };
    if (name.find("ns_per_insn") != std::string::npos)
        return "ns";
    if (name.find("_ms") != std::string::npos)
        return "ms";
    if (ends("_s") || name.find(".tune_s.") != std::string::npos)
        return "s";
    if (ends("_pct"))
        return "%";
    if (ends("_pki") || ends("_mpki"))
        return "1/kinsn";
    if (name.find("share") != std::string::npos || ends("yield") ||
        name == "arch.ipc")
        return "ratio";
    if (ends("_bytes"))
        return "bytes";
    if (name == "sim.minsts")
        return "Minsn";
    return "count";
}

/** Every per-layer metric a traced run reports, zero where the
 *  workload does not exercise the layer. */
std::vector<std::string>
layerNames()
{
    std::vector<std::string> names = {
        "sim.calls", "sim.minsts", "sim.busy_s", "sim.unsplit_calls",
        "sim.call_ms_p50", "sim.call_ms_p90"};
    for (const SimRow &row : simRows(kDigestSeed)) {
        names.push_back("sim.ns_per_insn." + row.name);
        names.push_back("sim.fixed_cost_ms." + row.name);
    }
    for (const char *name :
         {"sim.interference_share.web", "sim.interference_share.ads2",
          "cache.l1i_mpki", "cache.l1d_mpki", "cache.l2_mpki",
          "cache.llc_mpki", "cache.llc_accesses_pki", "tlb.itlb_walks_pki",
          "tlb.dtlb_walks_pki", "prefetch.dram_fills_pki",
          "mem.dram_demand_fills_pki", "sim.btb_mpki",
          "os.context_switches_pki", "arch.ipc", "core.ab_comparisons",
          "core.ab_samples", "core.arm_pulls", "core.sample_yield",
          "core.measure_s", "core.tune_s.web", "core.tune_s.ads2",
          "core.tune_s.feed1-cxl", "core.cache_store_ms",
          "core.cache_load_ms", "core.cache_hits", "core.cache_misses",
          "core.cache_bytes", "core.report_emit_ms", "core.report_bytes",
          "util.json_parse_ms", "util.pool_busy_share", "util.pool_tasks",
          "util.pool_stolen", "sim.rollout_s", "sim.rollout_waves",
          "sim.rollout_resumes", "sim.rollout_rollbacks",
          "sim.rollout_converted", "telemetry.ods_points",
          "telemetry.ods_series", "telemetry.health_report_ms",
          "bench.trace_overhead_pct", "bench.split_residual_s",
          "bench.host_probe_start_ms", "bench.host_probe_end_ms"})
        names.push_back(name);
    return names;
}

void
printResult(const std::vector<Metric> &metrics, const CheckLedger &checks)
{
    std::printf("metrics:\n");
    for (const Metric &m : metrics)
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("checks (error_rate %.4g = %llu failed / %llu "
                "attempted):\n%s",
                checks.attempted()
                    ? static_cast<double>(checks.failed()) /
                          static_cast<double>(checks.attempted())
                    : 0.0,
                static_cast<unsigned long long>(checks.failed()),
                static_cast<unsigned long long>(checks.attempted()),
                checks.render().c_str());

    std::string line = "{\"correct\": ";
    line += checks.failed() == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(checks.attempted());
    line += ", \"failed\": " + std::to_string(checks.failed());
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        line += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

/** Reference digests for kDigestSeed: output name → digest. */
std::map<std::string, std::string>
loadReference(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::string error;
    auto [doc, ok] = Json::parse(readFile(path), &error);
    if (!ok || !doc.contains("digests"))
        return out;
    for (const auto &[name, value] : doc.at("digests").members())
        out[name] = value.asString();
    return out;
}

/**
 * One unit on the traced path, checked like a timed unit and against
 * the first timed unit's outputs; returns its wall time.
 */
double
runTracedUnit(Workload &workload, SpanLog *spans, Layers &layers,
              const Outputs &first, CheckLedger &checks)
{
    double t0 = nowSec();
    UnitResult unit;
    try {
        BenchSpan span(spans, "bench.unit");
        unit = workload.runUnit(spans, &layers);
    } catch (const std::exception &e) {
        checks.expect(false, "unit_completed", e.what());
    }
    double wall = nowSec() - t0;
    workload.checkUnit(unit, checks);
    for (const auto &[name, bytes] : unit.outputs) {
        auto it = first.find(name);
        checks.expect(it != first.end() && it->second == bytes,
                      "traced_unit_identical", name);
    }
    return wall;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    setLogLevel(LogLevel::Error);
    std::string workdir =
        args.workdir + "/" + args.workload + "-" + std::to_string(getpid());
    fs::create_directories(workdir);
    std::unique_ptr<Workload> workload = makeWorkload(args, workdir);

    if (args.printDigests) {
        workload->setUp();
        UnitResult unit = workload->runUnit(nullptr, nullptr);
        Json digests = Json::object();
        for (const auto &[name, bytes] : unit.outputs)
            digests.set(name, Json(digest(bytes)));
        std::printf("%s\n", digests.dump(2).c_str());
        fs::remove_all(workdir);
        return 0;
    }

    double probeStartMs = hostProbeMs();

    std::vector<double> setupSec;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        double t0 = nowSec();
        workload->setUp();
        setupSec.push_back(nowSec() - t0);
    }

    // The memory peak covers the timed units only: hand set-up's freed
    // heap back, then restart the kernel's high-water mark.
    CheckLedger checks;
    malloc_trim(0);
    checks.expect(resetPeakRss(), "peak_rss_reset");

    // The timed phase: whole units until the budget is spent.
    std::map<std::string, std::string> reference;
    if (args.seed == kDigestSeed)
        reference = loadReference(args.reference);
    Outputs first;
    std::vector<double> wallSec, cpuSec, minstsPerSec;
    double phaseStart = nowSec();
    do {
        double cpu0 = processCpuSec(), t0 = nowSec();
        UnitResult unit;
        try {
            unit = workload->runUnit(nullptr, nullptr);
        } catch (const std::exception &e) {
            checks.expect(false, "unit_completed", e.what());
            break;
        }
        double wall = nowSec() - t0;
        // Hand freed heap back between units so that one unit's
        // leftovers do not raise the next unit's memory peak.
        malloc_trim(0);
        wallSec.push_back(wall);
        cpuSec.push_back(processCpuSec() - cpu0);
        minstsPerSec.push_back(unit.simMinsts / wall);

        workload->checkUnit(unit, checks);
        checks.expect(!unit.outputs.empty(), "outputs_present");
        for (const auto &[name, bytes] : unit.outputs) {
            if (wallSec.size() == 1) {
                first[name] = bytes;
                if (args.seed == kDigestSeed) {
                    auto ref = reference.find(name);
                    checks.expect(ref != reference.end() &&
                                      ref->second == digest(bytes),
                                  "reference_digest", name);
                }
            } else {
                checks.expect(first[name] == bytes, "repeat_identical",
                              name);
            }
        }
        // Start another unit only if it is expected to end nearer the
        // budget than stopping now does, so a run lasts about
        // --seconds instead of overrunning it by up to a whole unit.
    } while (nowSec() - phaseStart + median(wallSec) / 2 < args.seconds);
    double peakMb = peakRssMb();
    double probeEndMs = hostProbeMs();

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"wall_s", median(wallSec), "s"},
            {"cpu_s", median(cpuSec), "s"},
            {"peak_rss_mb", peakMb, "MiB"},
            {"setup_s", median(setupSec), "s"},
            {"sim_minsts_per_s", median(minstsPerSec), "Minsn/s"},
        };
    } else {
        // The traced path twice, first without spans and then inside
        // them, so that the trace overhead compares one path with and
        // without spans; then the probes that time single layers from
        // outside.
        SpanLog spans;
        Layers layers;
        for (const std::string &name : layerNames())
            layers[name] = 0.0;
        Layers bare = layers;
        double bareWall =
            runTracedUnit(*workload, nullptr, bare, first, checks);
        double tracedWall =
            runTracedUnit(*workload, &spans, layers, first, checks);
        // The probe's full-window CounterSets are characterize's
        // outputs: checked against its digests, so the simulator's
        // results are checked on every workload.
        Outputs probed = workload->probeLayers(layers, &spans);
        checkWindowsRetired(probed, checks);
        checks.expect(!probed.empty(), "probe_outputs_present");
        for (const auto &[name, bytes] : probed) {
            if (args.seed == kDigestSeed) {
                auto ref = reference.find(name);
                checks.expect(ref != reference.end() &&
                                  ref->second == digest(bytes),
                              "probe_reference_digest", name);
            }
        }

        layers["bench.trace_overhead_pct"] =
            (tracedWall - bareWall) / bareWall * 100.0;
        double untraced = median(wallSec);
        if (layers["core.measure_s"] > 0.0) {
            layers["bench.split_residual_s"] =
                untraced - layers["sim.busy_s"] - layers["core.measure_s"];
        }
        layers["bench.host_probe_start_ms"] = probeStartMs;
        layers["bench.host_probe_end_ms"] = probeEndMs;
        for (const std::string &name : layerNames())
            metrics.push_back({name, layers[name], layerUnit(name)});
        std::string traceOut =
            args.workdir + "/trace-" + args.workload + ".json";
        if (!spans.writeChromeTrace(traceOut))
            warn("cannot write span trace to %s", traceOut.c_str());
        std::fprintf(stderr, "spans written to %s\n", traceOut.c_str());
    }
    std::fprintf(stderr,
                 "%zu unit(s) timed, median %.3f s; host probe %.1f ms at "
                 "start, %.1f ms at end\n",
                 wallSec.size(), median(wallSec), probeStartMs, probeEndMs);

    fs::remove_all(workdir);
    printResult(metrics, checks);
    return 0;
}

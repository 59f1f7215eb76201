#include "core/usku.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/ab_cache.hh"
#include "core/ab_test.hh"
#include "obs/trace.hh"
#include "services/services.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

/**
 * A live continued measurement window for one comparison (adaptive
 * search): the owned fleet slice plus the resumable session measuring
 * in it.  The slice must outlive the session, hence the member order.
 */
struct RaceWindow
{
    ProductionEnvironment slice;
    MeasureSession session;

    RaceWindow(ProductionEnvironment &&sliceIn, const InputSpec &spec,
               const RobustnessPolicy &policy, const KnobConfig &baseline,
               const KnobConfig &candidate, double startSec)
        : slice(std::move(sliceIn)),
          session(slice, spec, policy, baseline, candidate, startSec)
    {
    }
};

double
UskuReport::gainOverProductionPercent() const
{
    if (productionMips <= 0.0)
        return 0.0;
    return (softSkuMips / productionMips - 1.0) * 100.0;
}

double
UskuReport::gainOverStockPercent() const
{
    if (stockMips <= 0.0)
        return 0.0;
    return (softSkuMips / stockMips - 1.0) * 100.0;
}

Json
UskuReport::toJson() const
{
    Json doc = Json::object();
    doc.set("schema_version", Json(kReportSchemaVersion));
    doc.set("spec", spec.toJson());
    doc.set("production", production.toJson());
    doc.set("stock", stock.toJson());
    doc.set("soft_sku", softSku.toJson());
    doc.set("design_space_map", map.toJson());
    doc.set("production_mips", Json(productionMips));
    doc.set("stock_mips", Json(stockMips));
    doc.set("soft_sku_mips", Json(softSkuMips));
    doc.set("gain_over_production_percent",
            Json(gainOverProductionPercent()));
    doc.set("gain_over_stock_percent", Json(gainOverStockPercent()));
    doc.set("measurement_hours", Json(measurementHours));
    doc.set("configs_evaluated",
            Json(static_cast<long long>(configsEvaluated)));
    doc.set("ab_comparisons",
            Json(static_cast<long long>(abComparisons)));
    // cache_hits is deliberately absent: whether a comparison was
    // measured or replayed is operational, and a cache-served rerun
    // must serialize byte-identically to the run that measured.
    doc.set("metrics", metrics.toJson());
    if (faultPlan.any() || faults.any()) {
        Json faultsDoc = Json::object();
        faultsDoc.set("plan", faultPlan.toJson());
        faultsDoc.set("telemetry", faults.toJson());
        doc.set("faults", std::move(faultsDoc));
    }
    Json validationDoc = Json::object();
    validationDoc.set("duration_sec", Json(validation.durationSec));
    validationDoc.set("samples",
                      Json(static_cast<long long>(validation.samples)));
    validationDoc.set("mean_gain_percent",
                      Json(validation.meanGainPercent));
    validationDoc.set("gain_ci_percent", Json(validation.gainCiPercent));
    validationDoc.set("stable", Json(validation.stable));
    if (validation.samplesDropped > 0) {
        validationDoc.set(
            "samples_dropped",
            Json(static_cast<long long>(validation.samplesDropped)));
    }
    if (validation.samplesRejected > 0) {
        validationDoc.set(
            "samples_rejected",
            Json(static_cast<long long>(validation.samplesRejected)));
    }
    doc.set("validation", std::move(validationDoc));
    return doc;
}

std::string
UskuReport::summary() const
{
    std::string out;
    out += format("μSKU report: %s on %s (%s sweep)\n",
                  spec.microservice.c_str(), spec.platform.c_str(),
                  sweepModeName(spec.sweep).c_str());
    out += format("  production: %s\n", production.describe().c_str());
    out += format("  soft SKU:   %s\n", softSku.describe().c_str());
    out += format("  gain over production: %+.2f%%\n",
                  gainOverProductionPercent());
    out += format("  gain over stock:      %+.2f%%\n",
                  gainOverStockPercent());
    out += format("  configs evaluated: %llu, measurement time: %.1f h\n",
                  static_cast<unsigned long long>(configsEvaluated),
                  measurementHours);
    out += format("  A/B comparisons: %llu (%llu served from cache)\n",
                  static_cast<unsigned long long>(abComparisons),
                  static_cast<unsigned long long>(cacheHits));
    if (faultPlan.any() || faults.any()) {
        out += format("  faults (%s): %llu injected, %llu retries, "
                      "%llu dropped, %llu rejected, %llu guardrail "
                      "aborts, %llu abandoned\n",
                      faultPlan.describe().c_str(),
                      static_cast<unsigned long long>(
                          faults.faultsInjected()),
                      static_cast<unsigned long long>(faults.retries),
                      static_cast<unsigned long long>(
                          faults.samplesDropped),
                      static_cast<unsigned long long>(
                          faults.samplesRejected),
                      static_cast<unsigned long long>(
                          faults.guardrailAborts),
                      static_cast<unsigned long long>(faults.abandoned));
    }
    out += format("  validation: %+.2f%% ± %.2f%% over %.1f days (%s)\n",
                  validation.meanGainPercent, validation.gainCiPercent,
                  validation.durationSec / 86400.0,
                  validation.stable ? "stable" : "not significant");
    return out;
}

namespace {

/** Record one measured outcome into a sweep. */
KnobOutcome
makeOutcome(const KnobValue &value, const ABTestResult &test)
{
    KnobOutcome outcome;
    outcome.value = value;
    outcome.meanMips = test.samplesB.mean();
    outcome.gainPercent = test.gainPercent();
    outcome.gainCiPercent = test.gainCiPercent();
    outcome.significant = test.significant;
    outcome.samples = test.samplesUsed;
    return outcome;
}

/**
 * Deterministic measurement-window start for a task: spread arms
 * across a simulated week of diurnal phases in half-hour steps, so
 * different knob tests still see different load regimes — as the
 * serial multi-hour sweep did — without sharing a clock.
 */
double
phaseOffsetSec(std::uint64_t streamId)
{
    return static_cast<double>(streamId % 336) * 1800.0;
}

/**
 * QoS guardrail: true (with @p out filled as a guardrail abort) when
 * @p candidate's peak load under the SLO collapses so far below
 * @p baseline's that the live load envelope would violate it.  The
 * peak a service sustains is its utilization cap times the hardware
 * contexts' capacity, linear in the core count, so the rule reads
 * resolved core counts and prices nothing: an aborted candidate is
 * never simulated (DESIGN.md §7).
 */
bool
qosGuard(const PlatformSpec &platform, const RobustnessPolicy &robust,
         const KnobConfig &baseline, const KnobConfig &candidate,
         ABTestResult &out)
{
    if (!robust.qosGuardrail ||
        !robust.capacityCollapses(baseline.resolvedCores(platform),
                                  candidate.resolvedCores(platform)))
        return false;
    out.configA = baseline;
    out.configB = candidate;
    out.qosAborted = true;
    out.faults.guardrailAborts = 1;
    return true;
}

/** One fixed-protocol comparison on the stream its @p key names,
 *  retried on replacement servers after crashes and failed applies. */
ABTestResult
measureComparison(ProductionEnvironment &env, const RobustnessPolicy &robust,
                  const InputSpec &spec, const KnobConfig &baseline,
                  const KnobConfig &candidate, const std::string &key)
{
    // A private fleet slice per task: shared truth cache, private
    // noise substream.  Nothing here mutates engine state.  A
    // comparison killed by a crash or apply failure re-runs on a
    // replacement server — a fresh substream derived from the same
    // comparison key, so the retry schedule is thread-invariant.
    const std::uint64_t streamId = fnv1a64(key);
    ABTestResult out;
    FaultTelemetry merged;
    double elapsed = 0.0;
    std::uint64_t accepted = 0;
    const int attempts = 1 + std::max(0, robust.maxRetries);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        std::uint64_t stream =
            streamId +
            0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(attempt);
        ProductionEnvironment slice = env.clone(stream);
        // Per-sample counters accrue in commit(), from the merged
        // result: a replayed comparison must account exactly like the
        // one that measured.
        ABTester tester(slice, spec, robust);
        out = tester.compareAt(baseline, candidate, phaseOffsetSec(stream));
        merged.merge(out.faults);
        elapsed += out.elapsedSec;
        accepted += out.samplesAccepted;
        if (!out.crashed && !out.applyFailed)
            break;
        // A trace point per fault, under the comparison's
        // deterministic path, so Perfetto shows where the hostile
        // fleet actually bit.
        traceInstant("fault",
                     out.crashed ? "fault.crash" : "fault.apply_failure");
        if (attempt + 1 < attempts) {
            ++merged.retries;
            // A marker child span per re-measurement, so traces carry
            // exactly report.faults.retries of these.
            ScopedSpan retry("sweep", "sweep.retry");
            retry.arg("attempt", static_cast<std::uint64_t>(attempt + 1));
        }
    }
    if (out.crashed || out.applyFailed)
        ++merged.abandoned;
    out.faults = merged;
    out.elapsedSec = elapsed;
    out.samplesAccepted = accepted;
    return out;
}

/**
 * One value of a knob's sweep, in plan order: the baseline's own value
 * (after canonicalization), or candidate arm number @p arm.
 */
struct ArmSlot
{
    const KnobValue *value;
    bool isBaseline;
    size_t arm;
};

/** Lay out @p knob's values against @p baseline, appending each
 *  candidate arm's configuration to @p candidates (an arm's number is
 *  its index there). */
std::vector<ArmSlot>
armLayout(const KnobPlan &knob, const KnobConfig &baseline,
          const PlatformSpec &platform, std::vector<KnobConfig> &candidates)
{
    std::vector<ArmSlot> layout;
    for (const KnobValue &value : knob.values) {
        KnobConfig candidate = baseline;
        value.applyTo(candidate);
        if (candidate.canonical(platform) == baseline.canonical(platform)) {
            layout.push_back(ArmSlot{&value, true, 0});
        } else {
            layout.push_back(ArmSlot{&value, false, candidates.size()});
            candidates.push_back(candidate);
        }
    }
    return layout;
}

/** The outcome row for a knob's baseline value: zero gain by
 *  definition, never measured. */
KnobOutcome
baselineOutcome(const DesignSpaceMap &map, KnobId id)
{
    KnobOutcome outcome;
    outcome.value = KnobValue::fromConfig(id, map.baseline);
    outcome.meanMips = map.baselineMips;
    outcome.isBaseline = true;
    return outcome;
}

/**
 * Every joint configuration of the plan's knob values except the
 * baseline itself, in mixed-radix order (first knob fastest).  The
 * cross product is bounded: the paper observes exhaustive sweeps
 * cannot complete between code pushes, and the limit keeps runs
 * honest.  @p what names the search in the refusal.
 */
std::vector<KnobConfig>
crossProduct(const TestPlan &plan, const KnobConfig &baseline,
             const char *what)
{
    constexpr size_t kMaxCombinations = 512;
    size_t combinations = 1;
    for (const KnobPlan &knobPlan : plan.knobs) {
        combinations *= knobPlan.values.size();
        if (combinations > kMaxCombinations) {
            fatal("μSKU: %s would need %zu+ combinations (limit %zu); "
                  "restrict the knob list or sweep the knobs "
                  "independently",
                  what, combinations, kMaxCombinations);
        }
    }
    std::vector<KnobConfig> candidates;
    std::vector<size_t> index(plan.knobs.size(), 0);
    bool done = plan.knobs.empty();
    while (!done) {
        KnobConfig candidate = baseline;
        for (size_t k = 0; k < plan.knobs.size(); ++k)
            plan.knobs[k].values[index[k]].applyTo(candidate);
        if (!(candidate == baseline))
            candidates.push_back(candidate);

        // Advance the mixed-radix counter.
        size_t k = 0;
        while (k < index.size()) {
            if (++index[k] < plan.knobs[k].values.size())
                break;
            index[k] = 0;
            ++k;
        }
        done = k == index.size();
    }
    return candidates;
}

/** Feed the per-knob sim-latency histogram.  Callers feed it in plan
 *  order from serial loops, so the fp accumulation is deterministic. */
void
recordKnobSimSec(MetricsRegistry &metrics, KnobId id, double elapsedSec)
{
    if (elapsedSec > 0.0) {
        metrics
            .histogram("sweep.knob_sim_sec." + knobKey(id),
                       MetricScope::Deterministic, 1.0, 1e8)
            .add(elapsedSec);
    }
}

/** One outcome per knob, each naming the best joint configuration
 *  (exhaustive and halving search). */
void
collapseToBest(DesignSpaceMap &map, const TestPlan &plan,
               const KnobConfig &bestConfig, double bestMean)
{
    for (const KnobPlan &knobPlan : plan.knobs) {
        KnobSweep sweep;
        sweep.id = knobPlan.id;
        KnobOutcome outcome;
        outcome.value = KnobValue::fromConfig(knobPlan.id, bestConfig);
        outcome.meanMips = bestMean;
        outcome.gainPercent =
            map.baselineMips > 0.0
                ? (bestMean / map.baselineMips - 1.0) * 100.0
                : 0.0;
        outcome.significant = !(bestConfig == map.baseline);
        outcome.isBaseline = bestConfig == map.baseline;
        sweep.outcomes.push_back(outcome);
        map.sweeps.push_back(std::move(sweep));
    }
}

} // namespace

/**
 * One best-arm contest of the adaptive searches: an engine over
 * candidate configurations, each measured against the sweep's
 * baseline, and what each arm's measurement window returned.  Each
 * knob's race is one contest; halving runs one over the joint
 * combinations.
 */
struct Contest
{
    struct Arm
    {
        /** Latest cumulative window state (every pull returns the
         *  whole window so far). */
        ABTestResult last;
        /** Snapshot at the chunk that parked a racing arm —
         *  bit-identical to a fixed-mode measurement of this
         *  comparison, because the window runs on the same stream with
         *  the same batch cadence. */
        ABTestResult fixed;
        double elapsedSec = 0.0;
    };

    std::vector<KnobConfig> candidates;
    std::vector<Arm> arms;
    /** Null when no value of the contest differs from the baseline. */
    std::unique_ptr<BaiArmSet> engine;
};

namespace {

/** Racing's outcome rows, in plan order, into @p map (the serial loop
 *  keeps the per-knob histogram's fp accumulation deterministic);
 *  returns the early stops. */
std::uint64_t
raceOutcomes(const TestPlan &plan,
             const std::vector<std::vector<ArmSlot>> &layouts,
             const std::vector<Contest> &contests, MetricsRegistry &metrics,
             DesignSpaceMap &map)
{
    std::uint64_t earlyStops = 0;
    std::uint64_t samplesSaved = 0;
    for (size_t k = 0; k < contests.size(); ++k) {
        const Contest &contest = contests[k];
        KnobSweep sweep;
        sweep.id = plan.knobs[k].id;
        for (const ArmSlot &slot : layouts[k]) {
            if (slot.isBaseline) {
                sweep.outcomes.push_back(baselineOutcome(map, sweep.id));
                continue;
            }
            const Contest::Arm &arm = contest.arms[slot.arm];
            const BaiArm &raced = contest.engine->arm(slot.arm);
            recordKnobSimSec(metrics, sweep.id, arm.elapsedSec);
            // A parked arm reports its fixed-protocol snapshot — the
            // bytes a fixed-mode run would have produced for this
            // comparison.  Everything else (eliminated, capped,
            // withdrawn) reports its final window state; the composer
            // skips eliminated arms regardless.
            KnobOutcome outcome =
                makeOutcome(*slot.value, raced.parked ? arm.fixed : arm.last);
            outcome.significant = outcome.significant &&
                                  (raced.parked || !raced.withdrawn);
            outcome.eliminated = raced.eliminated;
            outcome.samplesSaved = contest.engine->samplesSaved(slot.arm);
            samplesSaved += outcome.samplesSaved;
            debug("μSKU race: %s = %s → %+0.2f%% (n=%llu%s)",
                  knobKey(sweep.id).c_str(), slot.value->label.c_str(),
                  outcome.gainPercent,
                  static_cast<unsigned long long>(outcome.samples),
                  outcome.eliminated ? ", eliminated" : "");
            sweep.outcomes.push_back(outcome);
        }
        if (contest.engine)
            earlyStops += contest.engine->earlyStops();
        map.sweeps.push_back(std::move(sweep));
    }
    metrics.counter("sweep.early_stops").add(earlyStops);
    metrics.counter("sweep.samples_saved").add(samplesSaved);
    return earlyStops;
}

} // namespace

UskuOptions
UskuOptions::fromTool(const ToolOptions &tool)
{
    UskuOptions options;
    options.jobs = tool.jobs;
    options.faults = tool.faults;
    options.faultSeed = tool.faultSeed;
    options.cacheDir = tool.cacheDir;
    options.progress = tool.progress;
    // traceOut stays with the tool: ToolOptions::writeTrace() emits the
    // file once, after every run the process performed.
    return options;
}

Usku::Usku(ProductionEnvironment &env, UskuOptions options)
    : env_(env), options_(options)
{
    if (options_.pool) {
        pool_ = options_.pool;
    } else if (options_.jobs != 1) {
        ownedPool_ = std::make_unique<ThreadPool>(options_.jobs);
        pool_ = ownedPool_.get();
    }
    if (options_.faults.any()) {
        env_.setFaults(options_.faults, options_.faultSeed);
        // Measuring a hostile fleet without defenses is never what an
        // operator means; an explicit policy still wins.
        if (options_.robustness == RobustnessPolicy{})
            options_.robustness = RobustnessPolicy::hostile();
    }
    if (!options_.traceOut.empty())
        Tracer::global().enable();
}

Usku::~Usku() = default;

UskuReport
Usku::run(const InputSpec &specIn)
{
    InputSpec spec = specIn;
    spec.normalize();
    spec.validate();

    const WorkloadProfile &profile = env_.profile();
    const PlatformSpec &platform = env_.platform();
    if (profile.name != toLower(spec.microservice)) {
        fatal("μSKU: environment simulates '%s' but the spec targets "
              "'%s'", profile.name.c_str(), spec.microservice.c_str());
    }

    comparisons_ = 0;
    cacheHits_ = 0;
    measuredSec_ = 0.0;
    faults_ = FaultTelemetry{};
    metrics_.reset();
    batchSeq_ = 0;
    seenThisRun_.clear();
    configsThisRun_.clear();
    raceWindows_.clear();

    // Memo entries are only meaningful under the context they were
    // measured in; a context change (new fault plan, different
    // statistics policy) invalidates them.  With a cache directory the
    // matching persisted entries preload here, so a repeat invocation
    // replays instead of measuring.
    const std::string context =
        abCacheContext(env_, spec, options_.robustness);
    if (context != memoContext_) {
        memo_.clear();
        validationMemo_.clear();
        memoContext_ = context;
    }
    if (!options_.cacheDir.empty()) {
        std::size_t loaded = loadAbCache(options_.cacheDir, context,
                                         memo_, &validationMemo_);
        if (loaded > 0) {
            inform("A/B cache: %zu persisted comparisons loaded from %s",
                   loaded, options_.cacheDir.c_str());
        }
    }

    // Attribute every log line from this run (and its workers get the
    // comparison-level context in evaluate()) to the service.  The
    // trace tag is scoped before the first span so every root path in
    // this run — including usku.run itself — files under it.
    LogContext logCtx(toLower(spec.microservice));
    TraceTagScope tagScope(options_.traceTag);
    ScopedSpan runSpan("usku", "usku.run", {kTraceUsku});
    runSpan.arg("service", toLower(spec.microservice));
    runSpan.arg("platform", spec.platform);
    runSpan.arg("sweep", sweepModeName(spec.sweep));

    if (options_.progress) {
        progress_ = std::make_unique<SweepProgress>(
            toLower(spec.microservice) + " sweep",
            pool_ ? pool_->threadCount() : 1);
    }

    UskuReport report;
    report.spec = spec;
    report.faultPlan = env_.faults();
    report.plan = buildTestPlan(spec, platform, profile);
    report.production = productionConfig(platform, profile);
    report.stock = stockConfig(platform, profile);
    configsThisRun_.insert(
        report.production.canonical(platform).describe());
    configsThisRun_.insert(report.stock.canonical(platform).describe());

    if (spec.search == SearchMode::Race) {
        // Racing contests the arms of one knob against each other;
        // only the independent sweep has that per-knob structure.
        if (spec.sweep != SweepMode::Independent) {
            fatal("μSKU: racing search requires the independent sweep "
                  "(spec asks for %s); use search=halving for joint "
                  "combinations",
                  sweepModeName(spec.sweep).c_str());
        }
        report.map = sweepRace(report.plan, report.production, spec);
    } else if (spec.search == SearchMode::Halving) {
        report.map = sweepHalving(report.plan, report.production, spec);
    } else {
        switch (spec.sweep) {
          case SweepMode::Independent:
            report.map = sweepIndependent(report.plan, report.production,
                                          spec);
            break;
          case SweepMode::Exhaustive:
            report.map = sweepExhaustive(report.plan, report.production,
                                         spec);
            break;
          case SweepMode::HillClimb:
            report.map = sweepHillClimb(report.plan, report.production,
                                        spec);
            break;
        }
    }

    SoftSkuGenerator generator;
    report.softSku = generator.compose(report.map);
    configsThisRun_.insert(report.softSku.canonical(platform).describe());

    report.productionMips = env_.trueMips(report.production);
    report.stockMips = env_.trueMips(report.stock);
    report.softSkuMips = env_.trueMips(report.softSku);
    report.measurementHours = measuredSec_ / 3600.0;
    // Per-run, not the environment's cumulative simulation-cache size:
    // a cache-served rerun touches the same configurations without
    // simulating anything new, and must report the same count.
    report.configsEvaluated = configsThisRun_.size();
    report.abComparisons = comparisons_;
    report.cacheHits = cacheHits_;
    report.faults = faults_;

    OdsStore ods;
    report.validation = generator.validate(
        env_, report.softSku, report.production,
        spec.validationDurationSec, ods, 60.0, pool_, &metrics_,
        &validationMemo_);
    report.faults.samplesDropped += report.validation.samplesDropped;
    report.faults.samplesRejected += report.validation.samplesRejected;

    // Deterministic roll-up counters, recorded on the caller thread
    // after every sweep and validation chunk has committed.  Cache
    // hits are operational — a warm run hits where the cold run
    // measured, yet both must snapshot identical deterministic rows.
    metrics_.counter("sweep.comparisons").add(report.abComparisons);
    metrics_.counter("sweep.cache_hits", MetricScope::Operational)
        .add(report.cacheHits);
    metrics_.counter("faults.crashes").add(report.faults.crashes);
    metrics_.counter("faults.apply_failures")
        .add(report.faults.applyFailures);
    metrics_.counter("faults.samples_dropped")
        .add(report.faults.samplesDropped);
    metrics_.counter("faults.samples_corrupted")
        .add(report.faults.samplesCorrupted);
    metrics_.counter("faults.samples_rejected")
        .add(report.faults.samplesRejected);
    metrics_.counter("faults.retries").add(report.faults.retries);
    metrics_.counter("faults.guardrail_aborts")
        .add(report.faults.guardrailAborts);
    metrics_.counter("faults.abandoned").add(report.faults.abandoned);

    // Operational rows: scheduling and wall-clock facts that must stay
    // out of the byte-compared report body.  The pricing-stage counts
    // belong here too: they are the environment's, cumulative over
    // every run sharing its cache, and a cache-served rerun prices
    // nothing while it must snapshot the cold run's deterministic rows.
    MetricScope op = MetricScope::Operational;
    metrics_.gauge("sim.event_passes", op)
        .set(static_cast<double>(env_.eventPasses()));
    metrics_.gauge("sim.rollups", op)
        .set(static_cast<double>(env_.configsSimulated()));
    if (pool_) {
        ThreadPoolStats poolStats = pool_->stats();
        metrics_.gauge("pool.submitted", op)
            .set(static_cast<double>(poolStats.submitted));
        metrics_.gauge("pool.executed", op)
            .set(static_cast<double>(poolStats.executed));
        metrics_.gauge("pool.stolen", op)
            .set(static_cast<double>(poolStats.stolen));
        metrics_.gauge("pool.max_queued", op)
            .set(static_cast<double>(poolStats.maxQueued));
    }

    report.metrics = metrics_.snapshot(/*includeOperational=*/false);

    if (!options_.cacheDir.empty() &&
        storeAbCache(options_.cacheDir, context, memo_,
                     &validationMemo_)) {
        debug("A/B cache: %zu comparisons persisted to %s", memo_.size(),
              options_.cacheDir.c_str());
    }

    if (progress_) {
        progress_->finish();
        progress_.reset();
    }
    if (!options_.traceOut.empty())
        Tracer::global().writeChromeTrace(options_.traceOut);
    return report;
}

MetricsSnapshot
Usku::fullMetrics() const
{
    return metrics_.snapshot(/*includeOperational=*/true);
}

std::string
Usku::comparisonKey(const Comparison &task)
{
    const PlatformSpec &platform = env_.platform();
    std::string a = task.baseline.canonical(platform).describe();
    std::string b = task.candidate.canonical(platform).describe();
    configsThisRun_.insert(a);
    configsThisRun_.insert(b);
    return a + " vs " + b;
}

std::vector<ABTestResult>
Usku::evaluate(const std::vector<Comparison> &batch, const InputSpec &spec)
{
    comparisons_ += batch.size();
    return evaluateKeyed(batch, nullptr, spec);
}

std::vector<ABTestResult>
Usku::evaluateChunks(const std::vector<ChunkPull> &batch,
                     const InputSpec &spec)
{
    std::vector<Comparison> tasks;
    tasks.reserve(batch.size());
    for (const ChunkPull &pull : batch)
        tasks.push_back(pull.task);
    return evaluateKeyed(tasks, &batch, spec);
}

std::vector<size_t>
Usku::lookup(const std::vector<std::string> &keys, std::uint64_t batchTag,
             std::vector<ABTestResult> &results,
             std::vector<std::pair<size_t, size_t>> &aliases)
{
    // Memo hits and in-batch duplicates (aliased to their first slot)
    // resolve without touching the simulator; the rest need measuring.
    std::vector<size_t> pending;
    std::unordered_map<std::string, size_t> seenInBatch;
    for (size_t i = 0; i < keys.size(); ++i) {
        const std::string &key = keys[i];
        auto hit = memo_.find(key);
        bool inBatch = false;
        if (hit != memo_.end()) {
            results[i] = hit->second;
        } else if (auto first = seenInBatch.find(key);
                   first != seenInBatch.end()) {
            aliases.emplace_back(i, first->second);
            inBatch = true;
        } else {
            seenInBatch.emplace(key, i);
            pending.push_back(i);
            continue;
        }
        ++cacheHits_;
        ScopedSpan span(
            "sweep", "sweep.cache_hit",
            {kTraceSweep, batchTag, static_cast<std::uint64_t>(i)});
        span.arg("key", key);
        if (inBatch)
            span.arg("in_batch", true);
        traceCounter("sweep", "sweep.cache_hits_total",
                     static_cast<double>(cacheHits_));
    }
    return pending;
}

ABTestResult
Usku::measurePull(const Comparison &task, const std::string &windowKey,
                  const ChunkPull &pull, const InputSpec &spec)
{
    // Extend the comparison's continued measurement window.  The
    // window lives on the stream the *comparison key alone* names —
    // the exact stream the fixed protocol's first attempt measures —
    // so once an arm parks at the fixed stop rule its cumulative
    // statistics are bit-identical to a one-shot fixed run.  No
    // retry-on-crash here: a dead window is the arm's verdict, and the
    // race driver withdraws (or keeps the parked snapshot of) the arm.
    std::uint64_t stream = fnv1a64(windowKey);
    RaceWindow *window = nullptr;
    {
        std::lock_guard<std::mutex> lock(raceWindowsMu_);
        auto it = raceWindows_.find(windowKey);
        if (it == raceWindows_.end()) {
            it = raceWindows_
                     .emplace(windowKey,
                              std::make_unique<RaceWindow>(
                                  env_.clone(stream), spec,
                                  options_.robustness, task.baseline,
                                  task.candidate, phaseOffsetSec(stream)))
                     .first;
        }
        window = it->second.get();
    }
    ABTestResult out = window->session.pullTo(pull.chunk.targetSamples,
                                              pull.chunk.stopAtVerdict);
    if (out.crashed || out.applyFailed)
        out.faults.abandoned = 1;
    return out;
}

void
Usku::commit(const std::vector<std::string> &keys,
             const std::vector<std::pair<size_t, size_t>> &aliases,
             std::vector<ABTestResult> &results, bool pulls)
{
    for (const auto &[dup, source] : aliases)
        results[dup] = results[source];
    // Sequential, in batch order, so memo contents, fault telemetry,
    // and the floating-point accumulation order are
    // thread-count-invariant.  Accounting accrues on a key's *first
    // occurrence this run*, measured and replayed results alike: a
    // cache-served rerun thereby reports the same measurement hours,
    // fault telemetry, and metric rows as the run that measured, and
    // a repeat of an already-committed key adds nothing twice.
    for (size_t i = 0; i < keys.size(); ++i) {
        const ABTestResult &result = results[i];
        if (seenThisRun_.insert(keys[i]).second) {
            measuredSec_ += result.elapsedSec;
            faults_.merge(result.faults);
            // Every distinct chunk the adaptive search paid for,
            // whether it was measured or replayed — a warm rerun pulls
            // the same chunks and must count the same pulls.
            if (pulls)
                metrics_.counter("sweep.arm_pulls").add(1);
            metrics_.counter("ab.samples_accepted")
                .add(result.samplesAccepted);
            metrics_.counter("ab.samples_rejected")
                .add(result.faults.samplesRejected);
            metrics_.counter("ab.samples_dropped")
                .add(result.faults.samplesDropped);
            // Deterministic histogram: fed here, in commit order,
            // because its mean accumulates floating point in add order.
            if (result.elapsedSec > 0.0) {
                metrics_
                    .histogram("sweep.comparison_sim_sec",
                               MetricScope::Deterministic, 1.0, 1e8)
                    .add(result.elapsedSec);
            }
        }
        memo_.emplace(keys[i], result);
    }
}

std::vector<ABTestResult>
Usku::evaluateKeyed(const std::vector<Comparison> &batch,
                    const std::vector<ChunkPull> *pulls,
                    const InputSpec &spec)
{
    const std::uint64_t batchTag = batchSeq_++;
    // A pull's key is its comparison's key plus the pull ordinal: the
    // chunk — not the comparison — is the memo/cache unit there, so a
    // warm run replays exactly the chunks the racing engine
    // re-requests, in whatever round it re-requests them.
    std::vector<std::string> windowKeys(batch.size()), keys(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        keys[i] = windowKeys[i] = comparisonKey(batch[i]);
        if (pulls)
            keys[i] += format(" #c%llu", static_cast<unsigned long long>(
                                             (*pulls)[i].chunk.ordinal));
    }
    std::vector<ABTestResult> results(batch.size());
    std::vector<std::pair<size_t, size_t>> aliases;  // (dup, source)
    const std::vector<size_t> pending =
        lookup(keys, batchTag, results, aliases);

    // The driver's run tag is re-established in every task: the task
    // may run on any pool thread, and on a shared pool that thread may
    // otherwise carry another run's tag.  Wall timing and the progress
    // line wrap the task; neither can influence what it computes.
    const std::uint64_t runTag = Tracer::currentRunTag();
    auto evaluateTask = [&](size_t p) {
        TraceTagScope tag(runTag);
        auto t0 = std::chrono::steady_clock::now();
        const size_t slot = pending[p];
        {
            // Root path (batch ordinal, batch slot) is derived from the
            // plan alone, so the merged span order is thread-invariant.
            ScopedSpan span("sweep", pulls ? "sweep.pull" : "sweep.compare",
                            {kTraceSweep, batchTag,
                             static_cast<std::uint64_t>(slot)});
            span.arg("key", keys[slot]);
            LogContext logCtx(format(
                "%s b%llu.%zu", env_.profile().name.c_str(),
                static_cast<unsigned long long>(batchTag), slot));
            ABTestResult &out = results[slot];
            const Comparison &task = batch[slot];
            if (qosGuard(env_.platform(), options_.robustness,
                         task.baseline, task.candidate, out)) {
                span.arg("qos_aborted", true);
            } else {
                out = pulls ? measurePull(task, windowKeys[slot],
                                          (*pulls)[slot], spec)
                            : measureComparison(
                                  env_, options_.robustness, spec,
                                  task.baseline, task.candidate, keys[slot]);
                span.arg("sim_sec", out.elapsedSec);
                span.arg("significant", out.significant);
            }
        }
        double wallSec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        metrics_
            .histogram("sweep.comparison_wall_sec",
                       MetricScope::Operational, 1e-6, 1e4)
            .add(wallSec);
        if (progress_)
            progress_->taskDone(wallSec);
    };

    if (progress_)
        progress_->beginBatch(pending.size());
    if (pool_ && pending.size() > 1) {
        pool_->parallelFor(pending.size(), evaluateTask);
    } else {
        for (size_t p = 0; p < pending.size(); ++p)
            evaluateTask(p);
    }
    commit(keys, aliases, results, pulls != nullptr);
    return results;
}

DesignSpaceMap
Usku::sweepIndependent(const TestPlan &plan, const KnobConfig &baseline,
                       const InputSpec &spec)
{
    ScopedSpan span("sweep", "sweep.independent");
    span.arg("knobs", static_cast<std::uint64_t>(plan.knobs.size()));

    DesignSpaceMap map;
    map.baseline = baseline;
    map.baselineMips = env_.trueMips(baseline);

    // Every non-baseline arm of every knob is one independent task.
    std::vector<KnobConfig> candidates;
    std::vector<std::vector<ArmSlot>> layouts;
    for (const KnobPlan &knobPlan : plan.knobs)
        layouts.push_back(
            armLayout(knobPlan, baseline, env_.platform(), candidates));
    std::vector<Comparison> batch;
    for (const KnobConfig &candidate : candidates)
        batch.push_back(Comparison{baseline, candidate});

    std::vector<ABTestResult> results = evaluate(batch, spec);

    for (size_t k = 0; k < plan.knobs.size(); ++k) {
        KnobSweep sweep;
        sweep.id = plan.knobs[k].id;
        for (const ArmSlot &slot : layouts[k]) {
            if (slot.isBaseline) {
                sweep.outcomes.push_back(baselineOutcome(map, sweep.id));
                continue;
            }
            const ABTestResult &test = results[slot.arm];
            recordKnobSimSec(metrics_, sweep.id, test.elapsedSec);
            sweep.outcomes.push_back(makeOutcome(*slot.value, test));
            debug("μSKU A/B: %s = %s → %+0.2f%% (p=%.3g, n=%llu)",
                  knobKey(sweep.id).c_str(), slot.value->label.c_str(),
                  test.gainPercent(), test.welch.pValue,
                  static_cast<unsigned long long>(test.samplesUsed));
        }
        map.sweeps.push_back(std::move(sweep));
    }
    return map;
}

DesignSpaceMap
Usku::sweepExhaustive(const TestPlan &plan, const KnobConfig &baseline,
                      const InputSpec &spec)
{
    ScopedSpan span("sweep", "sweep.exhaustive");
    span.arg("knobs", static_cast<std::uint64_t>(plan.knobs.size()));

    const std::vector<KnobConfig> candidates =
        crossProduct(plan, baseline, "exhaustive sweep");

    DesignSpaceMap map;
    map.baseline = baseline;
    map.baselineMips = env_.trueMips(baseline);

    // The cross product is one task batch; the reduction to the best
    // configuration happens in enumeration order afterwards, so the
    // winner is independent of evaluation schedule.
    std::vector<Comparison> batch;
    for (const KnobConfig &candidate : candidates)
        batch.push_back(Comparison{baseline, candidate});
    std::vector<ABTestResult> results = evaluate(batch, spec);

    KnobConfig bestConfig = baseline;
    double bestMean = map.baselineMips;
    for (size_t i = 0; i < results.size(); ++i) {
        const ABTestResult &test = results[i];
        if (test.significant && test.welch.meanDiff > 0.0 &&
            test.samplesB.mean() > bestMean) {
            bestMean = test.samplesB.mean();
            bestConfig = candidates[i];
        }
    }
    collapseToBest(map, plan, bestConfig, bestMean);
    return map;
}

DesignSpaceMap
Usku::sweepHillClimb(const TestPlan &plan, const KnobConfig &baseline,
                     const InputSpec &spec)
{
    ScopedSpan span("sweep", "sweep.hillclimb");
    span.arg("knobs", static_cast<std::uint64_t>(plan.knobs.size()));

    DesignSpaceMap map;
    map.baseline = baseline;
    map.baselineMips = env_.trueMips(baseline);

    KnobConfig current = baseline;
    const int maxPasses = 3;
    for (int pass = 0; pass < maxPasses; ++pass) {
        bool moved = false;
        for (const KnobPlan &knobPlan : plan.knobs) {
            // All neighbor probes for one knob run as a parallel
            // batch; `current` only advances between batches, so the
            // climb's trajectory is schedule-independent.  Re-probes
            // of unchanged neighbors hit the memo cache.
            std::vector<const KnobValue *> probed;
            std::vector<Comparison> batch;
            for (const KnobValue &value : knobPlan.values) {
                KnobConfig candidate = current;
                value.applyTo(candidate);
                if (candidate == current)
                    continue;
                probed.push_back(&value);
                batch.push_back(Comparison{current, candidate});
            }
            std::vector<ABTestResult> results = evaluate(batch, spec);

            const KnobValue *bestValue = nullptr;
            double bestGain = 0.0;
            for (size_t i = 0; i < results.size(); ++i) {
                const ABTestResult &test = results[i];
                if (test.significant && test.gainPercent() > bestGain) {
                    bestGain = test.gainPercent();
                    bestValue = probed[i];
                }
            }
            if (bestValue) {
                bestValue->applyTo(current);
                moved = true;
            }
        }
        if (!moved)
            break;
    }

    // One sweep entry per knob reflecting where the climb ended.
    for (const KnobPlan &knobPlan : plan.knobs) {
        KnobSweep sweep;
        sweep.id = knobPlan.id;
        KnobOutcome outcome;
        outcome.value = KnobValue::fromConfig(knobPlan.id, current);
        outcome.meanMips = env_.trueMips(current);
        outcome.gainPercent =
            map.baselineMips > 0.0
                ? (outcome.meanMips / map.baselineMips - 1.0) * 100.0
                : 0.0;
        KnobValue baseValue = KnobValue::fromConfig(knobPlan.id, baseline);
        outcome.isBaseline = outcome.value == baseValue;
        outcome.significant = !outcome.isBaseline;
        sweep.outcomes.push_back(outcome);
        map.sweeps.push_back(std::move(sweep));
    }
    return map;
}

namespace {

/** Racing parameters derived from the spec: one confidence knob
 *  governs both the fixed protocol and the racing error budget. */
BaiOptions
baiOptionsFor(const InputSpec &spec)
{
    BaiOptions options;
    options.delta = 1.0 - spec.confidence;
    options.chunkSamples = spec.raceChunkSamples;
    // Elimination may strike after the very first chunk — the
    // Bonferroni-corrected interval is valid at any n >= 2, and the
    // first chunk is where racing earns its keep (a -10% arm should
    // cost one chunk, not the fixed protocol's min-sample floor).
    options.minSamplesPerArm = 2;
    options.maxSamplesPerArm = spec.maxSamplesPerTest;
    // The composer ignores wins under 0.05% (design_space_map.cc), so
    // arms provably below that threshold stop being paid for.
    options.futilityGain = 0.0005;
    return options;
}

} // namespace

void
Usku::runContests(std::vector<Contest> &contests, const KnobConfig &baseline,
                  const InputSpec &spec)
{
    // Lockstep driver: every round collects one pull per pending arm
    // across *all* contests into a single batch, so the pool stays
    // saturated even when most contests have already decided.
    // Decisions consume chunk statistics only — never scheduling order
    // — so every contest replays identically at any thread count and
    // on a cache-served rerun.
    //
    // A racing arm *parks* at the first chunk that reaches the fixed
    // protocol's stop (significant at the spec confidence past the
    // minimum sample floor): the window runs on the comparison's own
    // stream with the fixed protocol's batch cadence, so the parked
    // snapshot is bit-identical to what a fixed-mode run would have
    // reported — winner agreement with fixed mode is structural, not
    // statistical.
    while (true) {
        std::vector<ChunkPull> batch;
        std::vector<std::pair<Contest *, std::size_t>> refs;
        std::vector<BaiArmSet *> pulled;
        for (Contest &contest : contests) {
            BaiArmSet *engine = contest.engine.get();
            if (!engine || engine->decided())
                continue;
            pulled.push_back(engine);
            for (std::size_t i : engine->pending()) {
                batch.push_back(ChunkPull{
                    Comparison{baseline, contest.candidates[i]},
                    engine->pull(i)});
                refs.emplace_back(&contest, i);
            }
        }
        if (batch.empty())
            break;

        std::vector<ABTestResult> results = evaluateChunks(batch, spec);

        // Feed serially in batch order — the same order every thread
        // count produces — then let each engine that pulled apply its
        // rule.  A dead window (guardrail abort, crash, failed push)
        // withdraws its arm: no retry, the window is the arm's verdict.
        for (size_t t = 0; t < results.size(); ++t) {
            auto [contest, i] = refs[t];
            BaiArmSet &engine = *contest->engine;
            Contest::Arm &arm = contest->arms[i];
            const ABTestResult &result = results[t];
            arm.elapsedSec += result.elapsedSec;
            if (result.qosAborted || result.crashed || result.applyFailed) {
                engine.withdraw(i);
                continue;
            }
            bool verdict = result.significant &&
                           result.samplesUsed >= spec.minSamplesPerTest;
            if (verdict && !engine.arm(i).parked)
                arm.fixed = result;
            engine.update(i, result.pairedDiffs, verdict);
            arm.last = result;
        }
        for (BaiArmSet *engine : pulled)
            engine->eliminateRound();
    }
}

DesignSpaceMap
Usku::sweepRace(const TestPlan &plan, const KnobConfig &baseline,
                const InputSpec &spec)
{
    ScopedSpan span("sweep", "sweep.race");
    span.arg("knobs", static_cast<std::uint64_t>(plan.knobs.size()));
    span.arg("chunk", spec.raceChunkSamples);

    DesignSpaceMap map;
    map.baseline = baseline;
    map.baselineMips = env_.trueMips(baseline);

    // One race per knob over its candidate values; the knob's baseline
    // value sits outside the race as the implicit zero-gain reference
    // every arm is measured against.
    const BaiOptions baiOptions = baiOptionsFor(spec);
    std::vector<Contest> contests(plan.knobs.size());
    std::vector<std::vector<ArmSlot>> layouts;
    for (size_t k = 0; k < plan.knobs.size(); ++k) {
        Contest &contest = contests[k];
        layouts.push_back(armLayout(plan.knobs[k], baseline,
                                    env_.platform(), contest.candidates));
        contest.arms.resize(contest.candidates.size());
        comparisons_ += contest.arms.size();
        if (!contest.arms.empty()) {
            contest.engine =
                std::make_unique<BaiRace>(contest.arms.size(), baiOptions);
        }
    }
    runContests(contests, baseline, spec);

    span.arg("early_stops",
             raceOutcomes(plan, layouts, contests, metrics_, map));
    return map;
}

DesignSpaceMap
Usku::sweepHalving(const TestPlan &plan, const KnobConfig &baseline,
                   const InputSpec &spec)
{
    ScopedSpan span("sweep", "sweep.halving");
    span.arg("knobs", static_cast<std::uint64_t>(plan.knobs.size()));
    span.arg("chunk", spec.raceChunkSamples);

    // The joint candidate set is the same bounded cross product the
    // exhaustive sweep walks; halving just pays for it adaptively.
    std::vector<Contest> contests(1);
    Contest &contest = contests.front();
    contest.candidates = crossProduct(plan, baseline, "halving search");
    contest.arms.resize(contest.candidates.size());
    comparisons_ += contest.candidates.size();

    DesignSpaceMap map;
    map.baseline = baseline;
    map.baselineMips = env_.trueMips(baseline);

    KnobConfig bestConfig = baseline;
    double bestMean = map.baselineMips;
    std::uint64_t earlyStops = 0;
    std::uint64_t samplesSaved = 0;
    if (!contest.candidates.empty()) {
        contest.engine = std::make_unique<BaiHalving>(
            contest.candidates.size(), baiOptionsFor(spec));
        runContests(contests, baseline, spec);

        const BaiArmSet &halving = *contest.engine;
        std::size_t winner = halving.best();
        if (winner < contest.candidates.size()) {
            const ABTestResult &state = contest.arms[winner].last;
            if (state.significant && state.pairedDiffs.mean() > 0.0 &&
                state.samplesB.mean() > bestMean) {
                bestMean = state.samplesB.mean();
                bestConfig = contest.candidates[winner];
            }
        }
        earlyStops = halving.earlyStops();
        for (std::size_t i = 0; i < halving.armCount(); ++i)
            samplesSaved += halving.samplesSaved(i);
    }

    metrics_.counter("sweep.early_stops").add(earlyStops);
    metrics_.counter("sweep.samples_saved").add(samplesSaved);
    span.arg("early_stops", earlyStops);
    span.arg("combinations",
             static_cast<std::uint64_t>(contest.candidates.size()));

    collapseToBest(map, plan, bestConfig, bestMean);
    return map;
}

} // namespace softsku

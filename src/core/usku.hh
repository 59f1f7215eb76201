/**
 * @file
 * μSKU — the design tool (paper Sec. 4, Fig 13).
 *
 * Wiring: input file → A/B test configurator → A/B tester (production
 * systems, live traffic) → design-space map → soft-SKU generator →
 * prolonged validation.  Three search strategies are provided:
 * independent knob scaling (the deployed default), exhaustive cross
 * product (bounded — the paper notes it cannot finish between code
 * pushes), and greedy hill climbing (the discussion-section
 * extension).
 *
 * The sweep engine evaluates A/B comparisons as independent tasks on a
 * work-stealing thread pool (UskuOptions::jobs).  Every task measures
 * in its own ProductionEnvironment clone whose noise RNG is a
 * substream keyed by the comparison itself, so the reduced design-space
 * map and report are bit-identical at any thread count — a parallel
 * sweep that changed results would be useless for A/B science.
 * Repeated comparisons (hill-climb revisits, baseline re-tests) are
 * served from a memo cache and skip measurement entirely.
 */

#ifndef SOFTSKU_CORE_USKU_HH
#define SOFTSKU_CORE_USKU_HH

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/configurator.hh"
#include "core/design_space_map.hh"
#include "core/input_spec.hh"
#include "core/soft_sku.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "sim/production_env.hh"
#include "telemetry/ods.hh"
#include "util/cli.hh"
#include "util/thread_pool.hh"

namespace softsku {

/**
 * Version of the report JSON layout, emitted as the document's first
 * key.  Bumped whenever a field is added, removed, or renamed so
 * downstream consumers (dashboards, the golden tests) fail loudly on a
 * layout they were not written for.
 *
 * History: 1 = the pre-orchestrator layout (implicit, no version key);
 * 2 = adds schema_version, drops the operational cache_hits count;
 * 3 = knob configs serialize as a keyed "knobs" object written by the
 * descriptor registry codecs (KnobConfig::fromJson still reads the
 * flat v2 layout).
 */
constexpr int kReportSchemaVersion = 3;

/** Everything a μSKU run produces. */
struct UskuReport
{
    InputSpec spec;
    TestPlan plan;
    KnobConfig production;          //!< hand-tuned baseline
    KnobConfig stock;               //!< fresh-install reference
    KnobConfig softSku;             //!< the composed winner
    DesignSpaceMap map;
    ValidationResult validation;

    double productionMips = 0.0;
    double stockMips = 0.0;
    double softSkuMips = 0.0;
    double measurementHours = 0.0;  //!< simulated A/B wall clock
    std::uint64_t configsEvaluated = 0;
    std::uint64_t abComparisons = 0;  //!< comparisons the sweep asked for
    /**
     * Comparisons served from the memo cache (in-tool or persisted via
     * UskuOptions::cacheDir).  Operational, not scientific: a fully
     * cache-served rerun produces a byte-identical report, so this
     * count lives in summary() and fullMetrics() but never in toJson().
     */
    std::uint64_t cacheHits = 0;

    /**
     * Deterministic-scope metrics recorded during this run (sample
     * counts, fault events, sim-time latency histograms).  Serialized
     * as the "metrics" report section and byte-compared across --jobs;
     * operational metrics (wall clock, pool scheduling) never land
     * here — ask Usku::fullMetrics() for those.
     */
    MetricsSnapshot metrics;

    /** The hazards the environment injected during this run. */
    FaultPlan faultPlan;
    /** Fault/recovery events the sweep observed and survived.  Only
     *  serialized when a fault plan was active, so benign-run reports
     *  are byte-identical to the pre-fault-injection format. */
    FaultTelemetry faults;

    /** Gain of the soft SKU over the hand-tuned production config. */
    double gainOverProductionPercent() const;

    /** Gain of the soft SKU over the stock config. */
    double gainOverStockPercent() const;

    /** Serialize the full report. */
    Json toJson() const;

    /** Human-readable multi-line summary. */
    std::string summary() const;
};

/**
 * Execution policy for the sweep engine.  Deliberately *not* part of
 * InputSpec: thread count is an operational choice, never a scientific
 * one, and must not influence any reported number.  The robustness
 * policy *is* scientific (it changes which samples count), but it is
 * an operator's defense posture rather than an experiment parameter —
 * and with everything off it is bit-for-bit the benign behavior.
 *
 * Since the orchestrator redesign this is the whole run description:
 * fault arming, tracing, caching, and pool sharing all fold in here,
 * so a tool (or the fleet orchestrator) configures a run in one place
 * instead of poking the environment and the tracer separately.
 */
struct UskuOptions
{
    /**
     * Worker threads evaluating sweep tasks.  1 runs inline (no pool);
     * 0 asks for the hardware concurrency.  Reports are bit-identical
     * for every value.  Ignored when `pool` is set.
     */
    unsigned jobs = 1;

    /**
     * A caller-owned pool to run sweep/validation tasks on.  The fleet
     * orchestrator points every target at one shared pool so a slow
     * target's tail cannot idle the machine; the pool must outlive the
     * Usku.  Null means the tool owns a pool sized by `jobs`.
     */
    ThreadPool *pool = nullptr;

    /** Fault defenses: retries, robust filtering, the QoS guardrail. */
    RobustnessPolicy robustness;

    /**
     * Fault plan to arm the environment with (replaces the
     * ProductionEnvironment::setFaults call tools used to make).  A
     * default (all-zero) plan leaves the environment untouched, so
     * externally armed plans keep working.  When a plan is active and
     * `robustness` is still the default, the hostile() defense posture
     * is adopted automatically — measuring a hostile fleet without
     * defenses is never what an operator means.
     */
    FaultPlan faults;
    /** Seed for the fault-decision RNG streams. */
    std::uint64_t faultSeed = 1;

    /**
     * Run tag for this run's trace spans (see Tracer::setRunTag).
     * Scoped thread-locally for the duration of run(), so concurrent
     * runs on a shared pool keep disjoint span paths.  0 = use the
     * tracer's global tag.
     */
    std::uint64_t traceTag = 0;

    /**
     * Write the Chrome trace here after run().  Non-empty also arms
     * the tracer at construction, replacing the manual
     * Tracer::global().enable() dance in the tools.
     */
    std::string traceOut;

    /**
     * Directory for the persistent A/B memo cache.  When set, run()
     * preloads cached comparison outcomes whose context (seed, spec,
     * fault plan — see ab_cache.hh) matches, and persists the memo
     * back afterwards.  A repeat invocation is then fully cache-served
     * and byte-identical to the run that measured.
     */
    std::string cacheDir;

    /** Render a live progress line (stderr) while the sweep runs. */
    bool progress = false;

    /** Adopt the shared tool flag set (--jobs, --faults, ...). */
    static UskuOptions fromTool(const ToolOptions &tool);
};

/** The tool facade. */
class Usku
{
  public:
    /**
     * @param env     the production environment to measure in; the
     *                caller owns it so benches can reuse simulation
     *                caches.  When options.faults is active the
     *                environment is armed here.
     * @param options the full run description (threads/pool, fault
     *                arming, tracing, caching)
     */
    explicit Usku(ProductionEnvironment &env, UskuOptions options = {});
    ~Usku();

    /** Run the full pipeline for @p spec. */
    UskuReport run(const InputSpec &spec);

    /**
     * Every metric the last run recorded — the deterministic rows that
     * went into the report plus operational rows (wall clock, pool
     * scheduling) that must never enter byte-compared output.
     */
    MetricsSnapshot fullMetrics() const;

  private:
    /** One A/B task: measure @p candidate against @p baseline. */
    struct Comparison
    {
        KnobConfig baseline;
        KnobConfig candidate;
    };

    /**
     * One racing pull: advance a comparison's continued measurement
     * window to @p target accepted pairs (cumulative).  The chunk is
     * the memo/cache unit — its key is the comparison key plus the
     * pull @p ordinal, and each cached entry carries the *cumulative*
     * window state at that pull's end, so a warm run replays the exact
     * bit pattern the cold run's window held there.  The window itself
     * (stream, diurnal phase, warm-up) is keyed by the comparison
     * alone — the same stream the fixed protocol would measure — which
     * is what makes a parked arm's verdict bit-identical to fixed
     * mode's.
     */
    struct ChunkPull
    {
        Comparison task;
        std::uint64_t ordinal = 0;
        std::uint64_t target = 0;
        /** Let the window stop at the fixed protocol's verdict; the
         *  driver clears this for incumbent-continuation pulls past a
         *  parked verdict. */
        bool stopAtVerdict = true;
    };

    /**
     * Evaluate a batch of comparisons — in parallel when a pool is
     * configured — and return results in batch order.  Duplicate
     * comparisons (within the batch or remembered from earlier
     * batches) are served from the memo cache.
     */
    std::vector<ABTestResult> evaluate(const std::vector<Comparison> &batch,
                                       const InputSpec &spec);

    /** Chunked analogue of evaluate() for the adaptive search modes. */
    std::vector<ABTestResult> evaluateChunks(
        const std::vector<ChunkPull> &batch, const InputSpec &spec);

    /** Shared engine behind evaluate()/evaluateChunks(): @p pulls is
     *  null for full fixed-protocol comparisons, else the originating
     *  chunk pulls (per-slot cumulative targets + stop rule).  Runs
     *  lookup, then guard and measure per task, then commit. */
    std::vector<ABTestResult> evaluateKeyed(
        const std::vector<Comparison> &batch,
        const std::vector<ChunkPull> *pulls, const InputSpec &spec);

    /** The memo/cache key of @p task, which also names its noise
     *  stream; records both configurations as touched this run. */
    std::string comparisonKey(const Comparison &task);

    /** Serve memo hits into @p results and alias in-batch duplicates
     *  to their first slot (dup, source); returns the slots left to
     *  measure. */
    std::vector<size_t> lookup(
        const std::vector<std::string> &keys, std::uint64_t batchTag,
        std::vector<ABTestResult> &results,
        std::vector<std::pair<size_t, size_t>> &aliases);

    /** Advance the continued window @p windowKey names by one pull. */
    ABTestResult measurePull(const Comparison &task,
                             const std::string &windowKey,
                             const ChunkPull &pull, const InputSpec &spec);

    /** Copy each in-batch duplicate's result from its source, then
     *  memoize the batch and account each key's first occurrence this
     *  run. */
    void commit(const std::vector<std::string> &keys,
                const std::vector<std::pair<size_t, size_t>> &aliases,
                std::vector<ABTestResult> &results, bool pulls);

    DesignSpaceMap sweepIndependent(const TestPlan &plan,
                                    const KnobConfig &baseline,
                                    const InputSpec &spec);
    DesignSpaceMap sweepExhaustive(const TestPlan &plan,
                                   const KnobConfig &baseline,
                                   const InputSpec &spec);
    DesignSpaceMap sweepHillClimb(const TestPlan &plan,
                                  const KnobConfig &baseline,
                                  const InputSpec &spec);
    /** Racing / successive elimination over each knob's arms
     *  (spec.search == Race; see core/bai.hh). */
    DesignSpaceMap sweepRace(const TestPlan &plan,
                             const KnobConfig &baseline,
                             const InputSpec &spec);
    /** Successive halving over joint knob combinations
     *  (spec.search == Halving). */
    DesignSpaceMap sweepHalving(const TestPlan &plan,
                                const KnobConfig &baseline,
                                const InputSpec &spec);

    ProductionEnvironment &env_;
    UskuOptions options_;
    /** The pool tasks run on: owned_ when the tool asked for jobs>1,
     *  the caller's shared pool when options_.pool was set. */
    std::unique_ptr<ThreadPool> ownedPool_;
    ThreadPool *pool_ = nullptr;
    /** Comparison key → measured result; lives as long as the tool. */
    std::unordered_map<std::string, ABTestResult> memo_;
    /** Comparison key → live continued measurement window (adaptive
     *  search).  Created on demand by worker tasks (map access is
     *  mutex-guarded; each window is only ever advanced by one task at
     *  a time because the race driver pulls one chunk per arm per
     *  round).  Cleared at the top of every run(). */
    std::unordered_map<std::string, std::unique_ptr<struct RaceWindow>>
        raceWindows_;
    std::mutex raceWindowsMu_;
    /** Validation-chunk key → measured chunk; same lifetime and
     *  context discipline as memo_ (persisted alongside it). */
    ValidationCache validationMemo_;
    /** Context string the memo contents were measured under; a run
     *  with a different context clears the memo first (a key is only
     *  unique within one context — see ab_cache.hh). */
    std::string memoContext_;
    /**
     * Comparison keys already accounted this run.  Report accounting
     * (measurement hours, fault telemetry, metric rows) accrues on a
     * key's *first occurrence per run* whether the result was measured
     * or replayed, so a cache-served rerun reports exactly what the
     * run that measured reported.
     */
    std::unordered_set<std::string> seenThisRun_;
    /** Canonical configurations this run touched (the report's
     *  configs_evaluated — per run, unlike the environment's
     *  cumulative simulation-cache size). */
    std::unordered_set<std::string> configsThisRun_;
    std::uint64_t comparisons_ = 0;
    std::uint64_t cacheHits_ = 0;
    double measuredSec_ = 0.0;
    /** Fault events accumulated in commit order (thread-invariant). */
    FaultTelemetry faults_;
    /** Per-run flight-recorder registry (reset at the top of run()). */
    MetricsRegistry metrics_;
    /** Ordinal of the next evaluate() batch, for span root paths. */
    std::uint64_t batchSeq_ = 0;
    /** Live progress line; only alive during run() when requested. */
    std::unique_ptr<SweepProgress> progress_;
};

} // namespace softsku

#endif // SOFTSKU_CORE_USKU_HH

/**
 * @file
 * The A/B tester (paper Sec. 4): compare two server configurations on
 * live traffic with statistical rigor.
 *
 * Protocol, as the paper describes it: discard a warm-up phase to avoid
 * cold-start bias, record MIPS samples with sufficient spacing for
 * independence, and keep sampling until the difference is significant
 * at the requested confidence — or give up after ~30,000 observations
 * and declare "no statistically significant difference".
 */

#ifndef SOFTSKU_CORE_AB_TEST_HH
#define SOFTSKU_CORE_AB_TEST_HH

#include "core/input_spec.hh"
#include "core/knobs.hh"
#include "sim/faults.hh"
#include "sim/production_env.hh"
#include "stats/running_stat.hh"
#include "stats/students_t.hh"

namespace softsku {

/**
 * How the measurement machinery defends itself against a hostile
 * fleet.  Deliberately separate from InputSpec's statistics policy:
 * these switches change what the tool *does about* faults, and default
 * to the benign-production behavior (everything off).
 */
struct RobustnessPolicy
{
    /** Extra measurement attempts after a crashed/failed comparison. */
    int maxRetries = 0;
    /** MAD-based outlier rejection on the paired ratios. */
    bool robustFilter = false;
    /** Reject pairs beyond this many MADs from the batch median. */
    double madCutoff = 8.0;
    /** Abort candidates whose QoS envelope collapses (sweep engine). */
    bool qosGuardrail = false;
    /** Minimum peak-QPS fraction (vs baseline) a candidate must keep. */
    double minPeakQpsFraction = 0.7;

    /**
     * The guardrail's capacity-collapse rule: @p candidate keeps less
     * than minPeakQpsFraction of @p baseline's capacity.  Exactly the
     * fraction is kept.
     */
    bool capacityCollapses(double baseline, double candidate) const
    {
        return baseline > 0.0 && candidate < baseline * minPeakQpsFraction;
    }

    /** The defaults μSKU uses when a fault plan is active. */
    static RobustnessPolicy hostile()
    {
        RobustnessPolicy policy;
        policy.maxRetries = 2;
        policy.robustFilter = true;
        policy.qosGuardrail = true;
        return policy;
    }

    bool operator==(const RobustnessPolicy &) const = default;
};

/** Outcome of one A-vs-B comparison. */
struct ABTestResult
{
    KnobConfig configA;             //!< baseline
    KnobConfig configB;             //!< candidate
    RunningStat samplesA;
    RunningStat samplesB;
    /** Per-pair relative gains (B/A − 1): the common-mode load factor
     *  is multiplicative, so the ratio cancels it exactly. */
    RunningStat pairedDiffs;
    WelchResult welch;
    std::uint64_t samplesUsed = 0;  //!< per arm
    /** Accepted samples summed over every measurement attempt (the
     *  sweep engine's retry loop fills this; samplesUsed only reflects
     *  the final attempt).  Replayed from the memo cache so warm runs
     *  account identically to the run that measured. */
    std::uint64_t samplesAccepted = 0;
    bool significant = false;
    double elapsedSec = 0.0;        //!< simulated measurement wall clock

    /** Fault/recovery events observed during this comparison. */
    FaultTelemetry faults;
    /** The (last) measurement attempt died on a server crash. */
    bool crashed = false;
    /** The (last) knob apply failed; no measurement happened. */
    bool applyFailed = false;
    /** The QoS guardrail aborted measurement of this candidate. */
    bool qosAborted = false;

    /** Mean throughput difference of B over A, percent. */
    double gainPercent() const;

    /** Confidence half-width on the gain, percent of A's mean. */
    double gainCiPercent() const;
};

/**
 * A resumable sequential measurement window: the paper's protocol
 * (warm-up discard, spaced paired samples, a significance check after
 * every 100-sample batch) expressed as a session that can be advanced
 * a slice at a time.
 *
 * One uninterrupted run to a target and any sequence of pullTo() calls
 * reaching the same target walk byte-identical sample streams and
 * produce bit-identical cumulative statistics — the property the
 * adaptive racing search builds on: a racing arm advanced chunk by
 * chunk holds, at every 100-sample boundary, exactly the state the
 * fixed protocol would hold there, so the moment the fixed stopping
 * rule fires the arm's verdict (mean, CI, sample count) is the fixed
 * protocol's verdict, bit for bit.
 *
 * The session does not own its environment slice; the caller keeps the
 * slice alive (and exclusively owned) for the session's lifetime.
 */
class MeasureSession
{
  public:
    MeasureSession(ProductionEnvironment &env, const InputSpec &spec,
                   const RobustnessPolicy &policy,
                   const KnobConfig &baseline, const KnobConfig &candidate,
                   double startSec);

    /**
     * Advance the window until @p targetAccepted samples have been
     * accepted in total (cumulative, not incremental), the comparison
     * crashes, or — when @p stopOnSignificance — the fixed protocol's
     * stopping rule fires (significant at the spec confidence past the
     * minimum sample floor, checked after each 100-attempt batch).
     *
     * The returned result carries *cumulative* statistics (pairedDiffs,
     * samplesA/B, welch, samplesUsed) but *incremental* accounting
     * (elapsedSec and samplesAccepted cover only this call), so a
     * caller summing per-pull accounting never double-counts the
     * prefix.
     */
    ABTestResult pullTo(std::uint64_t targetAccepted,
                        bool stopOnSignificance);

    /** Accepted samples so far (the cumulative position). */
    std::uint64_t accepted() const { return result_.samplesUsed; }

    /** The window died (crash or apply failure); pulls return as-is. */
    bool dead() const { return result_.crashed || result_.applyFailed; }

  private:
    ProductionEnvironment &env_;
    InputSpec spec_;           //!< copied: sessions outlive sweep frames
    RobustnessPolicy policy_;
    KnobConfig baseline_, candidate_;
    double startSec_ = 0.0;
    double clock_ = 0.0;
    double trueA_ = 0.0, trueB_ = 0.0;
    bool opened_ = false;      //!< apply + warm-up already ran
    std::uint64_t attempts_ = 0;
    ABTestResult result_;      //!< cumulative state
};

/** Sequential paired A/B measurement driver. */
class ABTester
{
  public:
    /**
     * @param env     the production fleet slice to measure in
     * @param spec    statistical policy (confidence, caps, spacing)
     * @param policy  fault-defense policy; the default is the benign
     *                behavior (no filtering, no retries)
     */
    ABTester(ProductionEnvironment &env, const InputSpec &spec,
             const RobustnessPolicy &policy = RobustnessPolicy{});

    /**
     * Run one comparison.  Measurement time continues monotonically
     * across calls, so consecutive knob tests see different diurnal
     * phases — as a real multi-hour sweep does.
     */
    ABTestResult compare(const KnobConfig &baseline,
                         const KnobConfig &candidate);

    /**
     * Run one comparison in a fixed measurement window starting at
     * @p startSec, without touching the shared monotonic clock.  This
     * is the parallel sweep engine's entry point: the window start is
     * derived deterministically per arm, so the result depends only on
     * (environment seed, spec, configs, startSec) — never on which
     * thread runs it or in what order.
     */
    ABTestResult compareAt(const KnobConfig &baseline,
                           const KnobConfig &candidate, double startSec);

    /** Simulated wall-clock spent measuring so far. */
    double elapsedSec() const { return clockSec_; }

  private:
    ProductionEnvironment &env_;
    const InputSpec &spec_;
    RobustnessPolicy policy_;
    double clockSec_ = 0.0;
};

} // namespace softsku

#endif // SOFTSKU_CORE_AB_TEST_HH

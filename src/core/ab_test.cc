#include "core/ab_test.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/trace.hh"
#include "stats/robust.hh"
#include "util/logging.hh"

namespace softsku {

double
ABTestResult::gainPercent() const
{
    if (pairedDiffs.count() > 0)
        return pairedDiffs.mean() * 100.0;
    if (samplesA.mean() <= 0.0)
        return 0.0;
    return (samplesB.mean() / samplesA.mean() - 1.0) * 100.0;
}

double
ABTestResult::gainCiPercent() const
{
    return welch.diffHalfWidth * 100.0;
}

MeasureSession::MeasureSession(ProductionEnvironment &env,
                               const InputSpec &spec,
                               const RobustnessPolicy &policy,
                               const KnobConfig &baseline,
                               const KnobConfig &candidate, double startSec)
    : env_(env), spec_(spec), policy_(policy), baseline_(baseline),
      candidate_(candidate), startSec_(startSec), clock_(startSec)
{
    result_.configA = baseline_;
    result_.configB = candidate_;
}

ABTestResult
MeasureSession::pullTo(std::uint64_t targetAccepted,
                       bool stopOnSignificance)
{
    const double spacing = spec_.sampleSpacingSec;
    const double pullStartClock = clock_;
    const std::uint64_t pullStartAccepted = result_.samplesUsed;
    const FaultTelemetry faultsBefore = result_.faults;

    if (!opened_) {
        opened_ = true;
        // Resolve the ground truths once per window: samplePairTruth
        // keeps the tens-of-thousands-samples loop free of config
        // hashing.
        trueA_ = env_.trueMips(baseline_);
        trueB_ = env_.trueMips(candidate_);

        // Pushing the candidate config can itself fail on a hostile
        // fleet; the operator only notices once the warm-up window has
        // elapsed.
        if (env_.drawApplyFailure()) {
            result_.applyFailed = true;
            result_.faults.applyFailures = 1;
            clock_ += static_cast<double>(spec_.warmupSamples) * spacing;
        } else {
            // Warm-up: both servers run the new configuration for a few
            // minutes before observations count (cold-start bias,
            // Sec. 4).
            for (std::uint64_t i = 0; i < spec_.warmupSamples; ++i) {
                clock_ += spacing;
                (void)env_.samplePairTruth(trueA_, trueB_, clock_);
            }
        }
    }

    // Sequential sampling in batches; stop early once the difference is
    // significant and a minimum sample count is reached (for a racing
    // pull past its verdict, the target count alone stops it).  Dropped
    // and rejected samples cost wall clock without advancing the count,
    // so a lossy fleet is bounded by the attempt cap instead.  The cap
    // scales with the requested target, so an interrupted-and-resumed
    // window binds exactly where one uninterrupted run would.
    const std::uint64_t batch = 100;
    const std::uint64_t maxAttempts = targetAccepted * 4;

    // Per-batch scratch for the robust filter.
    std::vector<double> ratios;
    std::vector<PairedSample> kept;

    while (!dead() && result_.samplesUsed < targetAccepted &&
           attempts_ < maxAttempts) {
        ratios.clear();
        kept.clear();
        for (std::uint64_t i = 0; i < batch; ++i) {
            ++attempts_;
            clock_ += spacing;
            // A server lost mid-pair kills the whole comparison; the
            // sweep engine re-runs it on a replacement (fresh stream).
            if (env_.drawCrash(spacing)) {
                result_.crashed = true;
                result_.faults.crashes = 1;
                break;
            }
            PairedSample sample =
                env_.samplePairTruth(trueA_, trueB_, clock_);
            if (sample.dropped) {
                ++result_.faults.samplesDropped;
                continue;
            }
            result_.faults.samplesCorrupted +=
                static_cast<std::uint64_t>(sample.corruptedA) +
                static_cast<std::uint64_t>(sample.corruptedB);
            // Simultaneous measurement is what pairing buys: the
            // common-mode load factor is multiplicative and cancels
            // exactly in the per-pair ratio.
            double ratio = sample.mipsB / sample.mipsA - 1.0;
            if (!std::isfinite(ratio)) {
                // A zeroed reading produces garbage; no real pipeline
                // would feed it to the t-test.
                ++result_.faults.samplesDropped;
                continue;
            }
            if (policy_.robustFilter) {
                ratios.push_back(ratio);
                kept.push_back(sample);
            } else {
                result_.samplesA.add(sample.mipsA);
                result_.samplesB.add(sample.mipsB);
                result_.pairedDiffs.add(ratio);
                ++result_.samplesUsed;
            }
        }

        if (policy_.robustFilter && !ratios.empty()) {
            // Batch-local MAD rejection: corrupted spikes/zeros sit
            // tens of MADs out while genuine samples survive.
            MadGate gate(ratios, policy_.madCutoff);
            for (size_t i = 0; i < ratios.size(); ++i) {
                if (!gate.keeps(ratios[i])) {
                    ++result_.faults.samplesRejected;
                    continue;
                }
                result_.samplesA.add(kept[i].mipsA);
                result_.samplesB.add(kept[i].mipsB);
                result_.pairedDiffs.add(ratios[i]);
                ++result_.samplesUsed;
            }
        }

        if (!stopOnSignificance || result_.pairedDiffs.count() < 2)
            continue;
        result_.welch =
            pairedTTest(result_.pairedDiffs, spec_.confidence);
        if (result_.samplesUsed >= spec_.minSamplesPerTest &&
            result_.welch.significant) {
            result_.significant = true;
            break;
        }
    }

    // Cumulative statistics, incremental accounting: the caller sums
    // elapsedSec/samplesAccepted/faults over pulls without
    // double-counting the prefix.
    ABTestResult out = result_;
    if (!out.significant && out.pairedDiffs.count() >= 2) {
        // The paper's give-up rule: at the end of a window with no
        // confident separation, conclude from whatever accumulated.
        // Assessed on the returned copy only — a transient verdict at
        // one pull boundary must not stick to the window, or a resumed
        // pull would report "significant" where the fixed protocol's
        // identical in-loop check (which requires the minimum sample
        // floor) kept measuring.
        out.welch = pairedTTest(out.pairedDiffs, spec_.confidence);
        out.significant = out.welch.significant;
    }
    if (out.crashed)
        out.significant = false;
    out.elapsedSec = clock_ - pullStartClock;
    out.samplesAccepted = result_.samplesUsed - pullStartAccepted;
    out.faults.samplesDropped -= faultsBefore.samplesDropped;
    out.faults.samplesCorrupted -= faultsBefore.samplesCorrupted;
    out.faults.samplesRejected -= faultsBefore.samplesRejected;
    out.faults.crashes -= faultsBefore.crashes;
    out.faults.applyFailures -= faultsBefore.applyFailures;
    return out;
}

ABTester::ABTester(ProductionEnvironment &env, const InputSpec &spec,
                   const RobustnessPolicy &policy)
    : env_(env), spec_(spec), policy_(policy)
{
}

ABTestResult
ABTester::compare(const KnobConfig &baseline, const KnobConfig &candidate)
{
    ABTestResult result = compareAt(baseline, candidate, clockSec_);
    clockSec_ += result.elapsedSec;
    return result;
}

ABTestResult
ABTester::compareAt(const KnobConfig &baseline, const KnobConfig &candidate,
                    double startSec)
{
    // Nests under the sweep's comparison span when one is open on this
    // thread; retries therefore show up as sibling measure spans.
    ScopedSpan span("ab", "ab.measure");

    // One-shot window: a MeasureSession pulled to the cap, so the fixed
    // protocol and the racing sessions share one loop.
    MeasureSession session(env_, spec_, policy_, baseline, candidate,
                           startSec);
    ABTestResult result = session.pullTo(spec_.maxSamplesPerTest,
                                         /*stopOnSignificance=*/true);
    if (result.applyFailed) {
        span.arg("sim_sec", result.elapsedSec);
        span.arg("apply_failed", true);
        return result;
    }
    span.arg("samples", result.samplesUsed);
    span.arg("sim_sec", result.elapsedSec);
    span.arg("significant", result.significant);
    if (result.crashed)
        span.arg("crashed", true);
    return result;
}

} // namespace softsku

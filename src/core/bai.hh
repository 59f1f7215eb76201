/**
 * @file
 * Best-arm identification (BAI) for the knob sweep: adaptive sampling
 * rules that stop pulling an arm as soon as the statistics allow it,
 * replacing the paper's fixed ~30 k-sample budget per comparison
 * (Sec. 4).
 *
 * Two engines share one arm set (BaiArmSet) and one pull protocol:
 *
 *  - BaiRace: racing / successive elimination.  All arms of one
 *    contest (e.g. every candidate value of one knob) are pulled in
 *    fixed-size chunks, round by round; after each round an arm whose
 *    confidence interval has separated below the incumbent's is
 *    eliminated and never pulled again.  Each interval runs at
 *    confidence 1 - delta/K (Bonferroni over the K arms), targeting a
 *    race-wide error of at most the configured delta — the property
 *    the Monte-Carlo harness in tests/core/bai_test.cc measures
 *    empirically at seeds 1-50.  An arm whose chunk reaches the fixed
 *    protocol's verdict parks: it stops pulling toward a verdict and
 *    can no longer be eliminated.
 *
 *  - BaiHalving: successive halving over joint knob combinations.
 *    Every survivor receives the same geometrically growing chunk
 *    allowance per round; the bottom half (by mean gain) is dropped
 *    each round until one combination remains, which is then pulled
 *    to the fixed protocol's verdict.  This searches the *joint* space
 *    the paper's per-knob composition cannot see.
 *
 * The single pull rule: pending() names every arm to pull this round,
 * in order, and pull() the chunk each one measures; nothing else
 * decides who is pulled or when a contest is over (decided()).  The
 * sweep engine and the Monte-Carlo harness run the same loop over it.
 * Both engines are pure decision logic over RunningStat chunks: they
 * never draw samples themselves.  The sweep pulls chunks keyed
 * deterministically by (arm, pull ordinal) on Rng::split substreams
 * and feeds them back in arm order, so every decision — and therefore
 * every report byte — is independent of thread count.
 */

#ifndef SOFTSKU_CORE_BAI_HH
#define SOFTSKU_CORE_BAI_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "stats/running_stat.hh"

namespace softsku {

/** How the sweep allocates samples to A/B comparisons. */
enum class SearchMode
{
    /** The paper's protocol: every comparison runs its own fixed-cap
     *  sequential test, independent of the other arms. */
    Fixed,
    /** Racing / successive elimination between the arms of each knob
     *  (or combo batch): chunked pulls, CI-separation stopping. */
    Race,
    /** Successive halving over joint knob combinations. */
    Halving,
};

/** Parse a search-mode string; fatal() on unknown input. */
SearchMode searchModeFromString(const std::string &text);

/** Registry name of a search mode ("fixed", "race", "halving"). */
std::string searchModeName(SearchMode mode);

/** Sampling-rule parameters shared by both engines. */
struct BaiOptions
{
    /** Tolerated probability of eliminating the true best arm at any
     *  point in the race (the delta of the (epsilon=0, delta) BAI
     *  guarantee).  The sweep derives it as 1 - spec.confidence. */
    double delta = 0.05;
    /** Accepted samples per pull.  Chunks are the cache unit: each is
     *  measured on its own (arm, ordinal)-keyed substream. */
    std::uint64_t chunkSamples = 500;
    /** Samples an arm must hold before elimination may strike it. */
    std::uint64_t minSamplesPerArm = 500;
    /** Per-arm budget cap — the same give-up threshold as the fixed
     *  protocol (spec.maxSamplesPerTest). */
    std::uint64_t maxSamplesPerArm = 30000;
    /**
     * Futility floor: an arm whose *upper* confidence bound falls below
     * this gain can never matter (the composer ignores sub-material
     * wins), so the race stops paying for it.  -inf — the default —
     * disables the rule, leaving the pure (epsilon=0, delta) racing
     * guarantee the Monte-Carlo harness measures.  The sweep sets the
     * composer's material threshold here.
     */
    double futilityGain = -std::numeric_limits<double>::infinity();
};

/** One arm's accumulated state. */
struct BaiArm
{
    /** Per-pair relative gains (B/A - 1): the caller's cumulative
     *  window statistics as of the latest chunk. */
    RunningStat gains;
    /** Chunks absorbed so far — the next pull's ordinal. */
    std::uint64_t chunksPulled = 0;
    /** Out of contention: struck by the engine's rule, or withdrawn
     *  before it was parked. */
    bool eliminated = false;
    /** Its measurement died (QoS guardrail abort, crash, failed
     *  configuration push); it is never pulled again. */
    bool withdrawn = false;
    /** The latest chunk reached the fixed protocol's stop (the caller's
     *  verdict, passed to update()). */
    bool verdict = false;
    /** Racing only: reached a verdict at some chunk.  Exempt from
     *  elimination and still a contender for best(); a parked arm that
     *  is later withdrawn keeps its verdict. */
    bool parked = false;
};

/** The cumulative-sample target and stop rule of one pull. */
struct BaiPull
{
    /** Chunks the arm absorbed before this pull: the chunk's cache
     *  ordinal. */
    std::uint64_t ordinal = 0;
    /** Accepted samples the arm's window must hold after this pull. */
    std::uint64_t targetSamples = 0;
    /** Whether the window may stop early at the fixed protocol's
     *  verdict. */
    bool stopAtVerdict = true;
};

/**
 * The arm state and bookkeeping both engines share; BaiRace and
 * BaiHalving add the rule deciding who is pulled next and who drops.
 *
 * Every caller runs the same loop (the sweep engine and the
 * Monte-Carlo harness alike): while !decided(), measure one chunk
 * (pull()) for every arm in pending(), feed each back with update() —
 * or withdraw() when its measurement died — in arm order, then call
 * eliminateRound().
 */
class BaiArmSet
{
  public:
    virtual ~BaiArmSet() = default;
    BaiArmSet(const BaiArmSet &) = delete;
    BaiArmSet(BaiArmSet &&) = delete;
    BaiArmSet &operator=(const BaiArmSet &) = delete;
    BaiArmSet &operator=(BaiArmSet &&) = delete;

    std::size_t armCount() const { return arms_.size(); }
    const BaiArm &arm(std::size_t i) const { return arms_[i]; }

    /** Arms that take one more chunk this round, in pull order. */
    virtual std::vector<std::size_t> pending() const = 0;

    /** Nothing left to pull. */
    bool decided() const { return pending().empty(); }

    /** The chunk the next pull of arm @p i measures. */
    BaiPull pull(std::size_t i) const;

    /**
     * Replace arm @p i's gains with the caller's cumulative statistics
     * after one more chunk; @p verdict says whether that chunk reached
     * the fixed protocol's stop.  Cumulative rather than merged: the
     * sweep's continued windows grow sample by sample, and sequential
     * accumulation keeps the arm's statistics bit-identical to the
     * fixed protocol's — a Welford merge of per-chunk increments would
     * round differently.
     */
    void update(std::size_t i, const RunningStat &cumulativeGains,
                bool verdict = false);

    /**
     * Arm @p i's measurement died (QoS guardrail abort, crash): it is
     * never pulled again, and leaves contention unless it is parked.
     */
    void withdraw(std::size_t i);

    /** Apply the engine's rule after a round of updates.  @return the
     *  number of arms it struck. */
    virtual std::size_t eliminateRound() = 0;

    /**
     * The incumbent: the arm still in contention with the highest mean
     * gain (ties break to the lowest index).  armCount() when every arm
     * is out.
     */
    std::size_t best() const;

    /** Arms out of contention before their budget ran out. */
    std::uint64_t earlyStops() const;

    /** Samples of the per-arm budget arm @p i never paid for. */
    std::uint64_t samplesSaved(std::size_t i) const;

  protected:
    BaiArmSet(std::size_t armCount, const BaiOptions &options,
              std::uint64_t budgetChunks);

    /** Arm @p i may absorb another chunk within its budget. */
    bool budgetLeft(std::size_t i) const;

    /** Whether a pull of arm @p i may stop at the fixed verdict. */
    virtual bool stopsAtVerdict(std::size_t i) const = 0;

    const BaiOptions options_;
    std::vector<BaiArm> arms_;
    /** The most chunks one arm may absorb. */
    const std::uint64_t budgetChunks_;
};

/**
 * Racing / successive-elimination sampling rule.
 *
 * Every arm not eliminated, not parked and within its budget is pulled
 * each round — a lone one too, until it reaches its verdict or its
 * budget.  While any arm still races, the parked incumbent keeps
 * pulling as well (past its verdict), so the interval elimination
 * compares against keeps shrinking.  An arm parks at the first chunk
 * holding a verdict.
 */
class BaiRace : public BaiArmSet
{
  public:
    BaiRace(std::size_t armCount, const BaiOptions &options);

    std::vector<std::size_t> pending() const override;

    /**
     * Shield arm @p i from elimination: it reached an external verdict
     * (the sweep's fixed-protocol stop) and its settled statistics will
     * be ranked by the composer no matter what the race concludes.  A
     * positive verdict raises the futility floor to its gain: a racing
     * arm that cannot reach a settled contender can never win the
     * composition.  No-op on an arm already parked.
     */
    void park(std::size_t i);

    /**
     * Ratchet the futility floor up to @p gain (monotonic max with the
     * configured futilityGain), which is what retires a trailing
     * plateau arm in hundreds of samples instead of thousands.
     */
    void raiseFloor(double gain);

    /**
     * Park every arm whose latest chunk holds a verdict, then strike
     * every other survivor whose upper confidence bound lies below the
     * incumbent's lower bound or the futility floor.
     */
    std::size_t eliminateRound() override;

    /**
     * Confidence half-width on arm @p i's mean gain at the
     * Bonferroni-corrected per-arm confidence 1 - delta/K; +inf below
     * two samples.
     */
    double radius(std::size_t i) const;

  protected:
    bool stopsAtVerdict(std::size_t i) const override;

  private:
    /** Live futility floor: max(options.futilityGain, raiseFloor()s). */
    double floor_;
};

/**
 * Successive halving over a (large) arm set.  Round r gives every
 * survivor chunksThisRound() more chunks (never past its budget), then
 * the bottom half by mean gain is dropped.  The allowance doubles each
 * round, so early rounds triage cheaply and late rounds resolve the
 * finalists precisely.  Once a round ends with one survivor, that
 * finalist is pulled under the fixed protocol's stop until a chunk
 * holds a verdict or its budget runs out, so the composition verdict
 * means the same thing in every search mode.
 */
class BaiHalving : public BaiArmSet
{
  public:
    BaiHalving(std::size_t armCount, const BaiOptions &options);

    std::vector<std::size_t> pending() const override;

    /** Chunk allowance per survivor this round (doubles per round,
     *  clamped to the per-arm budget). */
    std::uint64_t chunksThisRound() const;

    /** Drop the bottom half of the survivors by mean gain (ties keep
     *  the lower index) and open the next round.  @return the number
     *  dropped. */
    std::size_t halveRound();

    /** Once every survivor holds this round's allowance, halve — again
     *  and again until an arm is owed a chunk or one survivor is left
     *  (rounds clamped to the budget owe nothing). */
    std::size_t eliminateRound() override;

  protected:
    bool stopsAtVerdict(std::size_t i) const override;

  private:
    /** Rounds halved so far. */
    std::uint64_t rounds_ = 0;
    /** Chunks every survivor holds once this round's pulls are in. */
    std::uint64_t roundTarget_;
    /** A round ended with at most one survivor: only the finalist is
     *  pulled from here on. */
    bool finalist_;
};

} // namespace softsku

#endif // SOFTSKU_CORE_BAI_HH

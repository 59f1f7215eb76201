#include "core/bai.hh"

#include <algorithm>
#include <limits>

#include "stats/students_t.hh"
#include "util/logging.hh"

namespace softsku {

SearchMode
searchModeFromString(const std::string &text)
{
    if (text == "fixed")
        return SearchMode::Fixed;
    if (text == "race")
        return SearchMode::Race;
    if (text == "halving")
        return SearchMode::Halving;
    fatal("unknown search mode '%s' (expected fixed|race|halving)",
          text.c_str());
}

std::string
searchModeName(SearchMode mode)
{
    switch (mode) {
      case SearchMode::Fixed: return "fixed";
      case SearchMode::Race: return "race";
      case SearchMode::Halving: return "halving";
    }
    return "fixed";
}

namespace {

/** The chunk size of @p options; fatal() on zero, before any budget is
 *  divided by it. */
std::uint64_t
chunkOf(const BaiOptions &options)
{
    if (options.chunkSamples == 0)
        fatal("best-arm search needs a positive chunk size");
    return options.chunkSamples;
}

} // namespace

BaiArmSet::BaiArmSet(std::size_t armCount, const BaiOptions &options,
                     std::uint64_t budgetChunks)
    : options_(options), arms_(armCount), budgetChunks_(budgetChunks)
{
    if (armCount == 0)
        fatal("best-arm search needs at least one arm");
}

bool
BaiArmSet::budgetLeft(std::size_t i) const
{
    return arms_[i].chunksPulled < budgetChunks_;
}

BaiPull
BaiArmSet::pull(std::size_t i) const
{
    const BaiArm &arm = arms_.at(i);
    return BaiPull{.ordinal = arm.chunksPulled,
                   .targetSamples =
                       (arm.chunksPulled + 1) * options_.chunkSamples,
                   .stopAtVerdict = stopsAtVerdict(i)};
}

void
BaiArmSet::update(std::size_t i, const RunningStat &cumulativeGains,
                  bool verdict)
{
    BaiArm &arm = arms_.at(i);
    arm.gains = cumulativeGains;
    arm.chunksPulled += 1;
    arm.verdict = verdict;
}

void
BaiArmSet::withdraw(std::size_t i)
{
    BaiArm &arm = arms_.at(i);
    arm.withdrawn = true;
    if (!arm.parked)
        arm.eliminated = true;
}

std::size_t
BaiArmSet::best() const
{
    std::size_t best = arms_.size();
    for (std::size_t i = 0; i < arms_.size(); ++i) {
        if (arms_[i].eliminated)
            continue;
        if (best == arms_.size() ||
            arms_[i].gains.mean() > arms_[best].gains.mean())
            best = i;
    }
    return best;
}

std::uint64_t
BaiArmSet::earlyStops() const
{
    std::uint64_t stops = 0;
    for (std::size_t i = 0; i < arms_.size(); ++i)
        if (arms_[i].eliminated && budgetLeft(i))
            stops += 1;
    return stops;
}

std::uint64_t
BaiArmSet::samplesSaved(std::size_t i) const
{
    // What the arm actually paid (its live window, continuation pulls
    // included) against the fixed per-test cap the paper budgets.
    std::uint64_t paid = arms_.at(i).gains.count();
    return options_.maxSamplesPerArm > paid
               ? options_.maxSamplesPerArm - paid
               : 0;
}

BaiRace::BaiRace(std::size_t armCount, const BaiOptions &options)
    // An arm may pull while chunksPulled * chunk < maxSamplesPerArm.
    : BaiArmSet(armCount, options,
                options.maxSamplesPerArm / chunkOf(options) +
                    (options.maxSamplesPerArm % chunkOf(options) != 0)),
      floor_(options.futilityGain)
{
}

std::vector<std::size_t>
BaiRace::pending() const
{
    std::vector<std::size_t> need;
    for (std::size_t i = 0; i < arms_.size(); ++i) {
        if (!arms_[i].eliminated && !arms_[i].parked && budgetLeft(i))
            need.push_back(i);
    }
    // While any arm is still racing, the incumbent keeps pulling even
    // after parking: elimination compares against the incumbent's
    // interval, and a parked incumbent's interval would stop shrinking
    // — stalling every pending elimination at whatever width it
    // happened to have.  Its outcome still reports the parked verdict;
    // continuation samples only sharpen the elimination bound.
    if (need.empty())
        return need;
    std::size_t incumbent = best();
    if (incumbent < arms_.size() && arms_[incumbent].parked &&
        !arms_[incumbent].withdrawn && budgetLeft(incumbent))
        need.push_back(incumbent);
    return need;
}

bool
BaiRace::stopsAtVerdict(std::size_t i) const
{
    return !arms_[i].parked;
}

void
BaiRace::park(std::size_t i)
{
    BaiArm &arm = arms_.at(i);
    if (arm.parked)
        return;
    arm.parked = true;
    if (arm.gains.mean() > 0.0)
        raiseFloor(arm.gains.mean());
}

void
BaiRace::raiseFloor(double gain)
{
    floor_ = std::max(floor_, gain);
}

double
BaiRace::radius(std::size_t i) const
{
    const RunningStat &gains = arms_.at(i).gains;
    if (gains.count() < 2)
        return std::numeric_limits<double>::infinity();
    // Bonferroni over the arms: each interval runs at confidence
    // 1 - delta / K.  The repeated looks across rounds are *not*
    // corrected for — consecutive checks on a growing sample are
    // almost perfectly correlated, so a per-round correction (the
    // delta/(K*R) union bound) prices eliminations at ~2x the samples
    // for no measurable error reduction.  The Monte-Carlo harness in
    // tests/core/bai_test.cc is the arbiter: it measures the empirical
    // error rate of exactly this rule against the configured delta.
    double effective =
        1.0 - options_.delta / static_cast<double>(arms_.size());
    return gains.confidenceHalfWidth(effective);
}

std::size_t
BaiRace::eliminateRound()
{
    // Parking comes first, so an arm that reached its verdict this
    // round can no longer be struck.
    for (std::size_t i = 0; i < arms_.size(); ++i) {
        if (arms_[i].verdict && !arms_[i].eliminated)
            park(i);
    }
    std::size_t incumbent = best();
    if (incumbent == arms_.size())
        return 0;
    const BaiArm &leader = arms_[incumbent];
    if (leader.gains.count() < options_.minSamplesPerArm)
        return 0;
    double leaderLow = leader.gains.mean() - radius(incumbent);
    std::size_t struck = 0;
    for (std::size_t i = 0; i < arms_.size(); ++i) {
        if (arms_[i].eliminated || arms_[i].parked)
            continue;
        const BaiArm &arm = arms_[i];
        if (arm.gains.count() < options_.minSamplesPerArm)
            continue;
        double armHigh = arm.gains.mean() + radius(i);
        // The futility floor applies to the incumbent too: when no arm
        // can reach a material gain the whole contest is moot.
        bool futile = armHigh < floor_;
        bool beaten = i != incumbent && armHigh < leaderLow;
        if (futile || beaten) {
            arms_[i].eliminated = true;
            struck += 1;
        }
    }
    return struck;
}

BaiHalving::BaiHalving(std::size_t armCount, const BaiOptions &options)
    : BaiArmSet(armCount, options,
                std::max<std::uint64_t>(
                    1, options.maxSamplesPerArm / chunkOf(options))),
      roundTarget_(chunksThisRound()), finalist_(armCount <= 1)
{
}

std::uint64_t
BaiHalving::chunksThisRound() const
{
    // 1, 2, 4, ... chunks per survivor, clamped to the per-arm budget.
    std::uint64_t allowance = std::uint64_t(1) << std::min<std::uint64_t>(
        rounds_, 62);
    return std::min(allowance, budgetChunks_);
}

std::vector<std::size_t>
BaiHalving::pending() const
{
    std::vector<std::size_t> need;
    if (!finalist_) {
        // Triage: every survivor still owed part of this round's
        // allowance.
        for (std::size_t i = 0; i < arms_.size(); ++i) {
            if (!arms_[i].eliminated &&
                arms_[i].chunksPulled < roundTarget_)
                need.push_back(i);
        }
        return need;
    }
    // The finalist, until a chunk holds a verdict or its budget is
    // spent.
    std::size_t winner = best();
    if (winner < arms_.size() && !arms_[winner].verdict &&
        budgetLeft(winner))
        need.push_back(winner);
    return need;
}

bool
BaiHalving::stopsAtVerdict(std::size_t) const
{
    // Triage pulls never stop at a verdict: the halving rule, not the
    // fixed protocol, decides who survives.
    return finalist_;
}

std::size_t
BaiHalving::halveRound()
{
    rounds_ += 1;
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < arms_.size(); ++i)
        if (!arms_[i].eliminated)
            alive.push_back(i);
    // Sort survivors by mean gain, best first; equal means keep their
    // index order (stable), so ties always favor the earlier arm.
    std::stable_sort(alive.begin(), alive.end(),
                     [this](std::size_t a, std::size_t b) {
                         return arms_[a].gains.mean() >
                                arms_[b].gains.mean();
                     });
    std::size_t keep = (alive.size() + 1) / 2;
    for (std::size_t rank = keep; rank < alive.size(); ++rank)
        arms_[alive[rank]].eliminated = true;
    roundTarget_ = std::min(roundTarget_ + chunksThisRound(), budgetChunks_);
    finalist_ = keep <= 1;
    return alive.size() - keep;
}

std::size_t
BaiHalving::eliminateRound()
{
    std::size_t dropped = 0;
    while (!finalist_ && pending().empty())
        dropped += halveRound();
    return dropped;
}

} // namespace softsku

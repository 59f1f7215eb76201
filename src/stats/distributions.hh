/**
 * @file
 * Discrete sampling distributions used by the synthetic workload
 * generators: Zipf (hot/cold working-set skew), alias-method weighted
 * choice (instruction mix, region selection), and EWMA smoothing.
 */

#ifndef SOFTSKU_STATS_DISTRIBUTIONS_HH
#define SOFTSKU_STATS_DISTRIBUTIONS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.hh"
#include "util/page_allocator.hh"

namespace softsku {

/**
 * Zipfian distribution over {0 .. n-1} with skew parameter s, sampled by
 * inverse transform over a precomputed CDF.  Rank 0 is the hottest item.
 */
class ZipfDistribution
{
  public:
    ZipfDistribution(std::uint64_t n, double skew);

    /**
     * Draw one rank.  Templated over the generator so tests can steer
     * it with a scripted fake (tests/stats/distributions_test.cc) into
     * the tail branch, which a real Rng reaches only rarely.
     */
    template <class R>
    std::uint64_t
    sample(R &rng) const
    {
        double u = rng.uniform();
        auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        auto rank = static_cast<std::uint64_t>(it - cdf_.begin());
        if (rank >= cdf_.size())
            rank = cdf_.size() - 1;
        // Tail beyond the table: spread uniformly.  The table-capped
        // check is precomputed at construction so the common
        // (untruncated) case pays one compare on a constant instead of
        // re-deriving it from two vector loads per draw.
        if (hasTail_ && rank == tailRank_)
            rank += rng.below(tailSpan_);
        return rank;
    }

    std::uint64_t size() const { return n_; }
    double skew() const { return skew_; }

  private:
    std::uint64_t n_;
    double skew_;
    PageVector<double> cdf_;
    /** Precomputed tail-branch facts (see sample()). */
    bool hasTail_ = false;
    std::uint64_t tailRank_ = 0;
    std::uint64_t tailSpan_ = 1;
};

/**
 * Weighted discrete choice over {0 .. n-1} using Vose's alias method:
 * O(1) sampling regardless of the number of outcomes.
 */
class DiscreteDistribution
{
  public:
    explicit DiscreteDistribution(const std::vector<double> &weights);

    /** Draw one index. */
    std::uint32_t
    sample(Rng &rng) const
    {
        auto i = static_cast<std::uint32_t>(rng.below(prob_.size()));
        return rng.uniform() < prob_[i] ? i : alias_[i];
    }

    size_t size() const { return prob_.size(); }

    /** Normalized probability of outcome i. */
    double probability(size_t i) const { return normalized_[i]; }

  private:
    std::vector<double> prob_;
    std::vector<std::uint32_t> alias_;
    std::vector<double> normalized_;
};

/** Exponentially weighted moving average. */
class Ewma
{
  public:
    explicit Ewma(double alpha) : alpha_(alpha) {}

    /** Fold in one observation and return the new average. */
    double add(double x);

    /** Current smoothed value. */
    double value() const { return value_; }

    bool empty() const { return empty_; }

  private:
    double alpha_;
    double value_ = 0.0;
    bool empty_ = true;
};

} // namespace softsku

#endif // SOFTSKU_STATS_DISTRIBUTIONS_HH

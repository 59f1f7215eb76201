/**
 * @file
 * Two-tier memory model: DRAM (near) and CXL-style far memory.
 *
 * Fig 12 of the paper characterizes each platform with a memory stress
 * test: latency sits on a horizontal asymptote at the unloaded value,
 * then grows exponentially as offered load approaches saturation.
 * DramModel reproduces that curve for the near tier and resolves a
 * *demand* bandwidth to an achieved (bandwidth, latency, backpressure)
 * operating point.  Uncore frequency scales the on-die portion of the
 * latency (LLC ring + memory controller), which is how μSKU's knob 2
 * takes effect; the MBA knob throttles the near tier's deliverable
 * bandwidth (resctrl MB percentages).
 *
 * TieredMemoryModel layers an optional far tier (platforms that declare
 * a FarMemorySpec) with its own queueing curve on top: a page-placement
 * ratio decides how much of the footprint lives far, a promotion policy
 * migrates hot pages back near (spending migration bandwidth on both
 * tiers — more when the pages are huge), and the resolved operating
 * point blends the two curves.  Without a far tier the model delegates
 * bit-exactly to the near DramModel, so legacy platforms are unchanged.
 */

#ifndef SOFTSKU_MEM_DRAM_HH
#define SOFTSKU_MEM_DRAM_HH

#include <string>
#include <vector>

#include "arch/platform.hh"

namespace softsku {

/**
 * Promotion/demotion aggressiveness presets for the far-memory tier
 * (the tier_policy knob).  Static places pages once and never migrates;
 * the other presets promote hot far pages at increasing rates, trading
 * migration bandwidth for a smaller far-access fraction.
 */
enum class TierPolicy
{
    Static = 0,
    Conservative,
    Balanced,
    Aggressive,
};

/** Registry key of a tier policy ("static", "balanced", ...). */
std::string tierPolicyName(TierPolicy policy);

/** Parse a tier-policy key; fatal() on unknown input (user input). */
TierPolicy tierPolicyFromString(const std::string &text);

/** All presets, least to most aggressive. */
std::vector<TierPolicy> allTierPolicies();

/** Resolved memory-system operating point. */
struct MemoryOperatingPoint
{
    double demandGBs = 0.0;      //!< what the cores asked for
    double achievedGBs = 0.0;    //!< what the DRAM delivered
    double latencyNs = 0.0;      //!< average loaded latency
    /** >1 when demand exceeds deliverable bandwidth (stall inflation). */
    double backpressure = 1.0;

    /** Exact equality, so whole results can be compared bit for bit. */
    bool operator==(const MemoryOperatingPoint &) const = default;
};

/** Queuing model of one platform's memory system. */
class DramModel
{
  public:
    /**
     * @param platform   supplies peak bandwidth and unloaded latency
     * @param uncoreGHz  current uncore frequency setting
     * @param mbaPercent resctrl MB throttle (100 = unthrottled; lower
     *                   values scale the deliverable peak down)
     */
    DramModel(const PlatformSpec &platform, double uncoreGHz,
              int mbaPercent = 100);

    /** Loaded latency at a given *achieved* bandwidth (the Fig 12 curve). */
    double latencyNs(double bandwidthGBs) const;

    /** Latency with no load. */
    double unloadedLatencyNs() const;

    /** Peak deliverable bandwidth at the current uncore frequency. */
    double peakBandwidthGBs() const { return peakGBs_; }

    /**
     * Resolve a demand to an operating point: demand beyond the
     * saturation knee is delivered at the knee and the excess shows up
     * as backpressure (extra stall cycles per access).
     */
    MemoryOperatingPoint resolve(double demandGBs) const;

    /** LLC hit latency (ns) at the current uncore frequency. */
    double llcLatencyNs() const;

    /** Page-walk latency (ns) at the current uncore frequency. */
    double pageWalkLatencyNs() const;

    double uncoreGHz() const { return uncoreGHz_; }

  private:
    const PlatformSpec &platform_;
    double uncoreGHz_;
    double peakGBs_;
    double baseLatencyNs_;
};

/**
 * The near (DRAM) tier plus the platform's optional far (CXL-style)
 * tier, resolved together.
 *
 * Placement: @p farMemRatio of the footprint (its coldest pages) lives
 * on the far tier, so the far *access* fraction is sub-linear in the
 * ratio.  Promotion: the tier policy migrates hot far pages back near,
 * shrinking the far-access fraction further at the cost of migration
 * traffic charged to both tiers — and huge pages are costlier to
 * migrate, which is how the PageMapper's 2 MiB coverage feeds back into
 * the model.  The resolved operating point blends the two queueing
 * curves by access fraction.
 *
 * With no far tier (or a zero ratio) resolve() delegates bit-exactly to
 * the near DramModel, keeping legacy platforms byte-identical.
 */
class TieredMemoryModel
{
  public:
    TieredMemoryModel(const PlatformSpec &platform, double uncoreGHz,
                      int mbaPercent = 100,
                      TierPolicy policy = TierPolicy::Static,
                      double farMemRatio = 0.0);

    /** The near-tier (DRAM) queueing model. */
    const DramModel &near() const { return near_; }

    /** True when the platform declares a far tier. */
    bool hasFarTier() const { return platform_.farMemory.present; }

    /** True when traffic actually splits across two tiers. */
    bool engaged() const { return hasFarTier() && farMemRatio_ > 0.0; }

    /** Fraction of accesses served by the far tier after promotion. */
    double farAccessFraction() const;

    /** Page-migration traffic (GB/s) the policy spends on both tiers. */
    double migrationGBs(double demandGBs, double hugeFraction) const;

    /** Far-tier loaded latency at a given far-tier bandwidth. */
    double farLatencyNs(double bandwidthGBs) const;

    /** Far-tier peak bandwidth (0 without a far tier). */
    double farPeakBandwidthGBs() const { return farPeakGBs_; }

    /**
     * Resolve a demand against both tiers.  @p hugeFraction is the
     * share of the footprint on 2 MiB pages (PageMapper), which raises
     * the migration cost.  Delegates to near().resolve() when the far
     * tier is not engaged.
     */
    MemoryOperatingPoint resolve(double demandGBs,
                                 double hugeFraction = 0.0) const;

    TierPolicy policy() const { return policy_; }
    double farMemRatio() const { return farMemRatio_; }

  private:
    const PlatformSpec &platform_;
    DramModel near_;
    TierPolicy policy_;
    double farMemRatio_;
    double farPeakGBs_;
    double farBaseLatencyNs_;
};

} // namespace softsku

#endif // SOFTSKU_MEM_DRAM_HH

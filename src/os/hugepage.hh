/**
 * @file
 * Huge-page policy: Transparent Huge Pages and Statically-allocated
 * Huge Pages, and the mapping of virtual regions to page sizes.
 *
 * The paper's knobs 6 and 7 (Sec. 5): THP has three modes (madvise —
 * the production default, always, never); SHP reserves 2 MiB pages at
 * boot that applications must explicitly request (Web uses the API,
 * Ads1 does not).  The PageMapper decides, per region, what fraction of
 * its pages end up huge; the TLB model consumes that mapping.
 */

#ifndef SOFTSKU_OS_HUGEPAGE_HH
#define SOFTSKU_OS_HUGEPAGE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace softsku {

class KernelFs;

/** Transparent-huge-page global modes. */
enum class ThpMode { Madvise, Always, Never };

/** Parse a mode string ("madvise"/"always"/"never"); fatal on others. */
ThpMode thpModeFromString(const std::string &text);

/** Kernel-style name of a THP mode. */
std::string thpModeName(ThpMode mode);

/** All modes, in the order the knob sweep lists them. */
std::vector<ThpMode> allThpModes();

constexpr std::uint64_t kPage4k = 4ull * 1024;
constexpr std::uint64_t kPage2m = 2ull * 1024 * 1024;

/** What kind of memory a region is, for paging policy decisions. */
enum class RegionKind
{
    Code,         //!< mapped executable (file-backed or JIT cache)
    Heap,         //!< anonymous data
    Stack,        //!< thread stacks
};

/**
 * One contiguous virtual region of a microservice's address space.
 * Regions are the unit of paging policy: THP/SHP decisions apply per
 * region, and the workload generators draw addresses inside them.
 */
struct VirtualRegion
{
    std::string name;
    RegionKind kind = RegionKind::Heap;
    std::uint64_t base = 0;           //!< virtual base address
    std::uint64_t sizeBytes = 0;

    /** The service calls madvise(MADV_HUGEPAGE) on this region. */
    bool madviseHuge = false;
    /** The service allocates this region through the SHP (hugetlbfs) API. */
    bool usesShpApi = false;
    /**
     * Probability that the kernel can actually assemble a huge page here
     * under THP (alignment + fragmentation); dense regions ≈ 0.9,
     * fragmented allocators much lower.
     */
    double thpFriendliness = 0.8;
};

/** The combined huge-page knob setting. */
struct HugePagePolicy
{
    ThpMode thp = ThpMode::Madvise;
    int shpCount = 0;                 //!< reserved 2 MiB pages

    /** Read the policy back out of kernel config files. */
    static HugePagePolicy fromKernelFs(const KernelFs &fs);

    /** Write the policy into kernel config files. */
    void applyTo(KernelFs &fs) const;
};

/** The resolved paging outcome for one region. */
struct RegionMapping
{
    const VirtualRegion *region = nullptr;
    double hugeFraction = 0.0;        //!< fraction of bytes on 2 MiB pages
    std::uint64_t hugeBytes = 0;

    /**
     * Deterministically decide whether @p addr (within the region) sits
     * on a huge page: the region's 2 MiB-aligned chunks are hashed so a
     * fixed subset is huge, giving the TLB a stable page-size map.
     */
    bool isHugeAddress(std::uint64_t addr) const;
};

/**
 * Applies a HugePagePolicy to a set of regions.
 *
 * SHP pages are handed out first-come to regions that use the API; THP
 * then covers eligible anonymous regions by mode.  SHP pages reserved
 * beyond what the service can consume are *wasted*: they are pinned and
 * unusable by the page cache, which the memory model charges as extra
 * pressure (the mechanism behind the Fig 18b sweet spot).
 */
class PageMapper
{
  public:
    PageMapper(std::vector<VirtualRegion> regions,
               const HugePagePolicy &policy);

    // Mappings point into the mapper's own copy of the regions, so the
    // mapper pins them for its lifetime and must not be copied.
    PageMapper(const PageMapper &) = delete;
    PageMapper &operator=(const PageMapper &) = delete;

    /** Mapping decisions, one per input region (same order). */
    const std::vector<RegionMapping> &mappings() const { return mappings_; }

    /** Mapping for the region containing @p addr; nullptr if none. */
    const RegionMapping *mappingFor(std::uint64_t addr) const;

    /** SHP bytes reserved but not consumable by any region. */
    std::uint64_t wastedShpBytes() const { return wastedShpBytes_; }

    /** Total bytes backed by 2 MiB pages across all regions. */
    std::uint64_t totalHugeBytes() const;

    /**
     * Page size (bytes) backing @p addr; falls back to 4 KiB outside
     * known regions.
     */
    std::uint64_t pageSizeAt(std::uint64_t addr) const;

  private:
    std::vector<VirtualRegion> regions_;
    std::vector<RegionMapping> mappings_;
    std::uint64_t wastedShpBytes_ = 0;
};

} // namespace softsku

#endif // SOFTSKU_OS_HUGEPAGE_HH

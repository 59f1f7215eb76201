#include "os/hugepage.hh"

#include <algorithm>

#include "os/kernelfs.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

ThpMode
thpModeFromString(const std::string &text)
{
    std::string m = toLower(text);
    for (ThpMode mode : allThpModes()) {
        if (thpModeName(mode) == m)
            return mode;
    }
    fatal("unknown THP mode '%s'", text.c_str());
}

std::string
thpModeName(ThpMode mode)
{
    switch (mode) {
      case ThpMode::Madvise: return "madvise";
      case ThpMode::Always: return "always";
      case ThpMode::Never: return "never";
    }
    panic("unreachable THP mode");
}

std::vector<ThpMode>
allThpModes()
{
    return {ThpMode::Madvise, ThpMode::Always, ThpMode::Never};
}

HugePagePolicy
HugePagePolicy::fromKernelFs(const KernelFs &fs)
{
    HugePagePolicy policy;
    policy.thp = thpModeFromString(fs.thpMode());
    policy.shpCount = fs.nrHugepages();
    return policy;
}

void
HugePagePolicy::applyTo(KernelFs &fs) const
{
    fs.setThpMode(thpModeName(thp));
    fs.setNrHugepages(shpCount);
}

bool
RegionMapping::isHugeAddress(std::uint64_t addr) const
{
    if (hugeFraction <= 0.0)
        return false;
    if (hugeFraction >= 1.0)
        return true;
    std::uint64_t chunk = addr / kPage2m;
    double u = static_cast<double>(mix64(chunk) >> 11) * 0x1.0p-53;
    return u < hugeFraction;
}

PageMapper::PageMapper(std::vector<VirtualRegion> regions,
                       const HugePagePolicy &policy)
    : regions_(std::move(regions))
{
    std::uint64_t shpBytesLeft =
        static_cast<std::uint64_t>(std::max(policy.shpCount, 0)) * kPage2m;

    mappings_.reserve(regions_.size());
    for (const VirtualRegion &region : regions_) {
        RegionMapping m;
        m.region = &region;

        // SHP first: explicit reservations take priority and are only
        // consumable by regions allocated through the hugetlbfs API.
        if (region.usesShpApi && shpBytesLeft > 0) {
            std::uint64_t usable = std::min(region.sizeBytes, shpBytesLeft);
            // hugetlbfs allocations are 2 MiB-granular.
            usable -= usable % kPage2m;
            m.hugeBytes = usable;
            shpBytesLeft -= usable;
        }

        // THP covers the remainder of eligible anonymous regions.
        bool thpEligible = false;
        switch (policy.thp) {
          case ThpMode::Always:
            thpEligible = region.kind != RegionKind::Stack;
            break;
          case ThpMode::Madvise:
            thpEligible = region.madviseHuge;
            break;
          case ThpMode::Never:
            thpEligible = false;
            break;
        }
        if (thpEligible) {
            std::uint64_t remaining = region.sizeBytes - m.hugeBytes;
            auto extra = static_cast<std::uint64_t>(
                static_cast<double>(remaining) * region.thpFriendliness);
            extra -= extra % kPage2m;
            m.hugeBytes += extra;
        }

        m.hugeFraction =
            region.sizeBytes > 0
                ? static_cast<double>(m.hugeBytes) /
                      static_cast<double>(region.sizeBytes)
                : 0.0;
        mappings_.push_back(m);
    }

    wastedShpBytes_ = shpBytesLeft;
}

const RegionMapping *
PageMapper::mappingFor(std::uint64_t addr) const
{
    for (const RegionMapping &m : mappings_) {
        if (addr >= m.region->base &&
            addr < m.region->base + m.region->sizeBytes) {
            return &m;
        }
    }
    return nullptr;
}

std::uint64_t
PageMapper::totalHugeBytes() const
{
    std::uint64_t total = 0;
    for (const RegionMapping &m : mappings_)
        total += m.hugeBytes;
    return total;
}

std::uint64_t
PageMapper::pageSizeAt(std::uint64_t addr) const
{
    const RegionMapping *m = mappingFor(addr);
    if (m && m->isHugeAddress(addr))
        return kPage2m;
    return kPage4k;
}

} // namespace softsku

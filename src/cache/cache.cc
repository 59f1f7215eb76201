#include "cache/cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace softsku {

double
CacheStats::mpki(AccessType type, std::uint64_t instructions) const
{
    if (instructions == 0)
        return 0.0;
    return static_cast<double>(misses[static_cast<int>(type)]) * 1000.0 /
           static_cast<double>(instructions);
}

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry &geometry,
                             ReplPolicy policy)
    : name_(std::move(name)), sets_(geometry.sets()), ways_(geometry.ways),
      policy_(policy)
{
    SOFTSKU_ASSERT(ways_ > 0 && ways_ <= 64);
    SOFTSKU_ASSERT(sets_ > 0);
    std::uint64_t all = ways_ == 64 ? ~0ULL : ((1ULL << ways_) - 1);
    wayMask_[0] = all;
    wayMask_[1] = all;
    lines_.assign(sets_ * static_cast<std::uint64_t>(ways_), Line{});
}

bool
SetAssocCache::touch(std::uint64_t lineAddr, AccessType type)
{
    return doAccess(lineAddr, type, false, false);
}

bool
SetAssocCache::access(std::uint64_t lineAddr, AccessType type,
                      bool isPrefetch)
{
    return doAccess(lineAddr, type, isPrefetch, true);
}

bool
SetAssocCache::doAccess(std::uint64_t lineAddr, AccessType type,
                        bool isPrefetch, bool record)
{
    std::uint64_t setIndex = lineAddr % sets_;
    std::uint64_t tag = lineAddr / sets_;
    Line *set = setBase(setIndex);
    ++useClock_;

    int typeIdx = static_cast<int>(type);
    if (record && !isPrefetch)
        ++stats_.accesses[typeIdx];

    // Hits may land in any way, regardless of partitioning.
    for (int w = 0; w < ways_; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock_;
            line.rrpv = 0;    // promote on re-reference
            if (record && !isPrefetch && line.prefetched) {
                ++stats_.prefetchUseful;
                line.prefetched = false;
            }
            return true;
        }
    }

    if (record && !isPrefetch)
        ++stats_.misses[typeIdx];

    // Allocate only within the type's way mask, preferring an invalid
    // way, then the policy's victim.
    std::uint64_t mask = wayMask_[typeIdx];
    int victim = -1;
    for (int w = 0; w < ways_; ++w) {
        if ((mask & (1ULL << w)) && !set[w].valid) {
            victim = w;
            break;
        }
    }
    if (victim < 0) {
        victim = policy_ == ReplPolicy::Srrip ? findVictimSrrip(set, mask)
                                              : findVictimLru(set, mask);
    }
    if (victim < 0) {
        // Way mask empty for this type: the access bypasses the cache.
        return false;
    }

    Line &line = set[victim];
    if (record && line.valid)
        ++stats_.evictions;
    line.valid = true;
    line.tag = tag;
    line.lastUse = useClock_;
    // SRRIP insertion: demand lines get a long predicted interval,
    // prefetches the longest (evicted first if never referenced).
    line.rrpv = isPrefetch ? 3 : 2;
    line.prefetched = isPrefetch;
    if (record && isPrefetch)
        ++stats_.prefetchFills;
    return false;
}

int
SetAssocCache::findVictimLru(Line *set, std::uint64_t mask) const
{
    int victim = -1;
    std::uint64_t oldest = ~0ULL;
    for (int w = 0; w < ways_; ++w) {
        if (!(mask & (1ULL << w)))
            continue;
        if (set[w].lastUse < oldest) {
            oldest = set[w].lastUse;
            victim = w;
        }
    }
    return victim;
}

int
SetAssocCache::findVictimSrrip(Line *set, std::uint64_t mask) const
{
    if ((mask & ((ways_ == 64) ? ~0ULL : ((1ULL << ways_) - 1))) == 0)
        return -1;
    // Find a line predicted "distant" (rrpv == 3); if none, age the
    // permitted ways and retry — guaranteed to terminate.
    while (true) {
        for (int w = 0; w < ways_; ++w) {
            if ((mask & (1ULL << w)) && set[w].rrpv >= 3)
                return w;
        }
        for (int w = 0; w < ways_; ++w) {
            if (mask & (1ULL << w))
                ++set[w].rrpv;
        }
    }
}

bool
SetAssocCache::probe(std::uint64_t lineAddr) const
{
    std::uint64_t setIndex = lineAddr % sets_;
    std::uint64_t tag = lineAddr / sets_;
    const Line *set = setBase(setIndex);
    for (int w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

void
SetAssocCache::flush()
{
    for (Line &line : lines_)
        line.valid = false;
}

void
SetAssocCache::disturb(double fraction, Rng &rng)
{
    if (fraction <= 0.0)
        return;
    for (Line &line : lines_) {
        if (line.valid && rng.chance(fraction))
            line.valid = false;
    }
}

void
SetAssocCache::setWayMask(AccessType type, std::uint64_t mask)
{
    std::uint64_t all = ways_ == 64 ? ~0ULL : ((1ULL << ways_) - 1);
    wayMask_[static_cast<int>(type)] = mask & all;
}

void
SetAssocCache::clearWayMasks()
{
    std::uint64_t all = ways_ == 64 ? ~0ULL : ((1ULL << ways_) - 1);
    wayMask_[0] = all;
    wayMask_[1] = all;
}

std::uint64_t
SetAssocCache::residentLines() const
{
    std::uint64_t n = 0;
    for (const Line &line : lines_)
        n += line.valid;
    return n;
}

} // namespace softsku

/**
 * @file
 * Trace-driven set-associative cache model with code/data-typed
 * accesses, way partitioning (Intel CAT), and code/data prioritization
 * (Intel CDP).
 *
 * The characterization half of the paper leans on per-level code vs
 * data MPKI (Figs 8-10) and μSKU's CDP knob repartitions LLC ways
 * between code and data (Fig 16); both behaviours fall directly out of
 * this model.  CDP semantics follow the hardware: *allocation* is
 * restricted to the ways in the access type's mask, while *lookups* hit
 * in any way.
 */

#ifndef SOFTSKU_CACHE_CACHE_HH
#define SOFTSKU_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/platform.hh"
#include "stats/rng.hh"
#include "util/page_allocator.hh"

namespace softsku {

/** Classification of a cache access for typed stats and CDP. */
enum class AccessType { Code = 0, Data = 1 };

/**
 * Replacement policy.  L1/L2 behave like true LRU; shared LLCs use
 * re-reference interval prediction (SRRIP): new lines enter with a
 * long predicted re-reference interval (prefetches longest) and are
 * promoted on re-use, so single-use streaming data is evicted before
 * frequently re-referenced code/hot lines — the scan resistance real
 * server LLCs rely on.
 */
enum class ReplPolicy { Lru, Srrip };

/** Per-type hit/miss counters for one cache. */
struct CacheStats
{
    std::uint64_t accesses[2] = {0, 0};       //!< by AccessType
    std::uint64_t misses[2] = {0, 0};
    std::uint64_t prefetchFills = 0;          //!< lines installed by pf
    std::uint64_t prefetchUseful = 0;         //!< pf lines later demanded
    std::uint64_t evictions = 0;

    std::uint64_t totalAccesses() const { return accesses[0] + accesses[1]; }
    std::uint64_t totalMisses() const { return misses[0] + misses[1]; }

    /** Misses per kilo-instruction for one type. */
    double mpki(AccessType type, std::uint64_t instructions) const;

    void clear() { *this = CacheStats(); }

    /** Exact equality, so whole results can be compared bit for bit. */
    bool operator==(const CacheStats &) const = default;
};

/**
 * One set-associative cache level.
 *
 * Replacement is LRU within the ways the access type is allowed to
 * allocate into.  Addresses are *line* addresses (byte address divided
 * by the line size) — callers shift once at the boundary.
 */
class SetAssocCache
{
  public:
    /**
     * @param name     for diagnostics
     * @param geometry size/ways/line from the platform spec
     * @param policy   replacement policy (LRU default)
     */
    SetAssocCache(std::string name, const CacheGeometry &geometry,
                  ReplPolicy policy = ReplPolicy::Lru);

    /**
     * Look up a line; on a miss the line is installed (allocating only
     * within the access type's way mask).
     *
     * @param lineAddr   line-granular address
     * @param type       code or data
     * @param isPrefetch true when installed on behalf of a prefetcher
     * @return true on hit
     */
    bool access(std::uint64_t lineAddr, AccessType type,
                bool isPrefetch = false);

    /**
     * Same allocation behaviour as access(), but records no stats —
     * used to model interference from other cores sharing this cache.
     * @return true on hit
     */
    bool touch(std::uint64_t lineAddr, AccessType type);

    /** Non-allocating presence check. */
    bool probe(std::uint64_t lineAddr) const;

    /** Invalidate every line (full flush). */
    void flush();

    /**
     * Invalidate a random fraction of resident lines — the disturbance
     * a context switch or competing thread inflicts.
     */
    void disturb(double fraction, Rng &rng);

    /**
     * Restrict allocation for @p type to the ways set in @p mask
     * (bit i = way i).  Used for CAT capacity sweeps and CDP.
     */
    void setWayMask(AccessType type, std::uint64_t mask);

    /** Allow both types to allocate anywhere (the production default). */
    void clearWayMasks();

    /** Current allocation mask for @p type. */
    std::uint64_t wayMask(AccessType type) const
    {
        return wayMask_[static_cast<int>(type)];
    }

    const CacheStats &stats() const { return stats_; }
    CacheStats &stats() { return stats_; }

    const std::string &name() const { return name_; }
    int ways() const { return ways_; }
    std::uint64_t sets() const { return sets_; }

    /** Number of currently valid lines (testing/diagnostics). */
    std::uint64_t residentLines() const;

  private:
    bool doAccess(std::uint64_t lineAddr, AccessType type, bool isPrefetch,
                  bool record);

    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        std::uint8_t rrpv = 3;
        bool valid = false;
        bool prefetched = false;
    };

    int findVictimLru(Line *set, std::uint64_t mask) const;
    int findVictimSrrip(Line *set, std::uint64_t mask) const;

    Line *setBase(std::uint64_t setIndex)
    {
        return &lines_[setIndex * static_cast<std::uint64_t>(ways_)];
    }
    const Line *setBase(std::uint64_t setIndex) const
    {
        return &lines_[setIndex * static_cast<std::uint64_t>(ways_)];
    }

    std::string name_;
    std::uint64_t sets_;
    int ways_;
    ReplPolicy policy_;
    std::uint64_t wayMask_[2];
    PageVector<Line> lines_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

} // namespace softsku

#endif // SOFTSKU_CACHE_CACHE_HH

/**
 * @file
 * Two-level TLB model with mixed 4 KiB / 2 MiB pages.
 *
 * ITLB and DTLB miss rates (paper Fig 11) drive the huge-page knobs:
 * THP/SHP move regions onto 2 MiB pages, multiplying TLB reach by 512
 * for covered bytes.  The model keeps separate entry arrays per page
 * size in the first level (as Intel cores do) and a unified
 * second-level STLB; misses cost a page walk.
 */

#ifndef SOFTSKU_TLB_TLB_HH
#define SOFTSKU_TLB_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/platform.hh"
#include "stats/rng.hh"

namespace softsku {

/** Hit/miss counters for one TLB level. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t misses4k = 0;
    std::uint64_t misses2m = 0;

    double mpki(std::uint64_t instructions) const
    {
        if (instructions == 0)
            return 0.0;
        return static_cast<double>(misses) * 1000.0 /
               static_cast<double>(instructions);
    }

    void clear() { *this = TlbStats(); }

    /** Exact equality, so whole results can be compared bit for bit. */
    bool operator==(const TlbStats &) const = default;
};

/**
 * One TLB level: separate set-associative arrays for 4 KiB and 2 MiB
 * translations (entries per the platform's TlbGeometry).
 */
class Tlb
{
  public:
    Tlb(std::string name, const TlbGeometry &geometry);

    /**
     * Translate the page containing @p vaddr.
     * @param vaddr     virtual byte address
     * @param pageBytes backing page size (4 KiB or 2 MiB)
     * @return true on hit; on miss the translation is installed
     */
    bool access(std::uint64_t vaddr, std::uint64_t pageBytes);

    /** Non-allocating presence check. */
    bool probe(std::uint64_t vaddr, std::uint64_t pageBytes) const;

    /** Drop every translation (full flush, e.g. address-space switch). */
    void flush();

    /** Invalidate a random fraction of entries (context-switch churn). */
    void disturb(double fraction, Rng &rng);

    const TlbStats &stats() const { return stats_; }
    TlbStats &stats() { return stats_; }
    const std::string &name() const { return name_; }

    /** Total translatable bytes if every entry were used (reach). */
    std::uint64_t reachBytes() const;

  private:
    struct Entry
    {
        std::uint64_t pageNumber = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    struct Array
    {
        std::vector<Entry> entries;
        std::uint64_t sets = 0;
        int ways = 0;
    };

    bool lookupIn(Array &arr, std::uint64_t pageNumber, bool allocate);
    static Array makeArray(int entries, int ways);

    std::string name_;
    Array array4k_;
    Array array2m_;
    std::uint64_t useClock_ = 0;
    TlbStats stats_;
};

/**
 * A private two-level TLB: an L1 for the access's kind (ITLB or DTLB)
 * backed by a unified STLB shared between code and data.  Returns how
 * deep the translation had to go so the CPI model can charge the right
 * latency.
 */
class TwoLevelTlb
{
  public:
    /** Where a translation was satisfied. */
    enum class Outcome { L1Hit, StlbHit, PageWalk };

    TwoLevelTlb(std::string name, const TlbGeometry &l1Geometry,
                const TlbGeometry &stlbGeometry);

    /** Translate; installs into both levels on a walk. */
    Outcome access(std::uint64_t vaddr, std::uint64_t pageBytes);

    /** Flush both levels. */
    void flush();

    /** Disturb both levels (context switch). */
    void disturb(double fraction, Rng &rng);

    const Tlb &l1() const { return l1_; }
    const Tlb &stlb() const { return stlb_; }
    Tlb &l1() { return l1_; }
    Tlb &stlb() { return stlb_; }

    /** Page walks performed. */
    std::uint64_t walks() const { return walks_; }

  private:
    Tlb l1_;
    Tlb stlb_;
    std::uint64_t walks_ = 0;
};

} // namespace softsku

#endif // SOFTSKU_TLB_TLB_HH

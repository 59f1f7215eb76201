/**
 * @file
 * Synthetic data-access stream generator.
 *
 * Each profile data region generates addresses by its declared pattern:
 * sequential streams, fixed strides (dense feature vectors), Zipf-
 * weighted random chunks (hash tables, object caches), or dependent
 * pointer chases.  The pattern also fixes the memory-level parallelism
 * the CPI model may assume when overlapping misses from that region.
 */

#ifndef SOFTSKU_WORKLOAD_DATAGEN_HH
#define SOFTSKU_WORKLOAD_DATAGEN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "stats/distributions.hh"
#include "stats/rng.hh"
#include "workload/address_space.hh"
#include "workload/profile.hh"

namespace softsku {

/** One generated data access. */
struct DataAccess
{
    std::uint64_t addr = 0;
    /** Overlap factor the CPI model may assume for a miss here. */
    double mlp = 1.0;
    /** Index of the generating region in the profile's region list. */
    std::uint32_t regionIndex = 0;
    /**
     * For strided/sequential regions: the stable program counter of
     * the load in the traversal loop.  Stride prefetchers key on the
     * PC, so a stable one lets the DCU IP prefetcher lock onto the
     * stream exactly as it does for real array traversals.  Zero for
     * irregular accesses (use the architectural PC).
     */
    std::uint64_t streamPc = 0;
};

/** Streaming data-address generator for one hardware thread. */
class DataGenerator
{
  public:
    /**
     * @param profile workload being modelled
     * @param space   resolved address-space layout
     * @param seed    stream seed
     */
    DataGenerator(const WorkloadProfile &profile, const AddressSpace &space,
                  std::uint64_t seed);

    /** Generate the next data access (loads and stores share streams). */
    DataAccess next();

    /** Model a thread switch: restart cursors in a different request. */
    void switchThread();

    /** Region @p index's popularity table; null unless it is a Random
     *  or PointerChase region. */
    std::shared_ptr<const ZipfDistribution>
    zipfTable(std::uint32_t index) const
    {
        return regions_[index].chunkZipf;
    }

  private:
    /** Generate a fresh address by the selected region's pattern. */
    DataAccess fresh();

    struct RegionState
    {
        const DataRegionSpec *spec = nullptr;
        std::uint64_t base = 0;
        std::uint64_t size = 0;
        std::uint64_t cursor = 0;
        /** Shared with every live generator that has a region of the
         *  same size and skew (sharedZipf in datagen.cc). */
        std::shared_ptr<const ZipfDistribution> chunkZipf;
        std::uint64_t chunkCount = 0;
        double mlp = 1.0;
    };

    const WorkloadProfile &profile_;
    Rng rng_;
    DiscreteDistribution regionChoice_;
    std::vector<RegionState> regions_;

    /** Ring of recently issued accesses for the temporal-reuse layer. */
    std::vector<DataAccess> reuseRing_;
    size_t reuseCursor_ = 0;

    /** Large ring of recent fresh lines: request-scoped (LLC-scale)
     *  reuse distances. */
    std::vector<DataAccess> midRing_;
    size_t midCursor_ = 0;
};

} // namespace softsku

#endif // SOFTSKU_WORKLOAD_DATAGEN_HH

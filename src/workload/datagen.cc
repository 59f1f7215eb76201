#include "workload/datagen.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "util/logging.hh"

namespace softsku {

namespace {

std::vector<double>
regionWeights(const WorkloadProfile &profile)
{
    std::vector<double> weights;
    weights.reserve(profile.dataRegions.size());
    for (const DataRegionSpec &spec : profile.dataRegions)
        weights.push_back(spec.weight);
    return weights;
}

/**
 * The Zipf table for (@p n, @p skew), shared by every generator alive
 * at once: concurrent simulations of one service (sweep tasks pricing
 * different configurations) build its multi-MiB CDF once, and it is
 * freed when the last of them ends.  The registry holds only weak
 * references, so no table outlives its users.  Skew is compared by bit
 * pattern: equal tables need bitwise-equal inputs.
 */
std::shared_ptr<const ZipfDistribution>
sharedZipf(std::uint64_t n, double skew)
{
    using Key = std::pair<std::uint64_t, std::uint64_t>;
    static std::mutex mutex;
    static std::map<Key, std::weak_ptr<const ZipfDistribution>> tables;
    const Key key{n, std::bit_cast<std::uint64_t>(skew)};
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = tables.find(key);
        if (it != tables.end()) {
            if (auto live = it->second.lock())
                return live;
        }
    }
    // Build outside the lock so generators of other tables never wait
    // on this one.  A racing builder of the same table loses below and
    // its copy is freed on return.
    auto built = std::make_shared<const ZipfDistribution>(n, skew);
    std::lock_guard<std::mutex> lock(mutex);
    std::erase_if(tables, [](const auto &entry) {
        return entry.second.expired();
    });
    std::weak_ptr<const ZipfDistribution> &slot = tables[key];
    if (auto live = slot.lock())
        return live;
    slot = built;
    return built;
}

} // namespace

DataGenerator::DataGenerator(const WorkloadProfile &profile,
                             const AddressSpace &space, std::uint64_t seed)
    : profile_(profile), rng_(seed), regionChoice_(regionWeights(profile))
{
    SOFTSKU_ASSERT(space.dataBases.size() == profile.dataRegions.size());
    regions_.reserve(profile.dataRegions.size());
    for (size_t i = 0; i < profile.dataRegions.size(); ++i) {
        RegionState state;
        state.spec = &profile.dataRegions[i];
        state.base = space.dataBases[i];
        state.size = state.spec->sizeBytes;
        state.cursor = 0;
        switch (state.spec->pattern) {
          case DataPattern::Sequential:
            state.mlp = std::min(profile.dataMlp * 1.5, 10.0);
            break;
          case DataPattern::Strided:
            state.mlp = profile.dataMlp;
            break;
          case DataPattern::Random:
            state.mlp = profile.dataMlp;
            break;
          case DataPattern::PointerChase:
            state.mlp = 1.0;
            break;
        }
        if (state.spec->pattern == DataPattern::Random ||
            state.spec->pattern == DataPattern::PointerChase) {
            // Line-granular popularity: rank r maps to line r of the
            // region, so hot lines are truly hot (cache-resident) and
            // cluster into hot pages (TLB-resident).  The Zipf spans
            // the declared hot subset; the cold remainder is reached
            // via the region's coldFraction.
            std::uint64_t lines =
                std::max<std::uint64_t>(1, state.size / 64);
            std::uint64_t hotLines =
                state.spec->hotBytes > 0
                    ? std::min<std::uint64_t>(state.spec->hotBytes / 64,
                                              lines)
                    : lines;
            state.chunkCount = hotLines;
            state.chunkZipf = sharedZipf(hotLines, state.spec->zipfSkew);
        }
        regions_.push_back(std::move(state));
    }
}

DataAccess
DataGenerator::next()
{
    // Temporal-reuse layer: the bulk of data accesses re-touch one of
    // the last few distinct lines (stack slots, the object being
    // operated on) — this is what gives real services their ~95% L1-D
    // hit rates.  The fresh remainder follows the region patterns and
    // drives the L2/LLC/DRAM miss profile, with mid-level reuse coming
    // from hot Zipf chunks and prefetched streams.
    constexpr size_t kNearWindow = 64;
    if (!reuseRing_.empty() && rng_.chance(profile_.dataReuseFraction)) {
        size_t window = std::min(reuseRing_.size(), kNearWindow);
        size_t age = rng_.below(window);
        size_t idx =
            (reuseCursor_ + reuseRing_.size() - 1 - age) % reuseRing_.size();
        DataAccess reused = reuseRing_[idx];
        // Re-touches are not part of the traversal loop: routing them
        // through the stream PC would scramble the stride predictor.
        reused.streamPc = 0;
        return reused;
    }

    // Mid-distance reuse: request-scoped objects revisited after the
    // L1/L2 forgot them but while the LLC (absent contention) still
    // remembers.
    constexpr size_t kMidWindow = 65536;
    if (!midRing_.empty() &&
        rng_.chance(profile_.dataMidReuseFraction)) {
        DataAccess reused = midRing_[rng_.below(midRing_.size())];
        reused.streamPc = 0;
        return reused;
    }

    DataAccess access = fresh();
    if (reuseRing_.size() < kNearWindow) {
        reuseRing_.push_back(access);
        reuseCursor_ = reuseRing_.size() % kNearWindow;
    } else {
        reuseRing_[reuseCursor_] = access;
        reuseCursor_ = (reuseCursor_ + 1) % kNearWindow;
    }
    if (midRing_.size() < kMidWindow) {
        midRing_.push_back(access);
        midCursor_ = midRing_.size() % kMidWindow;
    } else {
        midRing_[midCursor_] = access;
        midCursor_ = (midCursor_ + 1) % kMidWindow;
    }
    return access;
}

DataAccess
DataGenerator::fresh()
{
    std::uint32_t index = regionChoice_.sample(rng_);
    RegionState &region = regions_[index];
    DataAccess access;
    access.mlp = region.mlp;
    access.regionIndex = index;

    switch (region.spec->pattern) {
      case DataPattern::Sequential:
        region.cursor = (region.cursor + 64) % region.size;
        access.addr = region.base + region.cursor;
        access.streamPc = 0x7000 + index * 64;
        break;

      case DataPattern::Strided:
        region.cursor =
            (region.cursor + region.spec->strideBytes) % region.size;
        access.addr = region.base + region.cursor;
        access.streamPc = 0x7000 + index * 64;
        break;

      case DataPattern::Random:
      case DataPattern::PointerChase: {
        // Popularity-weighted line within the hot subset, or a uniform
        // draw from the cold remainder (compulsory-miss traffic).
        std::uint64_t line;
        std::uint64_t totalLines = region.size / 64;
        if (region.spec->coldFraction > 0.0 &&
            rng_.chance(region.spec->coldFraction)) {
            line = rng_.below(totalLines);
        } else {
            line = region.chunkZipf->sample(rng_);
        }
        access.addr = region.base + line * 64;
        break;
      }
    }
    return access;
}

void
DataGenerator::switchThread()
{
    for (RegionState &region : regions_) {
        if (region.size > 0)
            region.cursor = rng_.below(region.size) & ~63ull;
    }
}

} // namespace softsku

#include "telemetry/ods.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

OdsRetention
OdsRetention::fleetScale()
{
    OdsRetention r;
    r.rawHorizonSec = 3600.0;
    r.midHorizonSec = 86400.0;
    r.longHorizonSec = 30.0 * 86400.0;
    return r;
}

OdsStore::OdsStore(const OdsStoreOptions &options) : options_(options)
{
    SOFTSKU_ASSERT(options_.shards > 0);
    SOFTSKU_ASSERT(options_.retention.midBucketSec > 0.0);
    SOFTSKU_ASSERT(options_.retention.longBucketSec >=
                   options_.retention.midBucketSec);
    shards_.reserve(options_.shards);
    for (size_t i = 0; i < options_.shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

size_t
OdsStore::shardIndex(const std::string &series) const
{
    // FNV-1a: cheap, deterministic across runs/platforms (unlike
    // std::hash), and well-mixed for the short dotted names ODS uses.
    return static_cast<size_t>(fnv1a64(series) % shards_.size());
}

void
OdsStore::append(const std::string &series, double timeSec, double value)
{
    Shard &shard = *shards_[shardIndex(series)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    Series &s = shard.series[series];
    if (s.everAppended && timeSec < s.newestSec) {
        warn("ODS series '%s': out-of-order append (%.3f after %.3f), "
             "clamping", series.c_str(), timeSec, s.newestSec);
        MetricsRegistry::global()
            .counter("ods.clamped_appends", MetricScope::Operational)
            .add(1);
        timeSec = s.newestSec;
    }
    s.raw.push_back({timeSec, value});
    s.newestSec = timeSec;
    s.everAppended = true;
}

void
OdsStore::recordSnapshot(const MetricsSnapshot &snapshot, double timeSec,
                         const std::string &prefix)
{
    for (const MetricRow &row : snapshot.rows) {
        const std::string name = prefix + row.name;
        switch (row.kind) {
        case MetricRow::Kind::Counter:
        case MetricRow::Kind::Gauge:
            append(name, timeSec, row.value);
            break;
        case MetricRow::Kind::Histogram:
            append(name + ".count", timeSec,
                   static_cast<double>(row.count));
            append(name + ".mean", timeSec, row.mean);
            append(name + ".p50", timeSec, row.p50);
            append(name + ".p95", timeSec, row.p95);
            append(name + ".p99", timeSec, row.p99);
            break;
        }
    }
}

bool
OdsStore::has(const std::string &series) const
{
    const Shard &shard = *shards_[shardIndex(series)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.series.find(series);
    if (it == shard.series.end())
        return false;
    const Series &s = it->second;
    return !s.raw.empty() || !s.mid.empty() || !s.longTerm.empty();
}

std::vector<OdsPoint>
OdsStore::query(const std::string &series, double fromSec,
                double toSec) const
{
    std::vector<OdsPoint> out;
    const Shard &shard = *shards_[shardIndex(series)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.series.find(series);
    if (it == shard.series.end())
        return out;
    const auto &points = it->second.raw;
    auto lo = std::lower_bound(points.begin(), points.end(), fromSec,
                               [](const OdsPoint &p, double t) {
                                   return p.timeSec < t;
                               });
    for (auto p = lo; p != points.end() && p->timeSec <= toSec; ++p)
        out.push_back(*p);
    return out;
}

OdsAggregate
OdsStore::aggregate(const std::string &series, double fromSec,
                    double toSec) const
{
    OdsAggregate agg;
    std::vector<double> rawValues;
    // Folded-window accumulator: exact count/sum/min/max carried
    // alongside dense per-bin tallies.  Dense (one flat array indexed
    // by bin, allocated once per query) so folding B buckets costs B
    // sparse walks with no per-bucket vector allocation — the O(bins)
    // promise of the rollup path.
    std::vector<std::uint64_t> dense;
    std::uint64_t foldedCount = 0;
    double foldedSum = 0.0;
    double foldedMin = 0.0, foldedMax = 0.0;

    {
        const Shard &shard = *shards_[shardIndex(series)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.series.find(series);
        if (it == shard.series.end())
            return agg;
        const Series &s = it->second;

        // A bucket contributes when its [start, start + width) span
        // overlaps the window.
        auto foldBuckets = [&](const std::deque<Bucket> &buckets,
                               double widthSec) {
            for (const Bucket &b : buckets) {
                if (b.startSec + widthSec <= fromSec ||
                    b.startSec > toSec || b.sketch.count() == 0)
                    continue;
                if (dense.empty())
                    dense.assign(options_.sketchLayout.bins(), 0);
                for (const auto &[bin, count] : b.sketch.bins())
                    dense[bin] += count;
                if (foldedCount == 0) {
                    foldedMin = b.sketch.min();
                    foldedMax = b.sketch.max();
                } else {
                    foldedMin = std::min(foldedMin, b.sketch.min());
                    foldedMax = std::max(foldedMax, b.sketch.max());
                }
                foldedCount += b.sketch.count();
                foldedSum += b.sketch.sum();
            }
        };
        foldBuckets(s.longTerm, options_.retention.longBucketSec);
        foldBuckets(s.mid, options_.retention.midBucketSec);

        auto lo = std::lower_bound(
            s.raw.begin(), s.raw.end(), fromSec,
            [](const OdsPoint &p, double t) { return p.timeSec < t; });
        for (auto p = lo; p != s.raw.end() && p->timeSec <= toSec; ++p)
            rawValues.push_back(p->value);
    }

    if (foldedCount == 0) {
        // Raw-only window: exact statistics.  Percentiles via
        // selection — three nth_element passes beat one full sort.
        if (rawValues.empty())
            return agg;
        agg.count = rawValues.size();
        double sum = 0.0;
        agg.min = rawValues.front();
        agg.max = rawValues.front();
        for (double v : rawValues) {
            sum += v;
            agg.min = std::min(agg.min, v);
            agg.max = std::max(agg.max, v);
        }
        agg.mean = sum / static_cast<double>(rawValues.size());
        auto nearestRank = [&](double q) {
            auto rank = static_cast<std::uint64_t>(
                std::ceil(q * static_cast<double>(rawValues.size())));
            rank = std::clamp<std::uint64_t>(rank, 1, rawValues.size());
            auto nth = rawValues.begin() +
                       static_cast<std::ptrdiff_t>(rank - 1);
            std::nth_element(rawValues.begin(), nth, rawValues.end());
            return *nth;
        };
        agg.p50 = nearestRank(0.50);
        agg.p95 = nearestRank(0.95);
        agg.p99 = nearestRank(0.99);
        return agg;
    }

    // Rollup buckets overlap the window: fold the raw tail into the
    // dense tallies and answer from them — O(bins), independent of how
    // many samples the buckets summarize.
    const LogBinLayout &layout = options_.sketchLayout;
    for (double v : rawValues) {
        dense[layout.binFor(v)] += 1;
        foldedMin = std::min(foldedMin, v);
        foldedMax = std::max(foldedMax, v);
        foldedCount += 1;
        foldedSum += v;
    }
    agg.count = foldedCount;
    agg.mean = foldedSum / static_cast<double>(foldedCount);
    agg.min = foldedMin;
    agg.max = foldedMax;
    // One cumulative scan serves all three nearest-rank percentiles.
    auto rankFor = [&](double q) {
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(foldedCount)));
        return std::clamp<std::uint64_t>(rank, 1, foldedCount);
    };
    const std::uint64_t r50 = rankFor(0.50), r95 = rankFor(0.95),
                        r99 = rankFor(0.99);
    std::uint64_t seen = 0;
    // No value below foldedMin, so no occupied bin below its bin —
    // start the cumulative scan there instead of at zero.
    for (size_t bin = layout.binFor(foldedMin); bin < dense.size();
         ++bin) {
        if (dense[bin] == 0)
            continue;
        std::uint64_t prev = seen;
        seen += dense[bin];
        double center =
            std::clamp(layout.binCenter(bin), foldedMin, foldedMax);
        if (prev < r50 && seen >= r50)
            agg.p50 = center;
        if (prev < r95 && seen >= r95)
            agg.p95 = center;
        if (prev < r99 && seen >= r99)
            agg.p99 = center;
        if (seen >= r99)
            break;
    }
    agg.approximate = true;
    return agg;
}

std::vector<std::string>
OdsStore::seriesNames() const
{
    std::vector<std::string> names;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[name, s] : shard->series) {
            (void)s;
            names.push_back(name);
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

void
OdsStore::retain(double horizonSec)
{
    std::uint64_t dropped = 0;
    for (auto &shardPtr : shards_) {
        Shard &shard = *shardPtr;
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (auto &[name, s] : shard.series) {
            (void)name;
            if (!s.everAppended)
                continue;
            double cutoff = s.newestSec - horizonSec;
            auto keepFrom = std::lower_bound(
                s.raw.begin(), s.raw.end(), cutoff,
                [](const OdsPoint &p, double t) {
                    return p.timeSec < t;
                });
            dropped += static_cast<std::uint64_t>(keepFrom -
                                                  s.raw.begin());
            s.raw.erase(s.raw.begin(), keepFrom);
            auto ageBuckets = [&](std::deque<Bucket> &buckets,
                                  double widthSec) {
                while (!buckets.empty() &&
                       buckets.front().startSec + widthSec <= cutoff) {
                    dropped += buckets.front().sketch.count();
                    buckets.pop_front();
                }
            };
            ageBuckets(s.mid, options_.retention.midBucketSec);
            ageBuckets(s.longTerm, options_.retention.longBucketSec);
        }
    }
    if (dropped > 0) {
        droppedPoints_.fetch_add(dropped, std::memory_order_relaxed);
        traceInstant("ods", "ods.retention");
    }
}

void
OdsStore::foldSeries(Series &s, double nowSec)
{
    const OdsRetention &r = options_.retention;

    // Raw → mid: fold points older than the raw horizon into the mid
    // bucket containing their timestamp.  Raw points are time-sorted,
    // so this walks a prefix and appends monotonically to the deque.
    double rawCutoff = nowSec - r.rawHorizonSec;
    auto foldUpTo = std::lower_bound(
        s.raw.begin(), s.raw.end(), rawCutoff,
        [](const OdsPoint &p, double t) { return p.timeSec < t; });
    std::uint64_t foldedCount = 0;
    for (auto p = s.raw.begin(); p != foldUpTo; ++p) {
        double start = std::floor(p->timeSec / r.midBucketSec) *
                       r.midBucketSec;
        if (s.mid.empty() || s.mid.back().startSec < start) {
            Bucket b;
            b.startSec = start;
            b.sketch = OdsSketch(options_.sketchLayout);
            s.mid.push_back(std::move(b));
        }
        s.mid.back().sketch.add(p->value);
        ++foldedCount;
    }
    s.raw.erase(s.raw.begin(), foldUpTo);

    // Mid → long: merge whole mid buckets past their horizon into the
    // long bucket covering them.  Sketch merges are exact, so a long
    // bucket equals the sketch of all its samples regardless of how
    // many mid-bucket steps built it.
    double midCutoff = nowSec - r.midHorizonSec;
    while (!s.mid.empty() &&
           s.mid.front().startSec + r.midBucketSec <= midCutoff) {
        Bucket &m = s.mid.front();
        double start = std::floor(m.startSec / r.longBucketSec) *
                       r.longBucketSec;
        if (s.longTerm.empty() || s.longTerm.back().startSec < start) {
            Bucket b;
            b.startSec = start;
            b.sketch = OdsSketch(options_.sketchLayout);
            s.longTerm.push_back(std::move(b));
        }
        s.longTerm.back().sketch.merge(m.sketch);
        s.mid.pop_front();
    }

    // Long: drop buckets past the final horizon.
    double longCutoff = nowSec - r.longHorizonSec;
    std::uint64_t droppedCount = 0;
    while (!s.longTerm.empty() &&
           s.longTerm.front().startSec + r.longBucketSec <= longCutoff) {
        droppedCount += s.longTerm.front().sketch.count();
        s.longTerm.pop_front();
    }

    if (foldedCount > 0)
        downsampledPoints_.fetch_add(foldedCount,
                                     std::memory_order_relaxed);
    if (droppedCount > 0)
        droppedPoints_.fetch_add(droppedCount,
                                 std::memory_order_relaxed);
}

void
OdsStore::downsample(double nowSec)
{
    if (!options_.retention.enabled())
        return;
    traceInstant("ods", "ods.downsample");
    for (auto &shardPtr : shards_) {
        Shard &shard = *shardPtr;
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (auto &[name, s] : shard.series) {
            (void)name;
            foldSeries(s, nowSec);
        }
    }
    MetricsRegistry::global()
        .counter("ods.downsample_passes", MetricScope::Operational)
        .add(1);
}

OdsStoreStats
OdsStore::stats() const
{
    OdsStoreStats out;
    for (const auto &shardPtr : shards_) {
        const Shard &shard = *shardPtr;
        std::lock_guard<std::mutex> lock(shard.mutex);
        std::uint64_t shardPoints = 0;
        for (const auto &[name, s] : shard.series) {
            (void)name;
            ++out.series;
            shardPoints += s.raw.size();
            out.rollupBuckets += s.mid.size() + s.longTerm.size();
        }
        out.rawPoints += shardPoints;
        out.shardMaxPoints = std::max(out.shardMaxPoints, shardPoints);
    }
    out.downsampledPoints =
        downsampledPoints_.load(std::memory_order_relaxed);
    out.droppedPoints = droppedPoints_.load(std::memory_order_relaxed);
    return out;
}

void
OdsStore::publishGauges() const
{
    OdsStoreStats s = stats();
    auto &reg = MetricsRegistry::global();
    reg.gauge("ods.series", MetricScope::Operational)
        .set(static_cast<double>(s.series));
    reg.gauge("ods.points", MetricScope::Operational)
        .set(static_cast<double>(s.rawPoints));
    reg.gauge("ods.rollup_buckets", MetricScope::Operational)
        .set(static_cast<double>(s.rollupBuckets));
    reg.gauge("ods.shard_max_points", MetricScope::Operational)
        .set(static_cast<double>(s.shardMaxPoints));
    reg.gauge("ods.downsampled_points", MetricScope::Operational)
        .set(static_cast<double>(s.downsampledPoints));
    reg.gauge("ods.dropped_points", MetricScope::Operational)
        .set(static_cast<double>(s.droppedPoints));
}

} // namespace softsku

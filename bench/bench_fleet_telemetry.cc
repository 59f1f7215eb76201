/**
 * @file
 * Fleet-scale telemetry: the sharded, rollup-backed ODS store against
 * the single-map baseline it replaced.
 *
 * The paper's ODS ingests samples from every server in the fleet while
 * dashboards and health checks pound it with windowed percentile
 * queries (Sec. 2.2).  This bench drives both store designs through
 * the same storm — 10⁴–10⁵ simulated servers, each streaming a latency
 * series while worker threads query full-history percentiles of
 * already-streamed servers — and enforces the claims:
 *
 *   1. Throughput: the sharded store with resolution rollups sustains
 *      at least --min-speedup (default 4x) the combined append+query
 *      throughput of a single-map, single-mutex store whose aggregate
 *      copies and sorts every sample in the window.  The win is
 *      algorithmic — O(buckets) sketch folds against O(n log n) sorts
 *      — so it holds at any core count.
 *   2. Fidelity: rolled-up aggregates match the exact baseline —
 *      count identical, mean to float tolerance, p99 within the log
 *      bin width (3%).
 *
 * `--json-out=FILE` dumps the numbers for BENCH_fleet_telemetry.json.
 * The CI smoke runs a small fleet with a relaxed --min-speedup; the
 * checked-in JSON comes from the full 10⁴-server run.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "telemetry/ods.hh"
#include "util/json.hh"

using namespace softsku;
using namespace softsku::bench;

namespace {

/**
 * The seed's store design, made thread-safe the only way a single map
 * can be: one mutex over everything.  Aggregation copies the window
 * and sorts it — exact, and O(n log n) per query.
 */
class BaselineStore
{
  public:
    void append(const std::string &series, double timeSec, double value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        series_[series].push_back({timeSec, value});
    }

    OdsAggregate aggregate(const std::string &series, double fromSec,
                           double toSec) const
    {
        std::vector<double> values;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = series_.find(series);
            if (it == series_.end())
                return {};
            for (const OdsPoint &p : it->second) {
                if (p.timeSec >= fromSec && p.timeSec <= toSec)
                    values.push_back(p.value);
            }
        }
        OdsAggregate agg;
        if (values.empty())
            return agg;
        std::sort(values.begin(), values.end());
        agg.count = values.size();
        double sum = 0.0;
        for (double v : values)
            sum += v;
        agg.mean = sum / static_cast<double>(values.size());
        agg.min = values.front();
        agg.max = values.back();
        auto nearestRank = [&](double q) {
            auto rank = static_cast<size_t>(
                std::ceil(q * static_cast<double>(values.size())));
            rank = std::clamp<size_t>(rank, 1, values.size());
            return values[rank - 1];
        };
        agg.p50 = nearestRank(0.50);
        agg.p95 = nearestRank(0.95);
        agg.p99 = nearestRank(0.99);
        return agg;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::vector<OdsPoint>> series_;
};

/** Deterministic per-(server, sample) latency: diurnal-ish wave plus a
 *  heavy tail every 97th sample — a p99 worth measuring. */
double
sampleValue(int server, int i)
{
    double base = 100.0 + static_cast<double>(server % 17);
    double wave = 10.0 * std::sin(static_cast<double>(i) * 0.05);
    double v = base + wave;
    if (i % 97 == 0)
        v *= 3.0;
    return v;
}

struct Workload
{
    int servers = 10000;
    int pointsPerServer = 1440;  //!< 2.5s cadence over one hour
    int queriesPerServer = 300;  //!< full-window percentile reads
    int threads = 4;
    double spanSec = 3600.0;
};

struct PhaseResult
{
    double wallSec = 0.0;
    std::uint64_t appends = 0;
    std::uint64_t queries = 0;

    double throughput() const
    {
        return wallSec > 0.0
                   ? static_cast<double>(appends + queries) / wallSec
                   : 0.0;
    }
};

std::string
serverSeries(int server)
{
    return "fleet.bench.server" + std::to_string(server) + ".latency";
}

/**
 * Run the storm against one store.  Threads own disjoint server
 * stripes; each streams its servers' series in order, firing
 * full-window queries at servers that finished streaming earlier (the
 * dashboard pattern: history is read while new data lands).  @p query
 * and @p maintain abstract over the two store types.
 */
template <typename AppendFn, typename QueryFn, typename MaintainFn>
PhaseResult
runStorm(const Workload &load, AppendFn append, QueryFn query,
         MaintainFn maintain)
{
    PhaseResult result;
    std::atomic<std::uint64_t> appends{0}, queries{0};
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(load.threads));
    for (int w = 0; w < load.threads; ++w) {
        workers.emplace_back([&, w] {
            double cadence = load.spanSec /
                             static_cast<double>(load.pointsPerServer);
            std::uint64_t myAppends = 0, myQueries = 0;
            int done = 0;
            for (int s = w; s < load.servers; s += load.threads) {
                std::string series = serverSeries(s);
                for (int i = 0; i < load.pointsPerServer; ++i) {
                    append(series, static_cast<double>(i) * cadence,
                           sampleValue(s, i));
                    ++myAppends;
                }
                // Storm the history of servers this thread already
                // finished (plus this one when none are), spread
                // uniformly — a dashboard reads everyone's history
                // while new data streams in.
                for (int q = 0; q < load.queriesPerServer; ++q) {
                    unsigned mix =
                        static_cast<unsigned>(q) * 2654435761u +
                        static_cast<unsigned>(s) * 97u;
                    int back =
                        done > 0
                            ? static_cast<int>(
                                  mix % static_cast<unsigned>(done)) +
                                  1
                            : 0;
                    int target = s - back * load.threads;
                    query(serverSeries(target), 0.0, load.spanSec);
                    ++myQueries;
                }
                ++done;
                if (done % 16 == 0)
                    maintain(load.spanSec);
            }
            appends.fetch_add(myAppends, std::memory_order_relaxed);
            queries.fetch_add(myQueries, std::memory_order_relaxed);
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    result.wallSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    result.appends = appends.load();
    result.queries = queries.load();
    return result;
}

/** The bench's aggressive retention: raw for a minute, 1-min buckets
 *  for ten, 10-min buckets forever — wide-window queries land on
 *  sketches, the way a month-old dashboard window would. */
OdsRetention
benchRetention()
{
    OdsRetention r;
    r.rawHorizonSec = 60.0;
    r.midHorizonSec = 600.0;
    r.midBucketSec = 60.0;
    r.longBucketSec = 600.0;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    printBanner("Fleet telemetry",
                "sharded rollup ODS vs single-map baseline");

    Workload load;
    load.servers =
        static_cast<int>(args.getInt("servers", load.servers));
    load.pointsPerServer =
        static_cast<int>(args.getInt("points", load.pointsPerServer));
    load.queriesPerServer =
        static_cast<int>(args.getInt("queries", load.queriesPerServer));
    load.threads =
        static_cast<int>(args.getInt("threads", load.threads));
    const double minSpeedup = args.getDouble("min-speedup", 4.0);

    note("%d servers x %d points, %d queries/server, %d threads",
         load.servers, load.pointsPerServer, load.queriesPerServer,
         load.threads);

    // Phase 1: the single-map baseline.
    BaselineStore baseline;
    PhaseResult base = runStorm(
        load,
        [&](const std::string &s, double t, double v) {
            baseline.append(s, t, v);
        },
        [&](const std::string &s, double from, double to) {
            baseline.aggregate(s, from, to);
        },
        [](double) {});
    note("baseline: %.2fs wall, %.0f ops/s (%llu appends, %llu "
         "queries)",
         base.wallSec, base.throughput(),
         static_cast<unsigned long long>(base.appends),
         static_cast<unsigned long long>(base.queries));

    // Phase 2: the sharded store, rollups armed, same storm.
    OdsStoreOptions options;
    options.shards = 64;
    options.retention = benchRetention();
    OdsStore sharded(options);
    PhaseResult shard = runStorm(
        load,
        [&](const std::string &s, double t, double v) {
            sharded.append(s, t, v);
        },
        [&](const std::string &s, double from, double to) {
            sharded.aggregate(s, from, to);
        },
        [&](double now) { sharded.downsample(now); });
    note("sharded: %.2fs wall, %.0f ops/s (%llu appends, %llu "
         "queries)",
         shard.wallSec, shard.throughput(),
         static_cast<unsigned long long>(shard.appends),
         static_cast<unsigned long long>(shard.queries));

    double speedup = base.wallSec > 0.0 && shard.wallSec > 0.0
                         ? shard.throughput() / base.throughput()
                         : 0.0;
    OdsStoreStats stats = sharded.stats();
    note("speedup: %.2fx (minimum %.2fx); sharded store holds %llu "
         "raw points + %llu rollup buckets after %llu folds",
         speedup, minSpeedup,
         static_cast<unsigned long long>(stats.rawPoints),
         static_cast<unsigned long long>(stats.rollupBuckets),
         static_cast<unsigned long long>(stats.downsampledPoints));

    bool failed = false;
    if (speedup < minSpeedup) {
        std::fprintf(stderr,
                     "FATAL: sharded throughput only %.2fx the "
                     "baseline (need %.2fx)\n", speedup, minSpeedup);
        failed = true;
    }

    // Claim 2: rolled-up answers match the exact baseline.
    sharded.downsample(load.spanSec);
    double maxMeanErr = 0.0, maxP99Err = 0.0;
    std::uint64_t countMismatches = 0;
    int sampled = 0;
    for (int s = 0; s < load.servers; s += std::max(1, load.servers / 64)) {
        OdsAggregate exact =
            baseline.aggregate(serverSeries(s), 0.0, load.spanSec);
        OdsAggregate rolled =
            sharded.aggregate(serverSeries(s), 0.0, load.spanSec);
        if (exact.count != rolled.count)
            ++countMismatches;
        if (exact.mean != 0.0) {
            maxMeanErr = std::max(
                maxMeanErr,
                std::fabs(rolled.mean - exact.mean) / exact.mean);
        }
        if (exact.p99 != 0.0) {
            maxP99Err = std::max(
                maxP99Err,
                std::fabs(rolled.p99 - exact.p99) / exact.p99);
        }
        ++sampled;
    }
    note("fidelity over %d sampled series: count mismatches %llu, "
         "max mean err %.4f%%, max p99 err %.2f%%",
         sampled, static_cast<unsigned long long>(countMismatches),
         maxMeanErr * 100.0, maxP99Err * 100.0);
    if (countMismatches > 0 || maxMeanErr > 1e-6 || maxP99Err > 0.03) {
        std::fprintf(stderr, "FATAL: rolled-up aggregates drifted from "
                             "the exact baseline\n");
        failed = true;
    }

    const std::string jsonOut = args.get("json-out");
    if (!jsonOut.empty()) {
        Json doc = Json::object();
        doc.set("bench", Json("fleet_telemetry"));
        doc.set("servers", Json(load.servers));
        doc.set("points_per_server", Json(load.pointsPerServer));
        doc.set("queries_per_server", Json(load.queriesPerServer));
        doc.set("threads", Json(load.threads));
        doc.set("shards", Json(static_cast<int>(options.shards)));
        auto phase = [](const PhaseResult &r) {
            Json p = Json::object();
            p.set("wall_sec", Json(r.wallSec));
            p.set("appends", Json(r.appends));
            p.set("queries", Json(r.queries));
            p.set("ops_per_sec", Json(r.throughput()));
            return p;
        };
        doc.set("baseline", phase(base));
        doc.set("sharded", phase(shard));
        doc.set("speedup", Json(speedup));
        doc.set("min_speedup", Json(minSpeedup));
        Json fidelity = Json::object();
        fidelity.set("sampled_series", Json(sampled));
        fidelity.set("count_mismatches", Json(countMismatches));
        fidelity.set("max_mean_err_percent", Json(maxMeanErr * 100.0));
        fidelity.set("max_p99_err_percent", Json(maxP99Err * 100.0));
        doc.set("fidelity", std::move(fidelity));
        Json store = Json::object();
        store.set("raw_points", Json(stats.rawPoints));
        store.set("rollup_buckets", Json(stats.rollupBuckets));
        store.set("downsampled_points", Json(stats.downsampledPoints));
        doc.set("sharded_store", std::move(store));
        writeJsonOut(jsonOut, doc);
    }

    return failed ? EXIT_FAILURE : EXIT_SUCCESS;
}

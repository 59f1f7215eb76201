#include "core/soft_sku.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/ab_cache.hh"
#include "obs/trace.hh"
#include "stats/robust.hh"
#include "stats/students_t.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

KnobConfig
SoftSkuGenerator::compose(const DesignSpaceMap &map) const
{
    KnobConfig config = map.baseline;
    for (const KnobSweep &sweep : map.sweeps) {
        const KnobOutcome *best = sweep.best();
        if (best && !best->isBaseline) {
            best->value.applyTo(config);
            inform("soft SKU: knob '%s' ← %s (+%.2f%% ± %.2f%%)",
                   knobKey(sweep.id).c_str(), best->value.label.c_str(),
                   best->gainPercent, best->gainCiPercent);
        }
    }
    return config;
}

namespace {

/** Noise-substream base for validation chunks; far away from the
 *  FNV-1a comparison stream ids the sweep engine uses. */
constexpr std::uint64_t kValidationSalt = 0x5A11DA7EDA7A0000ULL;

} // namespace

std::string
validationChunkKey(const PlatformSpec &platform, const KnobConfig &softSku,
                   const KnobConfig &reference, double durationSec,
                   double sampleEverySec, std::uint64_t chunk)
{
    // Doubles as bit patterns: keys are equal iff the windows are
    // bit-for-bit the same.
    return format("validate %s vs %s dur=%s every=%s #%llu",
                  softSku.canonical(platform).describe().c_str(),
                  reference.canonical(platform).describe().c_str(),
                  hexBits(durationSec).c_str(),
                  hexBits(sampleEverySec).c_str(),
                  static_cast<unsigned long long>(chunk));
}

ValidationResult
SoftSkuGenerator::validate(ProductionEnvironment &env,
                           const KnobConfig &softSku,
                           const KnobConfig &reference, double durationSec,
                           OdsStore &ods, double sampleEverySec,
                           ThreadPool *pool, MetricsRegistry *metrics,
                           ValidationCache *cache) const
{
    ValidationResult result;
    result.durationSec = durationSec;

    // Resolve both ground truths once up front; this also warms the
    // shared simulation cache before chunks fan out across workers.
    const double trueRef = env.trueMips(reference);
    const double trueSku = env.trueMips(softSku);

    // Fleet QPS tracks MIPS for MIPS-valid services; both sides face
    // identical live load.  Samples land in ODS exactly as the fleet
    // telemetry pipeline would record them.
    //
    // The window is cut into fixed ~3 h chunks — the chunk count
    // depends only on the window, never on the worker count — and each
    // chunk measures in its own environment substream.  Serial and
    // parallel runs therefore produce the same per-chunk results and
    // merge them in the same order: bit-identical at any job count.
    const std::uint64_t totalSamples = static_cast<std::uint64_t>(
        std::ceil(durationSec / sampleEverySec));
    const std::uint64_t perChunk = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(3.0 * 3600.0 / sampleEverySec));
    const std::uint64_t chunkCount =
        (totalSamples + perChunk - 1) / perChunk;

    const bool hostile = env.faults().any();
    std::vector<ValidationChunk> chunks(chunkCount);

    // Resolve cache hits on the driver thread before any fan-out: the
    // memo is not synchronized, and a replayed chunk must look exactly
    // like a measured one to everything downstream.
    std::vector<std::string> keys(cache ? chunkCount : 0);
    std::vector<std::size_t> missing;
    missing.reserve(chunkCount);
    for (std::size_t c = 0; c < chunkCount; ++c) {
        if (!cache) {
            missing.push_back(c);
            continue;
        }
        keys[c] = validationChunkKey(env.platform(), softSku, reference,
                                     durationSec, sampleEverySec,
                                     static_cast<std::uint64_t>(c));
        auto hit = cache->find(keys[c]);
        if (hit != cache->end()) {
            chunks[c] = hit->second;
            ScopedSpan span("validate", "validate.cache_hit",
                            {kTraceValidate,
                             static_cast<std::uint64_t>(c)});
            span.arg("samples", chunks[c].samples);
        } else {
            missing.push_back(c);
        }
    }

    const std::uint64_t runTag = Tracer::currentRunTag();
    auto measureChunk = [&](std::size_t c) {
        // Explicit root path: the chunk index alone places this span
        // deterministically, whichever worker runs it — under the
        // driver's run tag, which must be re-established because on a
        // shared pool this thread may carry another run's tag.
        TraceTagScope tag(runTag);
        ScopedSpan span("validate", "validate.chunk",
                        {kTraceValidate, static_cast<std::uint64_t>(c)});
        ProductionEnvironment slice =
            env.clone(kValidationSalt + static_cast<std::uint64_t>(c));
        ValidationChunk &chunk = chunks[c];
        const std::uint64_t begin = c * perChunk;
        const std::uint64_t end =
            std::min(totalSamples, begin + perChunk);
        std::vector<double> ratios;
        for (std::uint64_t i = begin; i < end; ++i) {
            double clock =
                static_cast<double>(i + 1) * sampleEverySec;
            PairedSample sample =
                slice.samplePairTruth(trueRef, trueSku, clock);
            if (sample.dropped) {
                ++chunk.dropped;
                continue;
            }
            // Raw telemetry lands in ODS even when the analysis later
            // rejects it — exactly what a real pipeline records.
            chunk.points.push_back({clock, sample.mipsA, sample.mipsB});
            if (hostile)
                ratios.push_back(sample.mipsA > 0.0
                                     ? sample.mipsB / sample.mipsA
                                     : std::numeric_limits<double>::
                                           infinity());
        }
        if (!hostile) {
            for (const auto &point : chunk.points) {
                chunk.diffs.add(point[2] - point[1]);
                chunk.refStat.add(point[1]);
                ++chunk.samples;
            }
            span.arg("samples", chunk.samples);
            span.arg("dropped", chunk.dropped);
            return;
        }
        // Hostile fleet: corrupted readings (spikes, zeros) would blow
        // up the t-test's variance.  Reject pairs whose ratio sits
        // many MADs from the chunk median — the same defense the A/B
        // tester applies — before anything reaches the statistics.
        MadGate gate(ratios, 8.0);
        for (size_t i = 0; i < chunk.points.size(); ++i) {
            if (!gate.keeps(ratios[i])) {
                ++chunk.rejected;
                continue;
            }
            chunk.diffs.add(chunk.points[i][2] - chunk.points[i][1]);
            chunk.refStat.add(chunk.points[i][1]);
            ++chunk.samples;
        }
        span.arg("samples", chunk.samples);
        span.arg("dropped", chunk.dropped);
        span.arg("rejected", chunk.rejected);
    };

    auto measureMissing = [&](std::size_t m) { measureChunk(missing[m]); };
    if (pool && missing.size() > 1)
        pool->parallelFor(missing.size(), measureMissing);
    else
        for (std::size_t m = 0; m < missing.size(); ++m)
            measureMissing(m);
    if (cache)
        for (std::size_t c : missing)
            cache->emplace(keys[c], chunks[c]);

    RunningStat diffs;
    RunningStat refStat;
    for (const ValidationChunk &chunk : chunks) {
        for (const auto &point : chunk.points) {
            ods.append("qps.reference", point[0], point[1]);
            ods.append("qps.softsku", point[0], point[2]);
        }
        diffs.merge(chunk.diffs);
        refStat.merge(chunk.refStat);
        result.samples += chunk.samples;
        result.samplesDropped += chunk.dropped;
        result.samplesRejected += chunk.rejected;
    }
    if (metrics) {
        metrics->counter("validation.chunks").add(chunkCount);
        metrics->counter("validation.samples").add(result.samples);
        metrics->counter("validation.samples_dropped")
            .add(result.samplesDropped);
        metrics->counter("validation.samples_rejected")
            .add(result.samplesRejected);
    }

    WelchResult test = pairedTTest(diffs, 0.95);
    if (refStat.mean() > 0.0) {
        result.meanGainPercent = diffs.mean() / refStat.mean() * 100.0;
        result.gainCiPercent =
            test.diffHalfWidth / refStat.mean() * 100.0;
    }
    result.stable = test.significant && diffs.mean() > 0.0;
    return result;
}

} // namespace softsku

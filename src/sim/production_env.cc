#include "sim/production_env.hh"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

namespace {

/**
 * One memoized stage: each key's value is computed once, by the first
 * caller.  A concurrent caller for the same key waits for that result
 * instead of repeating the work; callers for distinct keys compute in
 * parallel, outside the map lock.  std::map nodes are stable, so a
 * returned reference stays valid after the lock drops.
 */
template <class Key, class Value>
class Memo
{
  public:
    template <class Compute>
    const Value &
    get(const Key &key, Compute &&compute)
    {
        Slot *slot;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            slot = &slots_[key];
        }
        std::call_once(slot->once, [&] { slot->value = compute(); });
        return slot->value;
    }

    /** Keys computed or being computed: one computation each. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return slots_.size();
    }

  private:
    struct Slot
    {
        std::once_flag once;
        Value value;
    };

    mutable std::mutex mutex_;
    std::map<Key, Slot> slots_;
};

} // namespace

/**
 * Pricing a configuration is two stages, each memoized on exactly what
 * it reads:
 *
 *  - the event pass reads the eventKnobs() projection (cores, CDP,
 *    prefetchers, THP, SHP);
 *  - the roll-up reads the event pass and the full actuated
 *    configuration.
 */
struct ProductionEnvironment::SimulationCache
{
    Memo<KnobConfig, EventSummary> eventPasses;
    Memo<KnobConfig, CounterSet> entries;
};

ProductionEnvironment::ProductionEnvironment(const WorkloadProfile &profile,
                                             const PlatformSpec &platform,
                                             std::uint64_t seed,
                                             const SimOptions &simOpts)
    : profile_(profile), platform_(platform), seed_(seed),
      simOpts_(simOpts), rng_(seed ^ 0xE4),
      cache_(std::make_shared<SimulationCache>())
{
}

const CounterSet &
ProductionEnvironment::counters(const KnobConfig &config)
{
    // Keyed on the actuated form: "all cores" and "18 cores", or 2.0
    // and 2.2 - 0.2 GHz, are one configuration to the server.
    const KnobConfig actuated = actuatedKnobs(config, platform_);
    return cache_->entries.get(actuated, [&] {
        const KnobConfig structural = eventKnobs(actuated, platform_);
        const EventSummary &events =
            cache_->eventPasses.get(structural, [&] {
                SimOptions opts = simOpts_;
                opts.seed = seed_;
                return runEvents(profile_, platform_, structural, opts);
            });
        return rollup(events, profile_, platform_, actuated);
    });
}

size_t
ProductionEnvironment::configsSimulated() const
{
    return cache_->entries.size();
}

size_t
ProductionEnvironment::eventPasses() const
{
    return cache_->eventPasses.size();
}

ProductionEnvironment
ProductionEnvironment::clone(std::uint64_t streamId) const
{
    ProductionEnvironment slice(*this);
    // Same construction-time root as rng_, rebased onto the substream.
    slice.rng_ = Rng(seed_ ^ 0xE4).split(streamId);
    // Fault decisions rebase the same way: a clone's fault schedule
    // depends only on (fault seed, stream id), never on what the
    // parent has already drawn.
    slice.injector_ = injector_.forStream(streamId);
    return slice;
}

void
ProductionEnvironment::setFaults(const FaultPlan &plan,
                                 std::uint64_t faultSeed)
{
    faultSeed_ = faultSeed;
    injector_ = FaultInjector(plan, faultSeed);
}

FaultInjector
ProductionEnvironment::injectorForStream(std::uint64_t streamId) const
{
    return injector_.forStream(streamId);
}

bool
ProductionEnvironment::drawCrash(double dtSec)
{
    return injector_.plan().any() && injector_.crash(dtSec);
}

bool
ProductionEnvironment::drawApplyFailure()
{
    return injector_.plan().any() && injector_.applyFails();
}

double
ProductionEnvironment::trueMips(const KnobConfig &config)
{
    return counters(config).platformMips;
}

double
ProductionEnvironment::loadFactor(double timeSec) const
{
    // Diurnal curve plus a slow traffic-mix wobble; both are shared by
    // every server in the fleet slice.
    double day = 2.0 * M_PI * timeSec / 86400.0;
    double hour = 2.0 * M_PI * timeSec / 3600.0;
    return 1.0 + noise_.diurnalAmplitude * 0.5 * std::sin(day) +
           noise_.diurnalAmplitude * 0.15 * std::sin(3.7 * hour + 1.3);
}

double
ProductionEnvironment::effectiveLoad(double timeSec) const
{
    double load = loadFactor(timeSec);
    if (injector_.plan().surgeWindowRate > 0.0)
        load *= injector_.surgeFactor(timeSec);
    return load;
}

double
ProductionEnvironment::codePushFactor(double timeSec) const
{
    if (noise_.codePushSigma <= 0.0 || noise_.codePushIntervalSec <= 0.0)
        return 1.0;
    auto epoch = static_cast<std::uint64_t>(
        timeSec / noise_.codePushIntervalSec);
    // Deterministic per-epoch perturbation around 1.
    double u = static_cast<double>(mix64(epoch ^ seed_) >> 11) * 0x1.0p-53;
    return 1.0 + noise_.codePushSigma * (2.0 * u - 1.0);
}

PairedSample
ProductionEnvironment::samplePair(const KnobConfig &a, const KnobConfig &b,
                                  double timeSec)
{
    return samplePairTruth(trueMips(a), trueMips(b), timeSec);
}

PairedSample
ProductionEnvironment::samplePairTruth(double trueA, double trueB,
                                       double timeSec)
{
    PairedSample sample;
    const bool hostile = injector_.plan().any();
    double shared = effectiveLoad(timeSec) * codePushFactor(timeSec);
    sample.loadFactor = shared;
    // EMON dropout loses the whole pair before any reading exists; the
    // noise stream is not advanced (nothing was measured).
    if (hostile && injector_.dropSample()) {
        sample.dropped = true;
        return sample;
    }
    sample.mipsA = trueA * shared *
                   rng_.logNormalMean(1.0, noise_.measurementSigma);
    sample.mipsB = trueB * shared *
                   rng_.logNormalMean(1.0, noise_.measurementSigma);
    if (hostile) {
        if (injector_.corruptSample()) {
            sample.mipsA *= injector_.corruptionFactor();
            sample.corruptedA = true;
        }
        if (injector_.corruptSample()) {
            sample.mipsB *= injector_.corruptionFactor();
            sample.corruptedB = true;
        }
    }
    return sample;
}

double
ProductionEnvironment::sampleMips(const KnobConfig &config, double timeSec)
{
    double shared = effectiveLoad(timeSec) * codePushFactor(timeSec);
    return trueMips(config) * shared *
           rng_.logNormalMean(1.0, noise_.measurementSigma);
}

} // namespace softsku

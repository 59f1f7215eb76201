#include "sim/fleet.hh"

#include <algorithm>
#include <cmath>

#include "core/knob_registry.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/running_stat.hh"
#include "stats/students_t.hh"
#include "telemetry/series_names.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

namespace {

/** Fault-decision substream for fleet operations: disjoint from the
 *  A/B measurement streams and the validation chunks. */
constexpr std::uint64_t kFleetFaultStream = 0xF1EE7FA170000001ULL;

} // namespace

FleetTopology
FleetTopology::fromSpec(const std::string &spec)
{
    FleetTopology topo;
    std::string text(trim(spec));
    if (text.empty())
        return topo;
    auto x = text.find('x');
    auto racksValue = parseInt(trim(text.substr(0, x)));
    if (!racksValue)
        fatal("topology spec '%s': expected RACKS or RACKSxREGIONS",
              spec.c_str());
    topo.racks = static_cast<int>(*racksValue);
    if (x != std::string::npos) {
        auto regionsValue = parseInt(trim(text.substr(x + 1)));
        if (!regionsValue)
            fatal("topology spec '%s': expected RACKS or RACKSxREGIONS",
                  spec.c_str());
        topo.regions = static_cast<int>(*regionsValue);
    }
    if (topo.racks < 1 || topo.regions < 1)
        fatal("topology spec '%s': racks and regions must be >= 1",
              spec.c_str());
    if (topo.regions > topo.racks)
        fatal("topology spec '%s': %d regions cannot hold %d racks",
              spec.c_str(), topo.regions, topo.racks);
    return topo;
}

RolloutPolicy
RolloutPolicy::blastRadiusAware()
{
    RolloutPolicy policy;
    policy.stratifyWaves = true;
    policy.domainQuorum = 1;
    policy.domainVerdicts = true;
    policy.surgePauseThreshold = 0.08;
    policy.resumeAttempts = 2;
    return policy;
}

Json
RolloutResult::toJson() const
{
    Json doc = Json::object();
    doc.set("completed", Json(completed));
    doc.set("aborted", Json(aborted));
    doc.set("rolled_back", Json(rolledBack));
    doc.set("finished_at_sec", Json(finishedAtSec));
    doc.set("servers_converted", Json(serversConverted));
    doc.set("canary_gain_percent", Json(canaryGainPercent));
    doc.set("canary_samples",
            Json(static_cast<long long>(canarySamples)));
    doc.set("fleet_gain_percent", Json(fleetGainPercent));
    doc.set("waves_rolled_back", Json(wavesRolledBack));
    doc.set("servers_excluded", Json(serversExcluded));
    doc.set("server_crashes", Json(serverCrashes));
    doc.set("apply_failures", Json(applyFailures));
    doc.set("stuck_reboots", Json(stuckReboots));
    doc.set("resumes", Json(resumes));
    doc.set("rack_events", Json(rackEvents));
    doc.set("domains_excluded", Json(domainsExcluded));
    doc.set("surge_pauses", Json(surgePauses));
    doc.set("max_wave_domain_share", Json(maxWaveDomainShare));
    doc.set("config_blamed", Json(configBlamed));
    return doc;
}

bool
reconfigurationNeedsReboot(const KnobConfig &from, const KnobConfig &to)
{
    for (const KnobDescriptor &d : knobRegistry()) {
        if (d.requiresReboot && d.capture(from) != d.capture(to))
            return true;
    }
    return false;
}

FleetSlice::FleetSlice(ProductionEnvironment &env, int servers,
                       const KnobConfig &initial,
                       const FleetTopology &topology)
    : env_(env), topology_(topology), rng_(0xF1EE7)
{
    SOFTSKU_ASSERT(servers > 0);
    SOFTSKU_ASSERT(topology_.racks >= 1 && topology_.regions >= 1 &&
                   topology_.regions <= topology_.racks);
    servers_.reserve(static_cast<size_t>(servers));
    for (int i = 0; i < servers; ++i) {
        FleetServer server;
        server.id = i;
        server.config = initial;
        // Contiguous id blocks per rack (placement follows delivery
        // order), racks likewise per region.
        server.rack = static_cast<int>(
            static_cast<long long>(i) * topology_.racks / servers);
        server.region = server.rack * topology_.regions / topology_.racks;
        servers_.push_back(server);
    }
}

int
FleetSlice::onlineServers(double nowSec) const
{
    int online = 0;
    for (const FleetServer &server : servers_)
        online += server.online(nowSec);
    return online;
}

double
FleetSlice::serverMips(const FleetServer &server, double load)
{
    // Per-server noise is independent; load is fleet-wide.  perfFactor
    // models silent hardware drift the truth cache knows nothing about
    // — only sampled telemetry can see it.
    return env_.trueMips(server.config) * server.perfFactor * load *
           rng_.logNormalMean(1.0, env_.noise().measurementSigma);
}

double
FleetSlice::fleetMips(double nowSec)
{
    double total = 0.0;
    double load = env_.effectiveLoad(nowSec);
    for (const FleetServer &server : servers_) {
        if (!server.online(nowSec))
            continue;
        total += serverMips(server, load);
    }
    return total;
}

void
FleetSlice::degradeServer(int index, double perfFactor)
{
    SOFTSKU_ASSERT(index >= 0 &&
                   index < static_cast<int>(servers_.size()));
    servers_[static_cast<size_t>(index)].perfFactor = perfFactor;
}

void
FleetSlice::scheduleDegradation(int index, double atSec, double perfFactor)
{
    SOFTSKU_ASSERT(index >= 0 &&
                   index < static_cast<int>(servers_.size()));
    pending_.push_back(PendingDegradation{index, atSec, perfFactor});
}

void
FleetSlice::scheduleRackOutage(int rack, double atSec, double downtimeSec)
{
    SOFTSKU_ASSERT(rack >= 0 && rack < topology_.racks);
    SOFTSKU_ASSERT(downtimeSec > 0.0);
    pendingOutages_.push_back(PendingOutage{rack, atSec, downtimeSec});
}

bool
FleetSlice::reconfigure(int index, const KnobConfig &config, double nowSec,
                        double rebootDowntimeSec)
{
    SOFTSKU_ASSERT(index >= 0 &&
                   index < static_cast<int>(servers_.size()));
    FleetServer &server = servers_[static_cast<size_t>(index)];
    bool reboot = reconfigurationNeedsReboot(server.config, config);
    server.config = config;
    if (reboot)
        server.offlineUntilSec = nowSec + rebootDowntimeSec;
    return reboot;
}

/**
 * One staged rollout in flight: the per-rollout state (clock, result,
 * fault injector, canary and converted masks, rack series names and
 * baselines) and the phases that advance it.  FleetSlice::rollout runs
 * the phases once per attempt.  Rollouts are single-threaded, so every
 * telemetry draw, fault draw and ODS append happens in phase order.
 */
class RolloutRun
{
  public:
    /** What a phase asks the attempt loop to do next. */
    enum class Step { Next, Resume, Stop };

    RolloutRun(FleetSlice &slice, const KnobConfig &target,
               const RolloutPolicy &policy, OdsStore &ods,
               double startSec, double sampleEverySec)
        : slice_(slice), target_(target), policy_(policy), ods_(ods),
          sampleEverySec_(sampleEverySec), now_(startSec)
    {
        for (int k = 0; domains_ && k < racks_; ++k) {
            rackNormSeries_.push_back(rackSeriesName(name_, k, "normalized"));
            rackCtlSeries_.push_back(
                rackSeriesName(name_, k, "control_normalized"));
            rackOnlineSeries_.push_back(rackSeriesName(name_, k, "online"));
        }
    }

    /**
     * Pre-rollout soak.  The load-normalized per-server mips over this
     * window is the reference every later health check — and the
     * final fleet-gain estimate — compares against.  A resume
     * re-soaks, so the reference reflects the surviving fleet
     * (exclusions, replacements, degradations) rather than the one
     * that existed before the rollback.
     */
    void soakBaseline()
    {
        Window window;
        {
            ScopedSpan span("rollout", "rollout.baseline_soak");
            window = sampleWindow(now_ + policy_.baselineSoakSec,
                                  sampleEverySec_);
            baseline_ = windowStat(normSeries_, window);
            span.arg("samples", baseline_.count());
        }
        baselineRef_ = baseline_.mean();
        for (int k = 0; domains_ && k < racks_; ++k)
            rackBaselineRef_[static_cast<size_t>(k)] =
                windowStat(rackNormSeries_[static_cast<size_t>(k)], window)
                    .mean();
    }

    /** Convert and judge the canaries; Next when they pass. */
    Step canary()
    {
        RunningStat canaryStat;
        int canariesConverted = 0;
        Window window;
        {
            ScopedSpan span("rollout", "rollout.canary");
            span.arg("servers", static_cast<std::uint64_t>(canaries_));
            // On a resume the canaries are whichever of the canary
            // servers survived (excluded hosts stay out).  With a real
            // topology the canaries are the first *live* servers, so a
            // rollout resumed past an excluded rack still gets a
            // judgeable canary.
            for (int i = 0, picked = 0;
                 i < fleetSize_ && picked < canaries_; ++i) {
                if (domains_ && servers_[static_cast<size_t>(i)].excluded)
                    continue;
                ++picked;
                if (convert(i)) {
                    isCanary_[static_cast<size_t>(i)] = 1;
                    isConverted_[static_cast<size_t>(i)] = 1;
                    ++canariesConverted;
                }
            }
            window = sampleWindow(now_ + policy_.canarySoakSec,
                                  policy_.canarySampleSec);
            canaryStat = windowStat(canarySeries_, window);
            span.arg("samples", canaryStat.count());
        }

        // Judge the canary purely on the paired ODS telemetry it
        // produced: per-tick canary-mean/control-mean ratios, t-tested.
        // The truth cache is deliberately not consulted — a degraded
        // canary *host* must be caught even when the config itself is
        // a winner.
        result_.canarySamples = canaryStat.count();
        bool judged = canaryStat.count() >= 2;
        bool regressed = false;
        {
            ScopedSpan span("rollout", "rollout.canary_judgment");
            if (judged) {
                WelchResult test = pairedTTest(canaryStat, 0.95);
                result_.canaryGainPercent = canaryStat.mean() * 100.0;
                regressed =
                    canaryStat.mean() < -policy_.abortOnRegression &&
                    test.significant;
            }
            span.arg("judged", judged);
            span.arg("regressed", regressed);
        }
        if (!judged || regressed) {
            rollBackCanaries();
            if (!judged)
                warn("fleet rollout aborted: canary produced %llu paired "
                     "telemetry ticks, cannot judge",
                     static_cast<unsigned long long>(canaryStat.count()));
            else
                warn("fleet rollout aborted: canary regressed %.2f%%",
                     -result_.canaryGainPercent);
            return verdict(window, /*inCanary=*/true, judged);
        }
        result_.serversConverted = domains_ ? canariesConverted : canaries_;
        // The canaries rejoin the control pool; wave health is judged
        // on the whole-fleet normalized metric from here on.
        std::fill(isCanary_.begin(), isCanary_.end(), 0);
        return Step::Next;
    }

    /**
     * Waves over the remainder, each followed by a health check of the
     * load-normalized fleet telemetry against the baseline soak.  A
     * failed check rolls back *every* converted server, canaries
     * included.  Next when the whole slice converted healthy.
     */
    Step waves()
    {
        std::vector<int> order = planWaves();
        const int waveSize = std::max<int>(
            1, static_cast<int>(std::lround(
                   policy_.waveFraction * static_cast<double>(fleetSize_))));
        double lastWindowMean = baselineRef_;
        int wave = 0;
        for (size_t next = 0; next < order.size();) {
            pauseForSurge(lastWindowMean);
            size_t end =
                std::min(next + static_cast<size_t>(waveSize), order.size());
            Window window = convertWave(order, next, end, waveSize, ++wave);
            next = end;
            RunningStat waveStat = windowStat(normSeries_, window);
            if (waveStat.count() >= 1)
                lastWindowMean = waveStat.mean();
            bool unhealthy;
            {
                ScopedSpan span("rollout", "rollout.health_check");
                span.arg("wave", static_cast<std::uint64_t>(wave));
                unhealthy =
                    baseline_.count() >= 2 && waveStat.count() >= 1 &&
                    waveStat.mean() <
                        baselineRef_ * (1.0 - policy_.abortOnRegression);
                span.arg("healthy", !unhealthy);
            }
            if (unhealthy) {
                rollBackFleet(wave);
                warn("fleet rollout rolled back: wave %d health check "
                     "%.1f%% below baseline",
                     wave, (1.0 - waveStat.mean() / baselineRef_) * 100.0);
                return verdict(window, /*inCanary=*/false, /*judged=*/true);
            }
            finalWindow_ = waveStat;
        }
        // No waves ran (the canary was the whole fleet): take a
        // dedicated post-conversion window for the gain estimate.
        if (finalWindow_.count() == 0)
            finalWindow_ = windowStat(
                normSeries_, sampleWindow(now_ + policy_.waveIntervalSec,
                                          sampleEverySec_));
        return Step::Next;
    }

    /** Close the rollout at the current clock. */
    RolloutResult finish(bool completed)
    {
        result_.finishedAtSec = now_;
        if (!completed)
            return result_;
        result_.completed = true;
        if (baseline_.count() >= 1 && baselineRef_ > 0.0 &&
            finalWindow_.count() >= 1)
            result_.fleetGainPercent =
                (finalWindow_.mean() / baselineRef_ - 1.0) * 100.0;
        inform("fleet rollout complete: %d servers, %+.2f%% fleet gain "
               "(telemetry)",
               result_.serversConverted, result_.fleetGainPercent);
        return result_;
    }

  private:
    /** Bounds of one sampling window's ticks in ODS. */
    struct Window
    {
        double from;
        double to;
    };

    /** Remove and hand to @p land every scheduled event due by @p t. */
    template <class Event, class Land>
    static void landDue(std::vector<Event> &events, double t, Land land)
    {
        for (size_t i = 0; i < events.size();) {
            if (events[i].atSec <= t) {
                land(events[i]);
                events[i] = events.back();
                events.pop_back();
            } else {
                ++i;
            }
        }
    }

    // A rack power event: every server in the rack goes dark at once.
    void landRackOutage(int rack, double untilSec)
    {
        for (FleetServer &server : servers_) {
            if (server.rack != rack || server.excluded)
                continue;
            server.offlineUntilSec =
                std::max(server.offlineUntilSec, untilSec);
        }
        double &horizon = rackOfflineUntil_[static_cast<size_t>(rack)];
        horizon = std::max(horizon, untilSec);
        ++result_.rackEvents;
        MetricsRegistry::global().counter("fleet.rack_events").add(1);
        traceInstant("fault", "fleet.rack_event");
        warn("fleet: rack %d power event, offline until %.0fs", rack,
             untilSec);
    }

    // Pull one server from rotation for good.
    void excludeServer(FleetServer &server)
    {
        server.excluded = true;
        ++result_.serversExcluded;
        MetricsRegistry::global().counter("fleet.servers_excluded").add(1);
    }

    // Per-tick hostile hazards: rack power events, crash/replacement,
    // and stuck-reboot exclusion.  Benign plans draw nothing here.
    void processFaults(double t, double dtSec)
    {
        // Directed rack outages land regardless of the stochastic
        // plan, like scheduleDegradation.
        landDue(slice_.pendingOutages_, t, [&](const auto &outage) {
            landRackOutage(outage.rack, outage.atSec + outage.downtimeSec);
        });
        if (!hostile_)
            return;
        if (domains_ && injector_.plan().rackEventPerHour > 0.0) {
            // Stateless time hash: every clone, thread, and resumed
            // attempt sees the identical rack-event schedule.
            for (int k = 0; k < racks_; ++k) {
                if (injector_.rackEventInWindow(k, t, dtSec))
                    landRackOutage(
                        k, t + injector_.plan().rackEventDowntimeSec);
            }
        }
        for (FleetServer &server : servers_) {
            if (server.excluded)
                continue;
            if (t < server.offlineUntilSec) {
                // A server inside its rack's outage horizon is down
                // with its domain — that is the *rack's* fault, not a
                // stuck reboot, so the operator does not pull it.
                bool rackDown =
                    domains_ &&
                    server.offlineUntilSec <=
                        rackOfflineUntil_[static_cast<size_t>(server.rack)];
                if (!rackDown &&
                    server.offlineUntilSec - t > policy_.rebootTimeoutSec) {
                    // The reboot is stuck beyond the operator's
                    // patience: pull the host from rotation.
                    excludeServer(server);
                    traceInstant("fault", "fleet.server_excluded");
                    warn("fleet: server %d stuck rebooting, excluded",
                         server.id);
                }
                continue;
            }
            if (injector_.crash(dtSec)) {
                // Crash + replacement: the new host runs the same
                // config but not-quite-identical hardware (drift the
                // truth cache cannot see).  With rack drift armed the
                // replacement comes from the rack's delivery cohort.
                ++result_.serverCrashes;
                MetricsRegistry::global()
                    .counter("fleet.server_crashes").add(1);
                traceInstant("fault", "fleet.crash");
                traceCounter("fault", "fleet.crashes_total",
                             static_cast<double>(result_.serverCrashes));
                server.perfFactor =
                    injector_.replacementPerfFactorForRack(server.rack);
                server.offlineUntilSec = t + policy_.rebootDowntimeSec;
            }
        }
    }

    // One telemetry tick: a single noise draw per online server feeds
    // the fleet aggregate, the canary/control pairing, and the
    // load-normalized health metric.  Everything lands in ODS; the
    // health checks read it back from there — the same numbers an
    // operator sees.
    void observe(double t)
    {
        // Land any degradations scheduled to happen by time t.
        landDue(slice_.pending_, t, [&](const auto &degradation) {
            servers_[static_cast<size_t>(degradation.index)].perfFactor =
                degradation.perfFactor;
        });
        double load = env_.effectiveLoad(t);
        double total = 0.0, canarySum = 0.0, controlSum = 0.0;
        int online = 0, canaryN = 0, controlN = 0;
        if (domains_) {
            rackTotal_.assign(static_cast<size_t>(racks_), 0.0);
            rackCtlTotal_.assign(static_cast<size_t>(racks_), 0.0);
            rackOnline_.assign(static_cast<size_t>(racks_), 0);
            rackCtlN_.assign(static_cast<size_t>(racks_), 0);
        }
        for (size_t i = 0; i < servers_.size(); ++i) {
            FleetServer &server = servers_[i];
            if (!server.online(t))
                continue;
            double serverLoad = load;
            if (domainSurges_)
                serverLoad *= injector_.domainSurgeFactor(server.region, t);
            double mips = slice_.serverMips(server, serverLoad);
            total += mips;
            ++online;
            if (isCanary_[i]) {
                canarySum += mips;
                ++canaryN;
            } else {
                controlSum += mips;
                ++controlN;
            }
            if (domains_) {
                auto k = static_cast<size_t>(server.rack);
                rackTotal_[k] += mips;
                ++rackOnline_[k];
                if (!isConverted_[i]) {
                    rackCtlTotal_[k] += mips;
                    ++rackCtlN_[k];
                }
            }
        }
        ods_.append(mipsSeries_, t, total);
        ods_.append(onlineSeries_, t, static_cast<double>(online));
        // Detrend by the *known* diurnal curve only: an injected surge
        // is invisible to the operator's load model and shows up as
        // upside, never as a phantom regression.
        double diurnal = env_.loadFactor(t);
        if (online > 0 && diurnal > 0.0)
            ods_.append(normSeries_, t, total / (online * diurnal));
        if (canaryN > 0 && controlN > 0) {
            // Canary mean over control mean at the same instant: the
            // common-mode load (diurnal, surges, code pushes) cancels
            // exactly, leaving the configuration effect plus noise.
            ods_.append(canarySeries_, t,
                        (canarySum / canaryN) / (controlSum / controlN) -
                            1.0);
        }
        for (size_t k = 0; domains_ && k < static_cast<size_t>(racks_); ++k) {
            ods_.append(rackOnlineSeries_[k], t,
                        static_cast<double>(rackOnline_[k]));
            if (rackOnline_[k] > 0 && diurnal > 0.0)
                ods_.append(rackNormSeries_[k], t,
                            rackTotal_[k] / (rackOnline_[k] * diurnal));
            if (rackCtlN_[k] > 0 && diurnal > 0.0)
                ods_.append(rackCtlSeries_[k], t,
                            rackCtlTotal_[k] / (rackCtlN_[k] * diurnal));
        }
    }

    // Fold one ODS series over a window into a RunningStat — the only
    // way rollout decisions consume telemetry.
    RunningStat windowStat(const std::string &series, Window window) const
    {
        RunningStat stat;
        for (const OdsPoint &point :
             ods_.query(series, window.from, window.to))
            stat.add(point.value);
        return stat;
    }

    // Tick the clock up to untilSec at the given cadence; the window
    // is empty (from > to) when no tick fell inside it.
    Window sampleWindow(double untilSec, double cadence)
    {
        double firstTick = 0.0;
        bool ticked = false;
        while (now_ < untilSec) {
            now_ += cadence;
            if (!ticked) {
                firstTick = now_;
                ticked = true;
            }
            processFaults(now_, cadence);
            observe(now_);
        }
        return Window{ticked ? firstTick : now_ + 1.0, now_};
    }

    // Push the target to one server, fighting apply failures and stuck
    // reboots; a server that defeats the retry budget is excluded.
    bool convert(int index)
    {
        FleetServer &server = servers_[static_cast<size_t>(index)];
        if (server.excluded)
            return false;
        // The push cannot reach a host that is down (a rack outage, a
        // reboot in flight); it stays on the old config.
        if (domains_ && !server.online(now_))
            return false;
        if (hostile_) {
            int attempts = 1 + std::max(0, policy_.applyRetries);
            bool applied = false;
            for (int a = 0; a < attempts && !applied; ++a) {
                if (injector_.applyFails()) {
                    ++result_.applyFailures;
                    MetricsRegistry::global()
                        .counter("fleet.apply_failures").add(1);
                    traceInstant("fault", "fleet.apply_failure");
                } else {
                    applied = true;
                }
            }
            if (!applied) {
                excludeServer(server);
                warn("fleet: server %d failed %d config applies, "
                     "excluded", server.id, attempts);
                return false;
            }
        }
        bool reboot = slice_.reconfigure(index, target_, now_,
                                         policy_.rebootDowntimeSec);
        if (reboot && hostile_ && injector_.rebootSticks()) {
            server.offlineUntilSec += injector_.plan().stuckRebootExtraSec;
            ++result_.stuckReboots;
            MetricsRegistry::global().counter("fleet.stuck_reboots").add(1);
            traceInstant("fault", "fleet.stuck_reboot");
        }
        return true;
    }

    // Pull every server of a sick rack from rotation: the blast radius
    // is the rack, so the remedy is rack-scoped too.
    void excludeRack(int rack)
    {
        int pulled = 0;
        for (FleetServer &server : servers_) {
            if (server.rack == rack && !server.excluded) {
                excludeServer(server);
                ++pulled;
            }
        }
        ++result_.domainsExcluded;
        MetricsRegistry::global().counter("fleet.domains_excluded").add(1);
        traceInstant("rollout", "rollout.domain_excluded");
        warn("fleet: rack %d pulled from rotation (%d servers), domain "
             "fault", rack, pulled);
    }

    // Triage a failed health check by failure domain over the window
    // that failed: a rack is sick when it is mostly dead or when its
    // *control* servers — still on the old config — regressed against
    // the rack's own baseline.  Control groups are small, so the
    // regression bar is 3x the fleet-level abort threshold.  Returns
    // the sick racks and sets @p activeRacks.
    std::vector<int> sickRacks(Window window, int &activeRacks) const
    {
        std::vector<int> sick;
        activeRacks = 0;
        for (int k = 0; k < racks_; ++k) {
            auto ku = static_cast<size_t>(k);
            int alive = 0;
            for (const FleetServer &server : servers_)
                if (server.rack == k && !server.excluded)
                    ++alive;
            if (alive == 0)
                continue;
            ++activeRacks;
            RunningStat onlineStat =
                windowStat(rackOnlineSeries_[ku], window);
            bool dead =
                onlineStat.count() >= 1 && onlineStat.mean() < 0.5 * alive;
            bool regressed = false;
            if (!dead && rackBaselineRef_[ku] > 0.0) {
                RunningStat control = windowStat(rackCtlSeries_[ku], window);
                regressed = control.count() >= 2 &&
                            control.mean() <
                                rackBaselineRef_[ku] *
                                    (1.0 - 3.0 * policy_.abortOnRegression);
            }
            if (dead || regressed)
                sick.push_back(k);
        }
        return sick;
    }

    // Who gets the blame for a failed canary or wave?  With domain
    // triage a failure no rack's control group shares is the config's
    // fault and never resumes; otherwise the sick racks are excluded
    // (unless every rack is sick: the environment moved, so nothing is
    // excluded) and the rollout resumes while the budget lasts.  An
    // unjudgeable canary is never the config's fault.  Without triage
    // a regressed canary is the config's fault and never resumes, while
    // a failed wave resumes while the budget lasts and is blamed on the
    // config once it is spent.
    Step verdict(Window failed, bool inCanary, bool judged)
    {
        const bool triaged = policy_.domainVerdicts && domains_;
        if (triaged) {
            int activeRacks = 0;
            std::vector<int> sick = sickRacks(failed, activeRacks);
            if (!sick.empty() && static_cast<int>(sick.size()) < activeRacks) {
                for (int k : sick)
                    excludeRack(k);
            } else if (!sick.empty()) {
                inform("fleet rollout: all %d racks regressed — "
                       "environment shift, %s",
                       activeRacks,
                       inCanary ? "not excluding" : "re-baselining");
            }
            result_.configBlamed = judged && sick.empty();
            if (result_.configBlamed && !inCanary)
                warn("fleet rollout: regression not visible in any rack "
                     "control group — config blamed, not resuming");
        } else {
            result_.configBlamed = inCanary ? judged : resumesLeft_ == 0;
        }
        if (result_.configBlamed || resumesLeft_ == 0 ||
            (inCanary && !triaged))
            return Step::Stop;

        --resumesLeft_;
        ++result_.resumes;
        result_.aborted = false;
        result_.serversConverted = 0;
        finalWindow_ = RunningStat{};
        MetricsRegistry::global().counter("fleet.resumes").add(1);
        ScopedSpan span("rollout", "rollout.resume");
        span.arg("attempt", static_cast<std::uint64_t>(result_.resumes));
        inform("fleet rollout resuming (attempt %d of %d): %sre-baselining "
               "on %d surviving servers",
               result_.resumes, policy_.resumeAttempts,
               inCanary ? "domain fault during canary, " : "",
               fleetSize_ - result_.serversExcluded);
        return Step::Resume;
    }

    // Roll the canaries back and let the reverted reboots land.
    void rollBackCanaries()
    {
        {
            ScopedSpan span("rollout", "rollout.rollback");
            span.arg("scope", "canary");
            MetricsRegistry::global().counter("fleet.rollbacks").add(1);
            for (size_t i = 0; i < servers_.size(); ++i) {
                if (isCanary_[i]) {
                    slice_.reconfigure(static_cast<int>(i), before_, now_,
                                       policy_.rebootDowntimeSec);
                    isCanary_[i] = 0;
                    isConverted_[i] = 0;
                }
            }
            sampleWindow(now_ + policy_.waveIntervalSec, sampleEverySec_);
        }
        result_.aborted = true;
    }

    // Roll back every converted server, canaries included, after wave
    // number @p waves failed its health check.
    void rollBackFleet(int waves)
    {
        ScopedSpan span("rollout", "rollout.rollback");
        span.arg("scope", "fleet");
        span.arg("wave", static_cast<std::uint64_t>(waves));
        MetricsRegistry::global().counter("fleet.rollbacks").add(1);
        traceInstant("rollout", "rollout.rollback_event");
        for (size_t i = 0; i < servers_.size(); ++i) {
            if (isConverted_[i] && !servers_[i].excluded)
                slice_.reconfigure(static_cast<int>(i), before_, now_,
                                   policy_.rebootDowntimeSec);
            isConverted_[i] = 0;
        }
        result_.wavesRolledBack += waves;
        result_.rolledBack = true;
        result_.aborted = true;
        // Cool-down: reverted reboots land and telemetry settles before
        // either giving up or re-baselining.
        sampleWindow(now_ + policy_.waveIntervalSec, sampleEverySec_);
    }

    // Wave order is the planner: naive converts in id order — which,
    // with contiguous rack placement, concentrates every wave inside
    // one blast radius — while the stratified planner round-robins
    // across racks and holds back a per-rack quorum of unconverted
    // control servers until the very end.
    std::vector<int> planWaves() const
    {
        std::vector<int> order;
        order.reserve(static_cast<size_t>(fleetSize_));
        if (!domains_) {
            for (int i = canaries_; i < fleetSize_; ++i)
                order.push_back(i);
            return order;
        }
        std::vector<std::vector<int>> byRack(static_cast<size_t>(racks_));
        for (int i = 0; i < fleetSize_; ++i) {
            if (isConverted_[static_cast<size_t>(i)])
                continue;
            if (!policy_.stratifyWaves)
                order.push_back(i);
            else
                byRack[static_cast<size_t>(
                           servers_[static_cast<size_t>(i)].rack)]
                    .push_back(i);
        }
        if (!policy_.stratifyWaves)
            return order;
        auto quorum = static_cast<size_t>(std::max(0, policy_.domainQuorum));
        std::vector<std::vector<int>> head(byRack.size()),
            tail(byRack.size());
        for (size_t k = 0; k < byRack.size(); ++k) {
            auto hold = static_cast<std::ptrdiff_t>(
                std::min(byRack[k].size(), quorum));
            head[k].assign(byRack[k].begin(), byRack[k].end() - hold);
            tail[k].assign(byRack[k].end() - hold, byRack[k].end());
        }
        for (const auto *lists : {&head, &tail}) {
            for (size_t pos = 0;; ++pos) {
                bool any = false;
                for (const auto &list : *lists) {
                    if (pos < list.size()) {
                        order.push_back(list[pos]);
                        any = true;
                    }
                }
                if (!any)
                    break;
            }
        }
        return order;
    }

    // Hold conversions while the fleet telemetry runs hot: a surge
    // window is the worst moment to shrink the control pool, and the
    // paused wave converts once the window passes.
    void pauseForSurge(double &lastWindowMean)
    {
        if (!(policy_.surgePauseThreshold > 0.0 && baselineRef_ > 0.0))
            return;
        int pauses = 0;
        while (lastWindowMean >
                   baselineRef_ * (1.0 + policy_.surgePauseThreshold) &&
               pauses < policy_.maxSurgePauses) {
            ++pauses;
            ++result_.surgePauses;
            MetricsRegistry::global().counter("fleet.surge_pauses").add(1);
            traceInstant("rollout", "rollout.surge_pause");
            inform("fleet rollout: telemetry %.1f%% above baseline, "
                   "pausing conversions",
                   (lastWindowMean / baselineRef_ - 1.0) * 100.0);
            RunningStat pauseStat = windowStat(
                normSeries_, sampleWindow(now_ + policy_.waveIntervalSec,
                                          sampleEverySec_));
            if (pauseStat.count() < 1)
                break;
            lastWindowMean = pauseStat.mean();
        }
    }

    // Convert order[from, to) as wave number @p wave, then sample its
    // health window.  The per-domain conversion cap: a stratified wave
    // never converts more than half its batch inside one rack, even
    // when exclusions leave the surviving racks uneven.  The surplus
    // is deferred to the back of the plan and retried in later waves
    // with a fresh cap.
    Window convertWave(std::vector<int> &order, size_t from, size_t to,
                       int waveSize, int wave)
    {
        ScopedSpan span("rollout", "rollout.wave");
        span.arg("wave", static_cast<std::uint64_t>(wave));
        span.arg("servers", static_cast<std::uint64_t>(to - from));
        int waveConverted = 0;
        std::vector<int> waveRackCount(static_cast<size_t>(racks_), 0);
        const int rackCap = (domains_ && policy_.stratifyWaves)
                                ? std::max(1, waveSize / 2)
                                : waveSize;
        for (size_t p = from; p < to; ++p) {
            int i = order[p];
            auto rack =
                static_cast<size_t>(servers_[static_cast<size_t>(i)].rack);
            if (waveRackCount[rack] >= rackCap) {
                order.push_back(i);
                continue;
            }
            if (convert(i)) {
                ++result_.serversConverted;
                isConverted_[static_cast<size_t>(i)] = 1;
                ++waveConverted;
                ++waveRackCount[rack];
            }
        }
        if (domains_ && waveConverted > 0) {
            int top = *std::max_element(waveRackCount.begin(),
                                        waveRackCount.end());
            result_.maxWaveDomainShare =
                std::max(result_.maxWaveDomainShare,
                         static_cast<double>(top) / waveSize);
        }
        return sampleWindow(now_ + policy_.waveIntervalSec, sampleEverySec_);
    }

    FleetSlice &slice_;
    const KnobConfig &target_;
    const RolloutPolicy &policy_;
    OdsStore &ods_;
    const double sampleEverySec_;
    double now_;
    ProductionEnvironment &env_ = slice_.env_;
    std::vector<FleetServer> &servers_ = slice_.servers_;
    const int fleetSize_ = static_cast<int>(servers_.size());
    const int canaries_ = std::min<int>(policy_.canaryServers, fleetSize_);
    const KnobConfig before_ = servers_.front().config;
    const bool hostile_ = env_.faults().any();
    FaultInjector injector_ = env_.injectorForStream(kFleetFaultStream);
    const bool domains_ = !slice_.topology_.trivial();
    const int racks_ = slice_.topology_.racks;
    const bool domainSurges_ =
        domains_ && injector_.plan().domainSurgeRate > 0.0;

    RolloutResult result_;
    int resumesLeft_ = std::max(0, policy_.resumeAttempts);
    RunningStat baseline_;
    double baselineRef_ = 0.0;
    RunningStat finalWindow_;

    // Health checks read these back out of ODS — the operator's view
    // and the rollout machinery consume the same telemetry path.
    const std::string &name_ = env_.profile().name;
    const std::string mipsSeries_ = fleetSeriesName(name_, "mips");
    const std::string onlineSeries_ = fleetSeriesName(name_, "online");
    const std::string normSeries_ = fleetSeriesName(name_, "normalized");
    const std::string canarySeries_ =
        fleetSeriesName(name_, "canary_delta");
    std::vector<std::string> rackNormSeries_, rackCtlSeries_,
        rackOnlineSeries_;

    std::vector<char> isCanary_ = std::vector<char>(servers_.size(), 0);
    std::vector<char> isConverted_ = isCanary_;
    // Horizon of the latest rack power event per rack: a server whose
    // offline window sits inside it is rack-down, not stuck-rebooting.
    std::vector<double> rackOfflineUntil_ =
        std::vector<double>(static_cast<size_t>(racks_), 0.0);
    // Per-rack baseline references for the domain triage, established
    // by each attempt's baseline soak.
    std::vector<double> rackBaselineRef_ = rackOfflineUntil_;
    // Per-tick rack accumulators, reused by every observe().
    std::vector<double> rackTotal_, rackCtlTotal_;
    std::vector<int> rackOnline_, rackCtlN_;
};

RolloutResult
FleetSlice::rollout(const KnobConfig &target, const RolloutPolicy &policy,
                    OdsStore &ods, double startSec, double sampleEverySec)
{
    // Rollouts are single-threaded, so phase spans nest naturally
    // under this root and their ordinals are deterministic.
    ScopedSpan rolloutSpan("rollout", "fleet.rollout", {kTraceRollout});
    rolloutSpan.arg("service", env_.profile().name);
    rolloutSpan.arg("servers",
                    static_cast<std::uint64_t>(servers_.size()));
    LogContext logCtx("fleet " + env_.profile().name);
    MetricsRegistry::global().counter("fleet.rollouts").add(1);

    // One pass per attempt: the first is the rollout proper; each
    // further pass is a resume after a rollback (bounded by
    // policy.resumeAttempts).  With resumeAttempts == 0 the loop body
    // executes exactly once and draws exactly the pre-resume sequence
    // of telemetry and fault decisions.
    RolloutRun run(*this, target, policy, ods, startSec, sampleEverySec);
    for (;;) {
        run.soakBaseline();
        RolloutRun::Step step = run.canary();
        if (step == RolloutRun::Step::Next)
            step = run.waves();
        if (step != RolloutRun::Step::Resume)
            return run.finish(step == RolloutRun::Step::Next);
    }
}

} // namespace softsku

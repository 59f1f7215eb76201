/**
 * @file
 * The simulator's hot core: the mutable state of one simulation and the
 * instruction loop that drives it (prewarm, fetch/data/TLB/prefetch
 * paths, kernel bursts, context switches).  runEvents() in
 * service_sim.cc is its only driver; the header is separate so tests
 * can reach the small pieces (LineRing) directly.
 *
 * This is an internal header — the public simulation API stays
 * sim/service_sim.hh.
 */

#ifndef SOFTSKU_SIM_SIM_CORE_HH
#define SOFTSKU_SIM_SIM_CORE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cache/cdp.hh"
#include "os/hugepage.hh"
#include "sim/btb.hh"
#include "sim/machine.hh"
#include "sim/service_sim.hh"
#include "stats/distributions.hh"
#include "stats/rng.hh"
#include "util/page_allocator.hh"
#include "workload/address_space.hh"
#include "workload/codegen.hh"
#include "workload/datagen.hh"

namespace softsku::simcore {

constexpr std::uint64_t kLineBytes = 64;
/** Synthetic kernel text region (switch handlers, syscall paths). */
constexpr std::uint64_t kKernelTextBase = 0xFFFF'8000'0000ull;
constexpr std::uint64_t kKernelTextLines = 4096;   // 256 KiB
/** Lines of kernel code touched per context switch. */
constexpr int kKernelBurstLines = 48;
/** STLB hit cost (cycles). */
constexpr double kStlbHitCycles = 8.0;
/** Exposure of page walks: instruction-side walks serialize fetch;
 * data-side walks overlap with other work under the OoO window. */
constexpr double kItlbWalkExposure = 0.70;
constexpr double kDtlbWalkExposure = 0.30;
/** Back-end CPI penalty per GiB of pinned-but-unused SHP memory
 * (page-cache displacement raises effective data-miss cost). */
constexpr double kShpWastePenaltyPerGiB = 0.012;
/** Exposure of instruction-side stalls by level: the decoupled
 * front end hides part of an L2 hit, less of an LLC hit, and almost
 * none of a DRAM access. */
constexpr double kCodeExposureL2 = 0.35;
constexpr double kCodeExposureLlc = 0.70;
constexpr double kCodeExposureMem = 0.80;
/**
 * Ring sizes for the foreign-core interference samplers.  The code ring
 * is large: every thread on the socket executes the same binary, so
 * foreign code accesses re-touch the service's whole recent code
 * working set, keeping it LLC-resident exactly as sharing does on real
 * hardware.  The data ring is small: only recently shared objects are
 * re-touched by other cores.
 */
constexpr size_t kCodeRingSize = 65536;
constexpr size_t kDataRingSize = 2048;
/** JIT-churn application block (instructions). */
constexpr std::uint64_t kChurnBlock = 65536;

/** A ring buffer of recent LLC line addresses. */
class LineRing
{
  public:
    explicit LineRing(size_t capacity) : capacity_(capacity)
    {
        lines_.reserve(capacity_);
    }

    void
    push(std::uint64_t line)
    {
        if (lines_.size() < capacity_) {
            lines_.push_back(line);
        } else {
            lines_[cursor_] = line;
            // Conditional wrap instead of a modulo per push: the ring
            // is hit on every LLC access, and the divide was visible
            // in the profile.
            if (++cursor_ == capacity_)
                cursor_ = 0;
        }
    }

    bool empty() const { return lines_.empty(); }

    std::uint64_t
    sample(Rng &rng) const
    {
        return lines_[rng.below(lines_.size())];
    }

  private:
    size_t capacity_;
    PageVector<std::uint64_t> lines_;
    size_t cursor_ = 0;
};

/** All mutable state of one simulation, shared by warmup and measure. */
struct SimState
{
    const WorkloadProfile &profile;
    Machine machine;
    AddressSpace space;
    PageMapper pages;
    CodeGenerator codegen;
    DataGenerator datagen;
    Btb btb;
    Rng rng;
    /** Dedicated stream for cache/TLB disturbance so machine-state
     *  dependent draw counts never decorrelate the workload stream. */
    Rng disturbRng;
    DiscreteDistribution mixDist;
    std::vector<Prefetcher *> l1Pf;
    std::vector<Prefetcher *> l2Pf;

    const RegionMapping *codeMapping = nullptr;
    std::vector<const RegionMapping *> dataMappings;

    // Foreign-core interference.
    LineRing codeRing{kCodeRingSize};
    LineRing dataRing{kDataRingSize};
    Rng foreignRng;
    std::uint64_t llcCodeSeen = 1;
    std::uint64_t llcDataSeen = 1;
    int foreignCores = 0;

    /** Measured-window accumulators (cleared after warmup); the cache,
     *  TLB and page-mapping fields are filled in by summary(). */
    EventSummary events;

    std::uint64_t fetchLine = ~0ull;
    std::uint64_t switchCountdown = 0;
    std::uint64_t switchInterval = 0;
    std::uint64_t kernelCursor = 0;

    std::vector<std::uint64_t> pfCandidates;

    SimState(const WorkloadProfile &prof, const PlatformSpec &platform,
             const KnobConfig &knobs, const SimOptions &options)
        : profile(prof),
          machine(platform, knobs,
                  options.llcLru ? ReplPolicy::Lru : ReplPolicy::Srrip),
          space(layoutAddressSpace(prof)),
          pages(space.pageRegions,
                HugePagePolicy{machine.knobs().thp,
                               prof.usesShp ? machine.knobs().shpCount : 0}),
          codegen(prof, space.codeBase, options.seed ^ 0xC0DE),
          datagen(prof, space, options.seed ^ 0xDA7A),
          btb(platform.btbEntries), rng(options.seed ^ 0xF00D),
          disturbRng(options.seed ^ 0xD157),
          mixDist({prof.mix.branch, prof.mix.floating, prof.mix.arith,
                   prof.mix.load, prof.mix.store}),
          foreignRng(options.seed ^ 0xF0E1)
    {
        l1Pf = machine.l1Prefetchers();
        l2Pf = machine.l2Prefetchers();
        codeMapping = &pages.mappings()[0];
        for (size_t i = 1; i < pages.mappings().size(); ++i)
            dataMappings.push_back(&pages.mappings()[i]);
        foreignCores =
            options.disableInterference ? 0 : machine.activeCores() - 1;

        // Switch interval derives from the profile's switch rate at
        // the platform's nominal frequency.  Using the nominal (not the
        // configured) frequency keeps the generated event stream
        // identical across knob configurations, so A/B deltas reflect
        // the hardware change rather than stream divergence.
        double ips = platform.coreFreqMaxGHz * 1e9;
        switchInterval =
            prof.contextSwitch.instructionsBetweenSwitches(ips);
        switchCountdown = switchInterval;
        pfCandidates.reserve(8);
    }

    /**
     * Populate steady-state cache/TLB contents before the measured
     * window.  A production server has been serving traffic for hours:
     * its hot code and hot data ranks are already resident at every
     * level.  A few million warmup instructions cannot reproduce that
     * for multi-megabyte mid-hot working sets, so the prewarm installs
     * them directly, coldest rank first (so the hottest end up youngest
     * in the replacement state), and seeds the interference rings.
     */
    void
    prewarm()
    {
        const std::uint64_t linesPerFunc =
            std::max<std::uint64_t>(1, profile.avgFunctionBytes / 64);
        std::uint64_t hotFuncs = profile.codeHotFunctions > 0
                                     ? std::min(profile.codeHotFunctions,
                                                codegen.functionCount())
                                     : codegen.functionCount();
        hotFuncs = std::min<std::uint64_t>(hotFuncs, 60000);
        for (std::uint64_t r = hotFuncs; r-- > 0;) {
            std::uint64_t entry = codegen.functionAddress(r);
            for (std::uint64_t l = 0; l < linesPerFunc; ++l) {
                std::uint64_t line = entry / kLineBytes + l;
                machine.llc().touch(line, AccessType::Code);
                codeRing.push(line);
                if (r < 1500)
                    machine.l2().touch(line, AccessType::Code);
                if (r < 60)
                    machine.l1i().touch(line, AccessType::Code);
            }
            if (r < 256) {
                std::uint64_t pageBytes =
                    codeMapping->isHugeAddress(entry) ? kPage2m : kPage4k;
                machine.itlb().access(entry, pageBytes);
            }
        }

        for (size_t i = 0; i < profile.dataRegions.size(); ++i) {
            const DataRegionSpec &spec = profile.dataRegions[i];
            if (spec.pattern != DataPattern::Random &&
                spec.pattern != DataPattern::PointerChase) {
                continue;
            }
            std::uint64_t base = space.dataBases[i];
            std::uint64_t hotLines = spec.hotBytes > 0
                                         ? spec.hotBytes / kLineBytes
                                         : spec.sizeBytes / kLineBytes;
            std::uint64_t lines =
                std::min<std::uint64_t>(hotLines, 320000);
            for (std::uint64_t r = lines; r-- > 0;) {
                std::uint64_t line = base / kLineBytes + r;
                machine.llc().touch(line, AccessType::Data);
                if (r < 6000)
                    machine.l2().touch(line, AccessType::Data);
                if (r < 400)
                    machine.l1d().touch(line, AccessType::Data);
                if ((r & 1023) == 0)
                    dataRing.push(line);
                if (r < 4000 && (r & 63) == 0) {
                    std::uint64_t addr = base + r * kLineBytes;
                    const RegionMapping *m = dataMappings[i];
                    machine.dtlb().access(
                        addr, m->isHugeAddress(addr) ? kPage2m : kPage4k);
                }
            }
        }

        // Clear any stats the prewarm TLB accesses recorded.
        machine.itlb().l1().stats().clear();
        machine.itlb().stlb().stats().clear();
        machine.dtlb().l1().stats().clear();
        machine.dtlb().stlb().stats().clear();
    }

    /** LLC access with foreign-core interference injected around it. */
    bool
    llcAccess(std::uint64_t line, AccessType type, bool isPrefetch)
    {
        bool hit = machine.llc().access(line, type, isPrefetch);
        if (type == AccessType::Code) {
            codeRing.push(line);
            ++llcCodeSeen;
        } else {
            dataRing.push(line);
            ++llcDataSeen;
        }

        // Every other active core makes roughly one LLC access per one
        // of ours (same binary, same load).  Code lines are shared and
        // are continuously re-touched by the service's own threads, so
        // the re-warm rate saturates at a handful of touches; private
        // data pressure, in contrast, scales with every active core.
        double codeShare =
            static_cast<double>(llcCodeSeen) /
            static_cast<double>(llcCodeSeen + llcDataSeen);
        int codeTouches = 10;
        for (int c = 0; c < codeTouches; ++c) {
            if (!codeRing.empty() && foreignRng.chance(codeShare))
                machine.llc().touch(codeRing.sample(foreignRng),
                                    AccessType::Code);
        }
        for (int c = 0; c < foreignCores; ++c) {
            bool code = foreignRng.chance(codeShare);
            if (code) {
                // Covered by the saturating re-warm loop above.
            } else if (!dataRing.empty()) {
                // Shared data (common objects, read-mostly tables) is
                // re-touched at the same addresses by every core and so
                // stays LLC-resident; private per-request data from
                // other cores is displaced into their own heaps and is
                // pure capacity pressure.
                std::uint64_t salt =
                    foreignRng.chance(profile.sharedDataFraction)
                        ? 0
                        : (static_cast<std::uint64_t>(c) + 1) << 30;
                machine.llc().touch(dataRing.sample(foreignRng) ^ salt,
                                    AccessType::Data);
            }
        }
        return hit;
    }

    /** Demand data path below L1-D: L2 → LLC → DRAM. */
    void
    dataMissBelowL1(std::uint64_t line, std::uint64_t pc, double mlp,
                    bool collect)
    {
        bool l2Hit = machine.l2().access(line, AccessType::Data);
        for (Prefetcher *pf : l2Pf) {
            pfCandidates.clear();
            pf->observe(line, pc, !l2Hit, pfCandidates);
            for (std::uint64_t target : pfCandidates)
                playL2Prefetch(target, AccessType::Data);
        }
        if (l2Hit) {
            if (collect)
                ++events.l2DataHitCount;
            return;
        }
        bool llcHit = llcAccess(line, AccessType::Data, false);
        if (collect) {
            if (llcHit) {
                events.wLlcDataHit += 1.0 / mlp;
            } else {
                events.wMemData += 1.0 / mlp;
                ++events.dramDemandFills;
            }
        }
    }

    /** Install a prefetch at L2, fetching through LLC/DRAM as needed. */
    void
    playL2Prefetch(std::uint64_t line, AccessType type)
    {
        bool wasPresent = machine.l2().access(line, type, true);
        if (wasPresent)
            return;
        bool llcHit = llcAccess(line, type, true);
        if (!llcHit)
            ++events.dramPrefetchFills;
    }

    /** Install a prefetch at L1-D, fetching through the hierarchy. */
    void
    playL1Prefetch(std::uint64_t line)
    {
        bool wasPresent = machine.l1d().access(line, AccessType::Data, true);
        if (wasPresent)
            return;
        bool l2Hit = machine.l2().access(line, AccessType::Data, true);
        if (l2Hit)
            return;
        bool llcHit = llcAccess(line, AccessType::Data, true);
        if (!llcHit)
            ++events.dramPrefetchFills;
    }

    /** Instruction-side access for the line containing @p pc. */
    void
    fetchAccess(std::uint64_t pc, bool collect)
    {
        std::uint64_t pageBytes =
            codeMapping->isHugeAddress(pc) ? kPage2m : kPage4k;
        auto outcome = machine.itlb().access(pc, pageBytes);
        if (collect) {
            if (outcome == TwoLevelTlb::Outcome::StlbHit)
                ++events.itlbStlbHits;
            else if (outcome == TwoLevelTlb::Outcome::PageWalk)
                ++events.itlbWalks;
        }

        std::uint64_t line = pc / kLineBytes;
        if (machine.l1i().access(line, AccessType::Code))
            return;
        bool l2Hit = machine.l2().access(line, AccessType::Code);
        for (Prefetcher *pf : l2Pf) {
            pfCandidates.clear();
            pf->observe(line, pc, !l2Hit, pfCandidates);
            for (std::uint64_t target : pfCandidates)
                playL2Prefetch(target, AccessType::Code);
        }
        if (l2Hit)
            return;
        bool llcHit = llcAccess(line, AccessType::Code, false);
        if (!llcHit && collect)
            ++events.dramDemandFills;
    }

    /** Kernel code burst modelling the switch path's instruction feed. */
    void
    kernelBurst()
    {
        for (int i = 0; i < kKernelBurstLines; ++i) {
            std::uint64_t line =
                (kKernelTextBase / kLineBytes) +
                (kernelCursor + static_cast<std::uint64_t>(i)) %
                    kKernelTextLines;
            if (!machine.l1i().touch(line, AccessType::Code)) {
                if (!machine.l2().touch(line, AccessType::Code))
                    machine.llc().touch(line, AccessType::Code);
            }
        }
        kernelCursor = (kernelCursor + kKernelBurstLines) % kKernelTextLines;
    }

    /** Context-switch event: pollution plus thread migration. */
    void
    contextSwitch(bool collect)
    {
        if (collect)
            ++events.contextSwitches;
        bool crossPool = codegen.switchThread();
        datagen.switchThread();
        machine.l1i().disturb(profile.switchDisturbance, disturbRng);
        machine.l1d().disturb(profile.switchDisturbance, disturbRng);
        machine.itlb().disturb(profile.switchDisturbance * 0.3, disturbRng);
        machine.dtlb().disturb(profile.switchDisturbance * 0.3, disturbRng);
        // A cross-pool switch displaces roughly half the BTB's useful
        // history rather than wiping it.
        if (crossPool && disturbRng.chance(0.5))
            btb.flush();
        kernelBurst();
        fetchLine = ~0ull;
    }

    /**
     * Run one phase of @p count instructions; @p collect enables stat
     * recording.  The JIT-churn cadence restarts with each phase.
     */
    void
    run(std::uint64_t count, bool collect)
    {
        const double mispredBtbMiss = 0.45;
        std::uint64_t churnBlock = 0;

        for (std::uint64_t i = 0; i < count; ++i) {
            // Fetch side: access the I-path when crossing a line.
            std::uint64_t pc = codegen.pc();
            std::uint64_t line = pc / kLineBytes;
            if (line != fetchLine) {
                fetchLine = line;
                fetchAccess(pc, collect);
            }

            int cls = static_cast<int>(mixDist.sample(rng));
            if (collect) {
                ++events.instructions;
                ++events.classCounts[cls];
            }

            switch (static_cast<InsnClass>(cls)) {
              case InsnClass::Branch: {
                if (collect)
                    ++events.branches;
                bool known = btb.access(pc);
                bool taken = codegen.executeBranch();
                double mispredP = profile.branchMispredictRate;
                if (!known) {
                    if (collect)
                        ++events.btbMisses;
                    if (taken)
                        mispredP = mispredBtbMiss;
                }
                if (rng.chance(mispredP)) {
                    if (collect)
                        ++events.mispredicts;
                    // Redirect refetches the (possibly same) line.
                    fetchLine = ~0ull;
                }
                break;
              }

              case InsnClass::Load:
              case InsnClass::Store: {
                DataAccess access = datagen.next();
                const RegionMapping *mapping =
                    dataMappings[access.regionIndex];
                std::uint64_t pageBytes =
                    mapping->isHugeAddress(access.addr) ? kPage2m
                                                        : kPage4k;
                auto outcome = machine.dtlb().access(access.addr, pageBytes);
                if (collect &&
                    outcome != TwoLevelTlb::Outcome::L1Hit) {
                    // Fig 11's load/store split is at first-level
                    // miss granularity.
                    if (cls == static_cast<int>(InsnClass::Load))
                        ++events.dtlbLoadMisses;
                    else
                        ++events.dtlbStoreMisses;
                    if (outcome == TwoLevelTlb::Outcome::StlbHit)
                        ++events.dtlbStlbHits;
                    else
                        ++events.dtlbWalks;
                }

                std::uint64_t dline = access.addr / kLineBytes;
                std::uint64_t pfPc =
                    access.streamPc != 0 ? access.streamPc : pc;
                bool l1Hit = machine.l1d().access(dline, AccessType::Data);
                for (Prefetcher *pf : l1Pf) {
                    pfCandidates.clear();
                    pf->observe(dline, pfPc, !l1Hit, pfCandidates);
                    for (std::uint64_t target : pfCandidates)
                        playL1Prefetch(target);
                }
                if (!l1Hit)
                    dataMissBelowL1(dline, pfPc, access.mlp, collect);
                codegen.advance();
                break;
              }

              case InsnClass::Float:
              case InsnClass::Arith:
                codegen.advance();
                break;
            }

            // Context switches and JIT churn on their own cadences.
            if (switchInterval > 0 && --switchCountdown == 0) {
                switchCountdown = switchInterval;
                contextSwitch(collect);
            }
            if (++churnBlock == kChurnBlock) {
                codegen.applyChurn(churnBlock);
                churnBlock = 0;
            }
        }
    }

    /** Zero measurement accumulators after the warmup pass. */
    void
    clearStats()
    {
        machine.l1i().stats().clear();
        machine.l1d().stats().clear();
        machine.l2().stats().clear();
        machine.llc().stats().clear();
        machine.itlb().l1().stats().clear();
        machine.itlb().stlb().stats().clear();
        machine.dtlb().l1().stats().clear();
        machine.dtlb().stlb().stats().clear();
        events = EventSummary{};
    }

    /** The finished window's events, with the cache, TLB and
     *  page-mapping figures the roll-up reads. */
    EventSummary
    summary()
    {
        EventSummary out = events;
        out.l1i = machine.l1i().stats();
        out.l1d = machine.l1d().stats();
        out.l2 = machine.l2().stats();
        out.llc = machine.llc().stats();
        out.itlbL1 = machine.itlb().l1().stats();
        out.dtlbL1 = machine.dtlb().l1().stats();
        out.wastedShpBytes = pages.wastedShpBytes();
        out.totalHugeBytes = pages.totalHugeBytes();
        for (const RegionMapping &mapping : pages.mappings())
            out.footprintBytes +=
                static_cast<double>(mapping.region->sizeBytes);
        return out;
    }
};

} // namespace softsku::simcore

#endif // SOFTSKU_SIM_SIM_CORE_HH

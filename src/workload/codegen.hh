/**
 * @file
 * Synthetic instruction-fetch stream generator.
 *
 * Code is modelled as a population of functions whose popularity
 * follows a Zipf distribution (hot/warm/cold working sets).  Execution
 * advances sequentially through basic blocks; branch instructions
 * redirect fetch — short intra-function jumps, calls to other functions
 * (with a return stack), and returns.  Web's JIT additionally *remaps*
 * functions over time ("code churn"), which keeps its instruction
 * working set from ever settling into the caches — the mechanism behind
 * its extraordinary I-cache/ITLB miss rates (paper Sec. 2.4.2).
 */

#ifndef SOFTSKU_WORKLOAD_CODEGEN_HH
#define SOFTSKU_WORKLOAD_CODEGEN_HH

#include <cstdint>
#include <vector>

#include "stats/distributions.hh"
#include "stats/rng.hh"
#include "util/page_allocator.hh"
#include "workload/profile.hh"

namespace softsku {

/** Streaming program-counter generator for one hardware thread. */
class CodeGenerator
{
  public:
    /**
     * @param profile  workload being modelled
     * @param codeBase base virtual address of the text region
     * @param seed     stream seed
     */
    CodeGenerator(const WorkloadProfile &profile, std::uint64_t codeBase,
                  std::uint64_t seed);

    /** PC of the instruction about to execute. */
    std::uint64_t pc() const { return pc_; }

    /** Advance past one non-branch instruction. */
    void advance();

    /**
     * Execute one branch instruction.
     * @return true when the branch redirects fetch (was taken)
     */
    bool executeBranch();

    /**
     * Apply JIT code churn for @p instructions elapsed: remaps the
     * profile-configured fraction of functions to fresh addresses.
     */
    void applyChurn(std::uint64_t instructions);

    /**
     * Model a thread switch: jump to a different pool's code.
     * @return true when the switch crossed into a different thread pool
     */
    bool switchThread();

    /** Number of distinct functions in the model. */
    std::uint64_t functionCount() const { return functionCount_; }

    /** Virtual address of function @p id's entry. */
    std::uint64_t functionAddress(std::uint64_t id) const;

  private:
    void jumpToFunction(std::uint64_t id);

    /** Pick the next call target: Zipf hot set or uniform cold tail. */
    std::uint64_t selectFunction();

    const WorkloadProfile &profile_;
    std::uint64_t codeBase_;
    std::uint64_t codeSize_;
    std::uint64_t functionCount_;
    ZipfDistribution functionZipf_;
    Rng rng_;

    std::uint64_t pc_ = 0;
    std::uint64_t currentFunction_ = 0;
    std::uint64_t functionEnd_ = 0;

    /** Per-function remap epoch (JIT churn). */
    PageVector<std::uint32_t> epochs_;
    double churnCarry_ = 0.0;

    /** Small return stack for call/return locality. */
    std::vector<std::uint64_t> callStack_;
    /** Current thread pool id: offsets the hot set across pools. */
    std::uint64_t poolSalt_ = 0;
};

} // namespace softsku

#endif // SOFTSKU_WORKLOAD_CODEGEN_HH

#include "workload/codegen.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

namespace {

constexpr std::uint64_t kInsnBytes = 4;
constexpr size_t kMaxCallDepth = 16;

} // namespace

CodeGenerator::CodeGenerator(const WorkloadProfile &profile,
                             std::uint64_t codeBase, std::uint64_t seed)
    : profile_(profile), codeBase_(codeBase),
      codeSize_(profile.codeFootprintBytes),
      functionCount_(std::max<std::uint64_t>(
          1, profile.codeFootprintBytes / profile.avgFunctionBytes)),
      functionZipf_(profile.codeHotFunctions > 0
                        ? std::min(profile.codeHotFunctions, functionCount_)
                        : functionCount_,
                    profile.codeZipfSkew),
      rng_(seed)
{
    epochs_.assign(functionCount_, 0);
    jumpToFunction(selectFunction());
}

std::uint64_t
CodeGenerator::selectFunction()
{
    // A small fraction of calls reach the cold tail (error paths,
    // rarely exercised endpoints); everything else stays inside the
    // Zipf-ranked hot set.
    if (profile_.codeColdCallFraction > 0.0 &&
        rng_.chance(profile_.codeColdCallFraction)) {
        return rng_.below(functionCount_);
    }
    return functionZipf_.sample(rng_);
}

std::uint64_t
CodeGenerator::functionAddress(std::uint64_t id) const
{
    // Functions live at pseudo-random slots; a remap epoch bump moves
    // the function to a fresh slot (JIT recompilation).  Slot
    // collisions model code-cache reuse and are harmless.
    std::uint64_t slot =
        mix64(id ^ (static_cast<std::uint64_t>(epochs_[id]) << 40)) %
        functionCount_;
    return codeBase_ + slot * profile_.avgFunctionBytes;
}

void
CodeGenerator::jumpToFunction(std::uint64_t id)
{
    // Thread pools share the binary but execute different parts of it:
    // the pool rotates the popularity ranking over the same functions,
    // so a pool switch re-cools L1-I without inflating the total code
    // footprint the LLC sees.
    if (poolSalt_ != 0) {
        id = (id + poolSalt_ * (functionCount_ / 9 + 1)) % functionCount_;
    }
    currentFunction_ = id;
    pc_ = functionAddress(id);
    functionEnd_ = pc_ + profile_.avgFunctionBytes;
}

void
CodeGenerator::advance()
{
    pc_ += kInsnBytes;
    if (pc_ >= functionEnd_) {
        // Fell off the function end: return to the caller if any,
        // otherwise dispatch to a fresh function.
        if (!callStack_.empty()) {
            pc_ = callStack_.back();
            callStack_.pop_back();
            functionEnd_ =
                (pc_ - codeBase_) / profile_.avgFunctionBytes *
                    profile_.avgFunctionBytes +
                codeBase_ + profile_.avgFunctionBytes;
        } else {
            jumpToFunction(selectFunction());
        }
    }
}

bool
CodeGenerator::executeBranch()
{
    std::uint64_t branchPc = pc_;
    pc_ += kInsnBytes;
    if (!rng_.chance(profile_.branchTakenFraction))
        return false;

    if (rng_.chance(profile_.callFraction)) {
        // Call: remember the return address, enter a new function.
        if (callStack_.size() < kMaxCallDepth)
            callStack_.push_back(pc_);
        jumpToFunction(selectFunction());
    } else if (!callStack_.empty() && rng_.chance(0.4)) {
        // Return.
        pc_ = callStack_.back();
        callStack_.pop_back();
        functionEnd_ =
            (pc_ - codeBase_) / profile_.avgFunctionBytes *
                profile_.avgFunctionBytes +
            codeBase_ + profile_.avgFunctionBytes;
    } else {
        // Short intra-function jump (loop back-edge or forward skip).
        std::uint64_t funcBase = functionEnd_ - profile_.avgFunctionBytes;
        std::uint64_t span = profile_.avgFunctionBytes / kInsnBytes;
        pc_ = funcBase + rng_.below(span) * kInsnBytes;
    }
    (void)branchPc;
    return true;
}

void
CodeGenerator::applyChurn(std::uint64_t instructions)
{
    if (profile_.jitChurnPerMInsn <= 0.0)
        return;
    churnCarry_ += profile_.jitChurnPerMInsn *
                   static_cast<double>(functionCount_) *
                   static_cast<double>(instructions) / 1e6;
    while (churnCarry_ >= 1.0) {
        churnCarry_ -= 1.0;
        std::uint64_t victim = selectFunction();
        ++epochs_[victim];
    }
}

bool
CodeGenerator::switchThread()
{
    // Different thread pools execute different code: salt the
    // function→address mapping so the hot sets do not coincide.
    bool crossPool = rng_.chance(profile_.contextSwitch.crossPoolFraction);
    if (crossPool)
        poolSalt_ = rng_.next() & 0x7;
    callStack_.clear();
    jumpToFunction(selectFunction());
    return crossPool;
}

} // namespace softsku

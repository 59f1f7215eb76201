/**
 * @file
 * Cross-run persistence for the μSKU A/B memo cache.
 *
 * A full sweep costs hours of simulated measurement; re-running the
 * same tool invocation (CI smoke runs, bench warm-ups, fleet-wide
 * orchestrations that revisit a target) repeats comparisons whose
 * outcomes are fully determined by the environment seed, the spec's
 * statistics policy, the fault plan, and the comparison key.  This
 * module serializes those keyed outcomes to disk so a repeat
 * invocation replays them instead of measuring.
 *
 * Correctness contract: a cached entry may only be replayed in a run
 * whose *context* — everything a comparison's outcome depends on
 * besides its key — matches the run that measured it.  The context is
 * a canonical string (service, platform, env seed, simulation windows,
 * noise model, statistics policy, robustness policy, fault plan and
 * seed); it names the cache file via a stable hash and is verified
 * verbatim on load, so a hash collision or hand-edited file can never
 * smuggle foreign results into a report.
 *
 * Fidelity contract: doubles round-trip as IEEE-754 bit patterns (hex),
 * so a report composed from replayed entries is byte-identical to the
 * report of the run that measured them.
 */

#ifndef SOFTSKU_CORE_AB_CACHE_HH
#define SOFTSKU_CORE_AB_CACHE_HH

#include <cstddef>
#include <string>
#include <unordered_map>

#include "core/ab_test.hh"
#include "core/input_spec.hh"
#include "core/soft_sku.hh"
#include "sim/production_env.hh"

namespace softsku {

/**
 * Bumped whenever the on-disk entry layout changes.
 *
 * History: 1 = comparison entries only; 2 = adds the "validation"
 * section (chunked validation-phase results) — version-1 files are
 * ignored with a warning, which is exactly a cold run.  3 = embedded
 * knob configs move to the registry's keyed "knobs" layout; stale v2
 * files are likewise ignored with a warning and rebuilt.
 */
constexpr int kAbCacheSchemaVersion = 3;

/**
 * Exact double → "0x..." IEEE-754 bit pattern.  The cache's fidelity
 * contract rests on these two: every double in the file round-trips
 * bit-for-bit, including ±0, denormals, and infinities.
 */
std::string hexBits(double value);

/** Exact "0x..." bit pattern → double; false on malformed input. */
bool bitsFromHex(const std::string &text, double &out);

/**
 * The canonical context string for comparisons measured by @p env /
 * @p spec / @p robust.  Two runs may share cached results iff their
 * context strings are equal.
 */
std::string abCacheContext(const ProductionEnvironment &env,
                           const InputSpec &spec,
                           const RobustnessPolicy &robust);

/** The cache file a context maps to inside @p dir. */
std::string abCacheFilePath(const std::string &dir,
                            const std::string &context);

/**
 * Load the cache file for @p context from @p dir into @p into
 * (existing keys win — in-memory results are never overwritten).
 * Missing files are a clean miss; malformed files and context
 * mismatches are skipped with a warning, and so is any entry with a
 * missing or wrongly typed member while the others still load.  It
 * never aborts on file content.  When @p validation is given,
 * the file's validation-chunk section loads into it the same way.
 * @return number of comparison entries added
 */
std::size_t loadAbCache(const std::string &dir,
                        const std::string &context,
                        std::unordered_map<std::string, ABTestResult> &into,
                        ValidationCache *validation = nullptr);

/**
 * Serialize @p memo (and @p validation, when given) to the cache file
 * for @p context under @p dir, creating the directory when needed.
 * Entries are written in sorted key order, so the file bytes are
 * deterministic.
 * @return false on I/O failure (logged, never fatal)
 */
bool storeAbCache(const std::string &dir, const std::string &context,
                  const std::unordered_map<std::string, ABTestResult> &memo,
                  const ValidationCache *validation = nullptr);

} // namespace softsku

#endif // SOFTSKU_CORE_AB_CACHE_HH

/**
 * @file
 * The five prefetcher configurations μSKU's A/B tester sweeps
 * (paper Sec. 5, knob 5 / Fig 17).
 */

#ifndef SOFTSKU_PREFETCH_CONFIG_HH
#define SOFTSKU_PREFETCH_CONFIG_HH

#include <string>
#include <vector>

#include "arch/platform.hh"

namespace softsku {

/** Named prefetcher presets from the paper. */
enum class PrefetcherPreset
{
    AllOff,            //!< (a) all prefetchers off
    AllOn,             //!< (b) all on — default on Web (Skylake), Ads1
    DcuAndDcuIp,       //!< (c) DCU + DCU IP only
    DcuOnly,           //!< (d) DCU only
    L2StreamAndDcu,    //!< (e) L2 stream + DCU — default on Web (Broadwell)
};

/** Enable bits for a preset. */
PrefetcherSet prefetcherSetFor(PrefetcherPreset preset);

/** Paper-style label, e.g. "DCU & DCU IP on". */
std::string prefetcherPresetName(PrefetcherPreset preset);

/** Registry key for a preset. */
std::string prefetcherPresetKey(PrefetcherPreset preset);

/** All five presets in the paper's order. */
std::vector<PrefetcherPreset> allPrefetcherPresets();

} // namespace softsku

#endif // SOFTSKU_PREFETCH_CONFIG_HH

#include "prefetch/config.hh"

#include "util/logging.hh"

namespace softsku {

PrefetcherSet
prefetcherSetFor(PrefetcherPreset preset)
{
    switch (preset) {
      case PrefetcherPreset::AllOff:
        return {false, false, false, false};
      case PrefetcherPreset::AllOn:
        return {true, true, true, true};
      case PrefetcherPreset::DcuAndDcuIp:
        return {false, false, true, true};
      case PrefetcherPreset::DcuOnly:
        return {false, false, true, false};
      case PrefetcherPreset::L2StreamAndDcu:
        return {true, false, true, false};
    }
    panic("unreachable prefetcher preset");
}

std::string
prefetcherPresetName(PrefetcherPreset preset)
{
    switch (preset) {
      case PrefetcherPreset::AllOff: return "all prefetch off";
      case PrefetcherPreset::AllOn: return "all prefetch on";
      case PrefetcherPreset::DcuAndDcuIp: return "DCU & DCU IP on";
      case PrefetcherPreset::DcuOnly: return "DCU on";
      case PrefetcherPreset::L2StreamAndDcu: return "L2 hardware & DCU on";
    }
    panic("unreachable prefetcher preset");
}

std::string
prefetcherPresetKey(PrefetcherPreset preset)
{
    switch (preset) {
      case PrefetcherPreset::AllOff: return "all_off";
      case PrefetcherPreset::AllOn: return "all_on";
      case PrefetcherPreset::DcuAndDcuIp: return "dcu_dcuip";
      case PrefetcherPreset::DcuOnly: return "dcu_only";
      case PrefetcherPreset::L2StreamAndDcu: return "l2stream_dcu";
    }
    panic("unreachable prefetcher preset");
}

std::vector<PrefetcherPreset>
allPrefetcherPresets()
{
    return {PrefetcherPreset::AllOff, PrefetcherPreset::AllOn,
            PrefetcherPreset::DcuAndDcuIp, PrefetcherPreset::DcuOnly,
            PrefetcherPreset::L2StreamAndDcu};
}

} // namespace softsku

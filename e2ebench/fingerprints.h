/**
 * @file
 * Pinned digests of each workload's inputs for the default seed: the
 * generated rows and the serialized transform graph. A run with this
 * seed aborts when either differs, so a change in src/warehouse or in
 * the graph builder cannot silently change a workload under a
 * baseline. Regenerate with `dsi_bench --print-fingerprints` only when
 * a workload is meant to change (and re-measure the baseline).
 */

#ifndef DSI_E2EBENCH_FINGERPRINTS_H
#define DSI_E2EBENCH_FINGERPRINTS_H

#include <cstdint>

namespace dsi::e2e {

inline constexpr uint64_t kPinnedSeed = 1;

struct PinnedInputs
{
    const char *workload;
    uint64_t rows;
    uint64_t graph;
};

inline constexpr PinnedInputs kPinnedInputs[] = {
    {"wide_read", 0x761fc5e74547e72bULL, 0x452c5503704978c6ULL},
    {"heavy_transform", 0x8852b201f4cfe25fULL, 0x89de2ffec3d935c7ULL},
    {"dup_dedup", 0xb0c124d01494ecb6ULL, 0x89de2ffec3d935c7ULL},
    {"fleet_service", 0x7de8eaa7121ce7f6ULL, 0x8e71ba0b95bb8c4bULL},
};

} // namespace dsi::e2e

#endif // DSI_E2EBENCH_FINGERPRINTS_H

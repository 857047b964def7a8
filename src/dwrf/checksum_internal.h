/**
 * @file
 * The two CRC32-C kernels behind dwrf::crc32(), exposed so tests and
 * benches can check and time each one directly. Library code calls
 * crc32() and lets it dispatch.
 */

#ifndef DSI_DWRF_CHECKSUM_INTERNAL_H
#define DSI_DWRF_CHECKSUM_INTERNAL_H

#include <cstdint>

#include "dwrf/encoding.h"

namespace dsi::dwrf::detail {

/** Portable slicing-by-8 kernel; runs on every CPU. */
uint32_t crc32Portable(ByteSpan data);

/** True when this CPU runs crc32Hardware() (x86-64 with SSE4.2). */
bool crc32HardwareAvailable();

/**
 * SSE4.2 `crc32` instruction kernel. Only call it when
 * crc32HardwareAvailable() is true.
 */
uint32_t crc32Hardware(ByteSpan data);

} // namespace dsi::dwrf::detail

#endif // DSI_DWRF_CHECKSUM_INTERNAL_H

/**
 * @file
 * CRC32 (Castagnoli polynomial) for stream integrity.
 *
 * Production storage verifies every stream read; a corrupted block is
 * re-fetched from another replica. The reader checks each stored
 * stream against its footer checksum before decrypting it. A mismatch
 * is not fatal: readStripe counts it, returns ChecksumMismatch, and
 * calls RandomAccessSource::reportCorruption so a replicated backend
 * can quarantine the replica that served the bytes; the stripe retry
 * that follows rotates to another copy. Tectonic block stamps and the
 * checkpoint journal use the same function.
 *
 * crc32() picks its kernel once per process, at its first call: the
 * SSE4.2 `crc32` instruction over 8-byte words where the CPU has it
 * (x86-64 only), otherwise a portable slicing-by-8 table kernel. Both
 * compute the same CRC-32C, so stored checksums do not depend on the
 * host that wrote or reads them.
 */

#ifndef DSI_DWRF_CHECKSUM_H
#define DSI_DWRF_CHECKSUM_H

#include <cstdint>

#include "dwrf/encoding.h"

namespace dsi::dwrf {

/** CRC32-C of a byte span (the dispatched kernel). */
uint32_t crc32(ByteSpan data);

} // namespace dsi::dwrf

#endif // DSI_DWRF_CHECKSUM_H

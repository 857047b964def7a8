/**
 * @file
 * Block compression for DWRF streams.
 *
 * Production DWRF compresses each stream (zstd in Meta's fleet). We
 * implement an LZ4-style byte-oriented LZ77 codec from scratch — fast,
 * dependency-free, and with realistic (~1.5-2.5x on feature data)
 * ratios so the compressed-vs-uncompressed byte flows of Table IX have
 * the right shape.
 */

#ifndef DSI_DWRF_COMPRESS_H
#define DSI_DWRF_COMPRESS_H

#include <cstdint>
#include <optional>

#include "dwrf/encoding.h"

namespace dsi::dwrf {

/** Stream compression codec identifier (stored in file footers). */
enum class Codec : uint8_t
{
    None = 0, ///< store raw bytes
    Lz = 1,   ///< hash-chain LZ77, LZ4-like token format
};

/**
 * Compress `in` with `codec`, appending to `out`. The output is a
 * self-describing block: callers only need the same codec to decode.
 */
void compress(Codec codec, ByteSpan in, Buffer &out);

/**
 * Decompress a block produced by compress() whose raw length the
 * caller already knows (StreamInfo::raw_length). A block whose size
 * header disagrees with `raw_length` is rejected before anything is
 * allocated, so a hostile header cannot request a huge buffer.
 *
 * Returns the raw bytes, or std::nullopt on malformed input. For
 * Codec::None the result is a view into `in` (no copy); for Codec::Lz
 * it is the first `raw_length` bytes of `scratch`, which grows to the
 * largest block seen and is reused by the next call. The view is
 * valid until `in` or `scratch` changes.
 */
std::optional<ByteSpan> decompress(Codec codec, ByteSpan in,
                                   uint64_t raw_length, Buffer &scratch);

} // namespace dsi::dwrf

#endif // DSI_DWRF_COMPRESS_H

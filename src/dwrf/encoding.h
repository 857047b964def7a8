/**
 * @file
 * Primitive stream encodings for the DWRF-like columnar format:
 * varints, zigzag, run-length encoding of integers, and raw float
 * packing. These are the building blocks of feature streams.
 *
 * Each variable-length decoder exists in two forms:
 *
 *  - a **scalar reference** (`*Scalar`), the original
 *    one-value-per-call implementation, kept as the checked oracle;
 *  - a **bulk kernel** (the default-named entry point), which decodes
 *    whole runs and varint blocks into pre-sized output with a single
 *    bounds check per block instead of one per byte.
 *
 * The two are bit-identical by contract — accepting and rejecting
 * exactly the same inputs and producing exactly the same values —
 * and `tests/dwrf_encoding_test.cc` enforces it differentially on
 * random and adversarial streams. `bench/perf_suite` measures the
 * speedup (BENCH_decode.json).
 */

#ifndef DSI_DWRF_ENCODING_H
#define DSI_DWRF_ENCODING_H

#include <cstdint>
#include <span>
#include <vector>

namespace dsi::dwrf {

using Buffer = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;

/** Append an LEB128 varint. */
void putVarint(Buffer &out, uint64_t v);

/**
 * Decode a varint at `pos`, advancing `pos`. Returns false on
 * truncated/overlong input (pos is left unspecified on failure).
 */
bool getVarint(ByteSpan in, size_t &pos, uint64_t &v);

/** Zigzag mapping of signed to unsigned (small magnitudes stay small). */
inline uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

inline int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/** Append a signed varint (zigzag + LEB128). */
inline void
putSignedVarint(Buffer &out, int64_t v)
{
    putVarint(out, zigzagEncode(v));
}

inline bool
getSignedVarint(ByteSpan in, size_t &pos, int64_t &v)
{
    uint64_t u;
    if (!getVarint(in, pos, u))
        return false;
    v = zigzagDecode(u);
    return true;
}

/**
 * Bulk varint decode: fill `out` with consecutive varints starting at
 * `pos`. Returns the number of values decoded — `out.size()` on
 * success; fewer when the stream ends or a varint is malformed
 * (`pos` then points at the offending varint's first byte).
 * Acceptance is identical to calling getVarint() in a loop.
 */
size_t getVarintBlock(ByteSpan in, size_t &pos,
                      std::span<uint64_t> out);

/** Bulk signed (zigzag) variant of getVarintBlock. */
size_t getSignedVarintBlock(ByteSpan in, size_t &pos,
                            std::span<int64_t> out);

/** Append a float as 4 little-endian bytes. */
void putFloat(Buffer &out, float v);
bool getFloat(ByteSpan in, size_t &pos, float &v);

/**
 * Bulk float decode: read `out.size()` consecutive little-endian
 * floats with one bounds check and one copy. False (and `pos`
 * unchanged) when fewer than 4 * out.size() bytes remain.
 */
bool getFloatBlock(ByteSpan in, size_t &pos, std::span<float> out);

/** Append a fixed-width little-endian u32 / u64. */
void putU32(Buffer &out, uint32_t v);
bool getU32(ByteSpan in, size_t &pos, uint32_t &v);
void putU64(Buffer &out, uint64_t v);
bool getU64(ByteSpan in, size_t &pos, uint64_t &v);

/**
 * ORC-style run-length encoding of int64 sequences. Runs of >= 3 equal
 * deltas are encoded as (run header, base, delta); other values are
 * emitted as literal groups. Effective on sparse-length streams, which
 * are dominated by zeros (absent features).
 */
void rleEncode(const std::vector<int64_t> &values, Buffer &out);

/**
 * Decode an RLE stream, appending to `values`; returns false on
 * malformed input. `limit` is the most values `values` may hold
 * afterwards — the count the caller already knows (a stripe's rows,
 * a dictionary's entries). A run or literal group that would pass it
 * is rejected before anything is allocated, so a forged run length
 * cannot request a huge buffer. Bulk kernel: runs materialize via a
 * resize + linear fill and literal groups decode through
 * getSignedVarintBlock.
 */
bool rleDecode(ByteSpan in, std::vector<int64_t> &values, uint64_t limit);

/** Scalar reference decoder (one value per call); same contract. */
bool rleDecodeScalar(ByteSpan in, std::vector<int64_t> &values,
                     uint64_t limit);

/**
 * Categorical-value stream encoding with optional dictionary
 * (ORC/DWRF-style). Zipf-skewed id lists repeat a small hot set; when
 * the distinct-value count is low enough the values are stored as a
 * dictionary plus small indices, otherwise as direct signed varints.
 * The choice is embedded in the stream (self-describing).
 */
void encodeValues(const std::vector<int64_t> &values, Buffer &out);

/**
 * Decode an encodeValues() stream; false on malformed input. Bulk
 * kernel: direct streams decode through getSignedVarintBlock; dict
 * streams decode index blocks and gather through the dictionary.
 */
bool decodeValues(ByteSpan in, std::vector<int64_t> &values);

/** Scalar reference decoder (one value per call); same contract. */
bool decodeValuesScalar(ByteSpan in, std::vector<int64_t> &values);

} // namespace dsi::dwrf

#endif // DSI_DWRF_ENCODING_H

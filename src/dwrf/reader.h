/**
 * @file
 * DWRF file reader with selective feature projection and coalesced IO
 * planning.
 *
 * Training jobs read 9-11% of stored features (Table V); the reader
 * plans exactly the byte ranges the projection needs from the footer
 * index. With coalescing enabled, nearby stream ranges (gap below a
 * threshold, 1.25 MiB in production) merge into a single IO to
 * amortize HDD seeks, trading over-read bytes for IOPS (Section VII).
 */

#ifndef DSI_DWRF_READER_H
#define DSI_DWRF_READER_H

#include <map>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/backoff.h"
#include "common/deadline.h"
#include "common/trace.h"
#include "dwrf/cipher.h"
#include "dwrf/dedup.h"
#include "dwrf/format.h"
#include "dwrf/row.h"
#include "dwrf/source.h"

namespace dsi::dwrf {

/**
 * Outcome of a checked stripe read. Everything but Ok is recoverable:
 * the stripe's bytes stay untouched in storage, so the caller can
 * retry (a re-read rotates to another replica) or abandon the split.
 */
enum class ReadStatus
{
    Ok,
    IoError,           ///< storage could not serve the bytes
    ChecksumMismatch,  ///< stream CRC32 disagreed with the footer
    DecodeError,       ///< bytes fetched but undecodable (truncated?)
    DeadlineExpired,   ///< the read budget ran out mid-retry
};

/** Read-side configuration. */
struct ReadOptions
{
    /** Features to materialize; empty means every stored feature. */
    std::vector<FeatureId> projection;

    /** Merge stream reads whose gap is <= kCoalesceGap into one IO. */
    bool coalesce = false;

    /** Key for encrypted files. Must match the writer's. */
    uint64_t cipher_key = 0x00d5f00dULL;

    /** Verify each stream's CRC32 against the footer. */
    bool verify_checksums = true;

    /**
     * Extra attempts after a failed stripe read. Retries re-fetch the
     * stripe, which rotates replica choice — the path a corrupt or
     * unavailable replica recovers through.
     */
    uint32_t max_stripe_retries = 2;

    /**
     * Base retry delay (the floor of every jittered draw); 0 disables
     * the sleep. Retries use dsi::Backoff decorrelated jitter — a
     * deterministic doubling ladder would re-stampede a recovering
     * replica with synchronized retry waves.
     */
    uint64_t retry_backoff_us = 200;
};

/** Largest gap coalescing merges across: 1.25 MiB, the production
 * setting. */
inline constexpr Bytes kCoalesceGap = 1310720;

/** Cap on any single stripe-retry delay. */
inline constexpr uint64_t kRetryBackoffCapUs = 50'000;

/** Byte accounting of the extraction phase. */
struct ReadStats
{
    Bytes bytes_read = 0;     ///< fetched from storage (incl. over-read)
    Bytes bytes_needed = 0;   ///< stored bytes of projected streams
    Bytes bytes_decompressed = 0; ///< raw bytes produced by the codec
    Bytes bytes_decrypted = 0;
    uint64_t ios = 0;
    uint64_t streams_decoded = 0;

    // Fault-path accounting.
    uint64_t checksum_mismatches = 0; ///< streams failing CRC32
    uint64_t io_errors = 0;           ///< reads storage could not serve
    uint64_t decode_errors = 0;       ///< undecodable fetched streams
    uint64_t stripe_retries = 0;      ///< re-read attempts issued
    uint64_t deadline_expired = 0;    ///< reads abandoned on budget

    // Dedup (list-dictionary) accounting.
    uint64_t dict_streams = 0;      ///< shared dicts fetched + decoded
    uint64_t dict_list_refs = 0;    ///< row lists gathered from a dict
    uint64_t dict_lists_inline = 0; ///< row lists decoded inline

    Bytes overRead() const
    {
        return bytes_read > bytes_needed ? bytes_read - bytes_needed
                                         : 0;
    }

    /** Fold another reader's totals into this one (every field). */
    void merge(const ReadStats &o)
    {
        bytes_read += o.bytes_read;
        bytes_needed += o.bytes_needed;
        bytes_decompressed += o.bytes_decompressed;
        bytes_decrypted += o.bytes_decrypted;
        ios += o.ios;
        streams_decoded += o.streams_decoded;
        checksum_mismatches += o.checksum_mismatches;
        io_errors += o.io_errors;
        decode_errors += o.decode_errors;
        stripe_retries += o.stripe_retries;
        deadline_expired += o.deadline_expired;
        dict_streams += o.dict_streams;
        dict_list_refs += o.dict_list_refs;
        dict_lists_inline += o.dict_lists_inline;
    }
};

/** One planned IO: a contiguous byte range covering >= 1 streams. */
struct PlannedIo
{
    Bytes offset = 0;
    Bytes length = 0;
    std::vector<size_t> stream_indices; ///< into StripeInfo::streams
};

/**
 * Plan the IOs needed to fetch `wanted` streams of a stripe.
 * Exposed separately so benches can study IO-size distributions
 * (Table VI) without decoding.
 */
std::vector<PlannedIo> planStripeReads(const StripeInfo &stripe,
                                       const std::vector<size_t> &wanted,
                                       bool coalesce, Bytes coalesce_gap);

/** Reads stripes of one DWRF file into columnar batches. */
class FileReader
{
  public:
    FileReader(const RandomAccessSource &source, ReadOptions options);

    /** False if the footer failed to parse. */
    bool valid() const { return footer_.has_value(); }
    const FileFooter &footer() const { return *footer_; }

    size_t stripeCount() const
    {
        return valid() ? footer_->stripes.size() : 0;
    }
    uint64_t totalRows() const
    {
        return valid() ? footer_->total_rows : 0;
    }

    /**
     * Read and decode one stripe into `out`, applying the projection.
     * Failures (IO, checksum, decode) are retried up to
     * ReadOptions::max_stripe_retries times with decorrelated-jitter
     * backoff; the final status is returned instead of aborting, so
     * callers can fail the split over to another worker or another
     * replica. Retries (and their sleeps) observe the deadline set by
     * setDeadline(): an expired budget returns DeadlineExpired so the
     * caller can requeue the work instead of hanging on it. The
     * stripe-read span parents on the ambient trace::currentParent()
     * (the worker's extract-stripe span).
     */
    ReadStatus readStripe(size_t stripe_index, RowBatch &out);

    /**
     * Attach the time budget of the work this reader serves (a split
     * grant's deadline). Default: unbounded.
     */
    void setDeadline(Deadline deadline) { deadline_ = deadline; }

    /** Cumulative extraction accounting across readStripe calls. */
    const ReadStats &stats() const { return stats_; }

  private:
    ReadStatus readStripeOnce(size_t stripe_index, RowBatch &out);
    std::vector<size_t> selectStreams(const StripeInfo &stripe) const;
    /** True when `feature` is materialized (always, without a
     * projection). */
    bool projected(FeatureId feature) const
    {
        return projection_.empty() || projection_.count(feature) != 0;
    }
    /**
     * Fetch + decode `feature`'s shared list dictionary (cached after
     * the first use, so cross-stripe references cost one IO per
     * file). `out` is nullptr when the file has none for the feature.
     * Failures are not cached: the stripe-level retry re-fetches,
     * rotating replicas, which is how a corrupt dictionary replica
     * heals (openStream's CRC check reports it via reportCorruption).
     */
    ReadStatus loadSharedDict(FeatureId feature,
                              const DecodedListDict *&out);
    /**
     * Verify, decrypt, then decompress one stream. `stored` is the
     * stream's bytes inside an IO buffer; they are decrypted in place.
     * `raw` views the decompressed bytes: the IO buffer itself for
     * Codec::None, else raw_scratch_, so it is valid only until the
     * next openStream call.
     */
    ReadStatus openStream(const StreamInfo &info,
                          std::span<uint8_t> stored, ByteSpan &raw);
    ReadStatus decodeFlattened(const StripeInfo &stripe,
                               const std::vector<size_t> &wanted,
                               const std::vector<PlannedIo> &plan,
                               std::vector<Buffer> &io_data,
                               RowBatch &out);
    ReadStatus decodeMapBlob(const StripeInfo &stripe,
                             const std::vector<size_t> &wanted,
                             const std::vector<PlannedIo> &plan,
                             std::vector<Buffer> &io_data,
                             RowBatch &out);
    /** Decode `count` rows of a map blob, keeping projected features;
     * false on malformed input. */
    bool decodeBlobRows(ByteSpan raw, uint32_t count,
                        std::vector<Row> &rows) const;

    /**
     * Strip `out`'s previous contents into the spare-column lists,
     * keeping their heap blocks so this stripe's decode reuses the
     * capacity instead of reallocating every column every stripe.
     */
    void recycleBatch(RowBatch &out);
    DenseColumn takeSpareDense();
    SparseColumn takeSpareSparse();

    const RandomAccessSource &source_;
    ReadOptions options_;
    StreamCipher cipher_;
    std::optional<FileFooter> footer_;
    ReadStats stats_;
    Deadline deadline_; ///< budget for reads; default unbounded
    Backoff backoff_;   ///< jittered retry delays

    // Capacity recycling: cleared columns stripped from the caller's
    // previous batch, plus a scratch vector for RLE sparse lengths.
    // Bounded by one stripe's worth of columns.
    std::vector<DenseColumn> spare_dense_;
    std::vector<SparseColumn> spare_sparse_;
    std::vector<int64_t> scratch_lengths_;

    /** Decompression target, reused by every stream: as large as the
     * largest stream this reader has opened. */
    Buffer raw_scratch_;

    /** ReadOptions::projection as a set, built once; empty = all. */
    std::unordered_set<FeatureId> projection_;

    /** Decoded shared dictionaries, cached per feature for the file. */
    std::map<FeatureId, DecodedListDict> dict_cache_;
};

} // namespace dsi::dwrf

#endif // DSI_DWRF_READER_H

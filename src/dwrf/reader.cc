#include "reader.h"

#include "dwrf/checksum.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "common/logging.h"

namespace dsi::dwrf {

std::vector<PlannedIo>
planStripeReads(const StripeInfo &stripe,
                const std::vector<size_t> &wanted, bool coalesce,
                Bytes coalesce_gap)
{
    std::vector<size_t> order = wanted;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return stripe.streams[a].offset < stripe.streams[b].offset;
    });

    std::vector<PlannedIo> plan;
    for (size_t idx : order) {
        const auto &s = stripe.streams[idx];
        if (coalesce && !plan.empty()) {
            auto &last = plan.back();
            Bytes last_end = last.offset + last.length;
            dsi_assert(s.offset >= last.offset,
                       "streams not sorted by offset");
            if (s.offset <= last_end + coalesce_gap) {
                Bytes new_end = std::max(last_end, s.offset + s.length);
                last.length = new_end - last.offset;
                last.stream_indices.push_back(idx);
                continue;
            }
        }
        plan.push_back({s.offset, s.length, {idx}});
    }
    return plan;
}

FileReader::FileReader(const RandomAccessSource &source,
                       ReadOptions options)
    : source_(source), options_(std::move(options)),
      cipher_(options_.cipher_key),
      backoff_(BackoffOptions{.base_us = options_.retry_backoff_us,
                              .cap_us = kRetryBackoffCapUs}),
      projection_(options_.projection.begin(), options_.projection.end())
{
    // Fetch the tail, then the footer it points at. An unreadable
    // footer leaves the reader invalid (recoverable) rather than
    // aborting.
    Bytes file_size = source_.size();
    if (file_size < kTailBytes)
        return;
    Buffer tail;
    if (source_.readChecked(file_size - kTailBytes, kTailBytes, tail) !=
        IoStatus::Ok) {
        return;
    }
    size_t pos = 0;
    uint64_t footer_len;
    uint32_t magic;
    if (!getU64(tail, pos, footer_len) || !getU32(tail, pos, magic) ||
        magic != kFileMagic ||
        footer_len + kTailBytes > file_size) {
        return;
    }
    Buffer footer_bytes;
    if (source_.readChecked(file_size - kTailBytes - footer_len,
                            footer_len, footer_bytes) != IoStatus::Ok) {
        return;
    }
    footer_ = FileFooter::deserialize(footer_bytes);
}

std::vector<size_t>
FileReader::selectStreams(const StripeInfo &stripe) const
{
    std::vector<size_t> wanted;
    wanted.reserve(stripe.streams.size());
    for (size_t i = 0; i < stripe.streams.size(); ++i) {
        const auto &s = stripe.streams[i];
        // Labels and map blobs are always needed; feature streams only
        // when projected.
        if (s.feature == kNoFeature || projected(s.feature))
            wanted.push_back(i);
    }
    return wanted;
}

namespace {

/** Stream `stream_idx`'s stored bytes inside the IO buffer that
 * fetched them. */
std::span<uint8_t>
storedBytes(const StripeInfo &stripe, size_t stream_idx,
            const std::vector<PlannedIo> &plan,
            std::vector<Buffer> &io_data)
{
    const auto &s = stripe.streams[stream_idx];
    for (size_t p = 0; p < plan.size(); ++p) {
        const auto &io = plan[p];
        if (s.offset >= io.offset &&
            s.offset + s.length <= io.offset + io.length) {
            return std::span<uint8_t>(io_data[p]).subspan(
                s.offset - io.offset, s.length);
        }
    }
    dsi_panic("stream %zu not covered by IO plan", stream_idx);
}

/** Emit the reader-step span `timer` began over stream `info`: one
 * Complete span under the stripe read, readStripe's ambient parent. */
void
stepDone(trace::Timer &timer, const char *step, const StreamInfo &info,
         Bytes bytes)
{
    timer.complete(step, trace::currentParent(), info.offset, bytes);
}

} // namespace

ReadStatus
FileReader::readStripe(size_t stripe_index, RowBatch &out)
{
    trace::Span span(trace::spans::kReaderStripe,
                     trace::currentParent(), stripe_index);
    // Storage reads issued below (RandomAccessSource::readChecked)
    // pick up this span through the ambient parent — readChecked's
    // virtual signature cannot carry a trace context.
    trace::ScopedParent ambient(span.id());

    if (deadline_.expired()) {
        ++stats_.deadline_expired;
        return ReadStatus::DeadlineExpired;
    }
    ReadStatus status = readStripeOnce(stripe_index, out);
    if (status == ReadStatus::Ok) {
        backoff_.reset();
        return status;
    }
    for (uint32_t retry = 0; retry < options_.max_stripe_retries;
         ++retry) {
        ++stats_.stripe_retries;
        trace::instant(trace::events::kReaderRetry, span.id(),
                       stripe_index, retry + 1);
        if (options_.retry_backoff_us > 0 &&
            !backoff_.sleep(deadline_)) {
            ++stats_.deadline_expired;
            return ReadStatus::DeadlineExpired;
        }
        if (deadline_.expired()) {
            ++stats_.deadline_expired;
            return ReadStatus::DeadlineExpired;
        }
        // A re-read rotates the replica choice in the source, so a
        // corrupt or failed replica is routed around.
        status = readStripeOnce(stripe_index, out);
        if (status == ReadStatus::Ok) {
            backoff_.reset();
            return status;
        }
    }
    return status;
}

ReadStatus
FileReader::readStripeOnce(size_t stripe_index, RowBatch &out)
{
    dsi_assert(valid(), "reader is invalid");
    dsi_assert(stripe_index < footer_->stripes.size(),
               "stripe %zu out of range", stripe_index);
    const StripeInfo &stripe = footer_->stripes[stripe_index];
    recycleBatch(out);

    std::vector<size_t> wanted = selectStreams(stripe);
    auto plan = planStripeReads(stripe, wanted, options_.coalesce,
                                kCoalesceGap);

    std::vector<Buffer> io_data(plan.size());
    for (size_t p = 0; p < plan.size(); ++p) {
        if (source_.readChecked(plan[p].offset, plan[p].length,
                                io_data[p]) != IoStatus::Ok) {
            ++stats_.io_errors;
            return ReadStatus::IoError;
        }
        stats_.bytes_read += plan[p].length;
        ++stats_.ios;
    }
    for (size_t idx : wanted)
        stats_.bytes_needed += stripe.streams[idx].length;

    return footer_->flattened
        ? decodeFlattened(stripe, wanted, plan, io_data, out)
        : decodeMapBlob(stripe, wanted, plan, io_data, out);
}

ReadStatus
FileReader::loadSharedDict(FeatureId feature,
                           const DecodedListDict *&out)
{
    out = nullptr;
    auto cached = dict_cache_.find(feature);
    if (cached != dict_cache_.end()) {
        out = &cached->second;
        return ReadStatus::Ok;
    }
    const StreamInfo *info = footer_->sharedDictFor(feature);
    if (info == nullptr)
        return ReadStatus::Ok; // all-inline column; no dict stream

    Buffer stored;
    if (source_.readChecked(info->offset, info->length, stored) !=
        IoStatus::Ok) {
        ++stats_.io_errors;
        return ReadStatus::IoError;
    }
    stats_.bytes_read += info->length;
    stats_.bytes_needed += info->length;
    ++stats_.ios;

    ByteSpan raw;
    ReadStatus st = openStream(*info, stored, raw);
    if (st != ReadStatus::Ok)
        return st;
    trace::Timer decode;
    DecodedListDict dict;
    bool ok = decodeSharedListDict(raw, dict);
    stepDone(decode, trace::spans::kReaderDecode, *info, raw.size());
    if (!ok) {
        ++stats_.decode_errors;
        return ReadStatus::DecodeError;
    }
    ++stats_.dict_streams;
    out = &dict_cache_.emplace(feature, std::move(dict)).first->second;
    return ReadStatus::Ok;
}

ReadStatus
FileReader::openStream(const StreamInfo &info, std::span<uint8_t> stored,
                       ByteSpan &raw)
{
    if (options_.verify_checksums) {
        trace::Timer timer;
        bool match = crc32(stored) == info.checksum;
        stepDone(timer, trace::spans::kReaderChecksum, info,
                 stored.size());
        if (!match) {
            ++stats_.checksum_mismatches;
            dsi_warn("checksum mismatch in stream at offset %llu "
                     "(corrupt replica?)",
                     static_cast<unsigned long long>(info.offset));
            // Tell the source which bytes failed verification so a
            // replicated backend can quarantine and read-repair the
            // replica that served them; the retry that follows
            // rotates to a healthy copy.
            source_.reportCorruption(info.offset, info.length);
            return ReadStatus::ChecksumMismatch;
        }
    }
    if (footer_->encrypted) {
        trace::Timer timer;
        cipher_.apply(info.offset, stored);
        stepDone(timer, trace::spans::kReaderDecrypt, info,
                 stored.size());
        stats_.bytes_decrypted += stored.size();
    }
    trace::Timer timer;
    auto decompressed =
        decompress(footer_->codec, stored, info.raw_length, raw_scratch_);
    stepDone(timer, trace::spans::kReaderDecompress, info, stored.size());
    if (!decompressed.has_value()) {
        ++stats_.decode_errors;
        dsi_warn("stream at offset %llu failed to decode",
                 static_cast<unsigned long long>(info.offset));
        return ReadStatus::DecodeError;
    }
    raw = *decompressed;
    stats_.bytes_decompressed += raw.size();
    ++stats_.streams_decoded;
    return ReadStatus::Ok;
}

void
FileReader::recycleBatch(RowBatch &out)
{
    for (auto &c : out.dense) {
        c.present.clear();
        c.values.clear();
        spare_dense_.push_back(std::move(c));
    }
    for (auto &c : out.sparse) {
        c.offsets.clear();
        c.values.clear();
        c.scores.clear();
        spare_sparse_.push_back(std::move(c));
    }
    out.dense.clear();
    out.sparse.clear();
    out.labels.clear();
    out.rows = 0;
}

DenseColumn
FileReader::takeSpareDense()
{
    if (spare_dense_.empty())
        return {};
    DenseColumn c = std::move(spare_dense_.back());
    spare_dense_.pop_back();
    return c;
}

SparseColumn
FileReader::takeSpareSparse()
{
    if (spare_sparse_.empty())
        return {};
    SparseColumn c = std::move(spare_sparse_.back());
    spare_sparse_.pop_back();
    return c;
}

namespace {

/**
 * Count set bits among the first `rows` bits of a present bitmap
 * (padding bits in the last byte are masked out, matching what
 * DenseColumn::isPresent can ever observe).
 */
size_t
presentCount(const std::vector<uint8_t> &present, uint32_t rows)
{
    size_t count = 0;
    size_t full = rows / 8;
    for (size_t i = 0; i < full; ++i)
        count += static_cast<size_t>(std::popcount(present[i]));
    if (rows % 8) {
        uint8_t mask = static_cast<uint8_t>((1u << (rows % 8)) - 1);
        count += static_cast<size_t>(
            std::popcount(static_cast<uint8_t>(present[full] & mask)));
    }
    return count;
}

} // namespace

ReadStatus
FileReader::decodeFlattened(const StripeInfo &stripe,
                            const std::vector<size_t> &wanted,
                            const std::vector<PlannedIo> &plan,
                            std::vector<Buffer> &io_data,
                            RowBatch &batch)
{
    batch.rows = stripe.rows;
    // Corruption that slips past the CRC (or truncated streams) maps
    // to DecodeError here instead of aborting the process.
    auto decode_fail = [&]() {
        ++stats_.decode_errors;
        return ReadStatus::DecodeError;
    };
    // Each opened stream's view lives until the next open, so every
    // stream is consumed before the next one is opened.
    auto open = [&](size_t idx, ByteSpan &raw) {
        return openStream(stripe.streams[idx],
                          storedBytes(stripe, idx, plan, io_data), raw);
    };
    auto decoded = [&](trace::Timer &timer, const char *step,
                       size_t idx) {
        stepDone(timer, step, stripe.streams[idx],
                 stripe.streams[idx].raw_length);
    };

    // Group the wanted streams by feature so value/length/score
    // streams of one feature decode together.
    struct FeatureStreams
    {
        size_t present = SIZE_MAX, dense_values = SIZE_MAX,
               lengths = SIZE_MAX, sparse_values = SIZE_MAX,
               scores = SIZE_MAX, list_dict = SIZE_MAX;
    };
    std::vector<std::pair<FeatureId, FeatureStreams>> features;
    auto feature_slot = [&](FeatureId id) -> FeatureStreams & {
        for (auto &[fid, fs] : features)
            if (fid == id)
                return fs;
        features.emplace_back(id, FeatureStreams{});
        return features.back().second;
    };

    for (size_t idx : wanted) {
        const auto &s = stripe.streams[idx];
        switch (s.kind) {
          case StreamKind::Labels: {
            ByteSpan raw;
            ReadStatus st = open(idx, raw);
            if (st != ReadStatus::Ok)
                return st;
            trace::Timer timer;
            size_t pos = 0;
            batch.labels.resize(stripe.rows);
            bool ok = getFloatBlock(raw, pos, batch.labels);
            decoded(timer, trace::spans::kReaderDecode, idx);
            if (!ok)
                return decode_fail();
            break;
          }
          case StreamKind::DensePresent:
            feature_slot(s.feature).present = idx;
            break;
          case StreamKind::DenseValues:
            feature_slot(s.feature).dense_values = idx;
            break;
          case StreamKind::SparseLengths:
            feature_slot(s.feature).lengths = idx;
            break;
          case StreamKind::SparseValues:
            feature_slot(s.feature).sparse_values = idx;
            break;
          case StreamKind::SparseScores:
            feature_slot(s.feature).scores = idx;
            break;
          case StreamKind::SparseListDict:
            feature_slot(s.feature).list_dict = idx;
            break;
          case StreamKind::SharedListDict:
            // File-level dictionary streams are indexed from the
            // footer, never from a stripe.
            return decode_fail();
          case StreamKind::MapBlob:
            dsi_panic("map blob stream in a flattened file");
        }
    }

    for (auto &[fid, fs] : features) {
        if (fs.present != SIZE_MAX && fs.dense_values != SIZE_MAX) {
            DenseColumn col = takeSpareDense();
            col.id = fid;
            ByteSpan present_raw;
            ReadStatus st = open(fs.present, present_raw);
            if (st != ReadStatus::Ok)
                return st;
            trace::Timer present_timer;
            col.present.assign(present_raw.begin(), present_raw.end());
            decoded(present_timer, trace::spans::kReaderDecode,
                    fs.present);
            if (col.present.size() != (stripe.rows + 7) / 8)
                return decode_fail();
            ByteSpan values_raw;
            st = open(fs.dense_values, values_raw);
            if (st != ReadStatus::Ok)
                return st;
            trace::Timer values_timer;
            col.values.assign(stripe.rows, 0.0f);
            // Present rows' floats are stored contiguously: one bounds
            // check for the whole stream, then a straight copy (all
            // rows present) or a branch-per-row scatter.
            size_t n_present = presentCount(col.present, stripe.rows);
            bool ok = values_raw.size() >= n_present * sizeof(float);
            if (ok && n_present == stripe.rows) {
                std::memcpy(col.values.data(), values_raw.data(),
                            n_present * sizeof(float));
            } else if (ok) {
                const uint8_t *src = values_raw.data();
                for (uint32_t r = 0; r < stripe.rows; ++r) {
                    if (col.isPresent(r)) {
                        std::memcpy(&col.values[r], src, sizeof(float));
                        src += sizeof(float);
                    }
                }
            }
            decoded(values_timer, trace::spans::kReaderDecode,
                    fs.dense_values);
            if (!ok)
                return decode_fail();
            batch.dense.push_back(std::move(col));
        } else if (fs.list_dict != SIZE_MAX) {
            // Dedup-encoded column: per-row codes gather shared-dict
            // entries; the inline residue decodes via the ordinary
            // rle/value codecs (dwrf/dedup.h).
            const DecodedListDict *dict = nullptr;
            ReadStatus st = loadSharedDict(fid, dict);
            if (st != ReadStatus::Ok)
                return st;
            SparseColumn col = takeSpareSparse();
            col.id = fid;
            ByteSpan raw;
            st = open(fs.list_dict, raw);
            if (st != ReadStatus::Ok)
                return st;
            trace::Timer timer;
            ListDictDecodeStats ds;
            bool ok = decodeListDictColumn(raw, stripe.rows, dict, col,
                                           &ds);
            decoded(timer, trace::spans::kReaderDictGather,
                    fs.list_dict);
            if (!ok)
                return decode_fail();
            stats_.dict_list_refs += ds.dict_refs;
            stats_.dict_lists_inline += ds.inline_lists;
            batch.sparse.push_back(std::move(col));
        } else if (fs.lengths != SIZE_MAX &&
                   fs.sparse_values != SIZE_MAX) {
            SparseColumn col = takeSpareSparse();
            col.id = fid;
            ByteSpan lengths_raw;
            ReadStatus st = open(fs.lengths, lengths_raw);
            if (st != ReadStatus::Ok)
                return st;
            trace::Timer lengths_timer;
            scratch_lengths_.clear();
            bool ok = rleDecode(lengths_raw, scratch_lengths_,
                                stripe.rows) &&
                      scratch_lengths_.size() == stripe.rows;
            if (ok) {
                col.offsets.assign(stripe.rows + 1, 0);
                for (uint32_t r = 0; r < stripe.rows; ++r) {
                    col.offsets[r + 1] =
                        col.offsets[r] +
                        static_cast<uint32_t>(scratch_lengths_[r]);
                }
            }
            decoded(lengths_timer, trace::spans::kReaderDecode,
                    fs.lengths);
            if (!ok)
                return decode_fail();
            ByteSpan values_raw;
            st = open(fs.sparse_values, values_raw);
            if (st != ReadStatus::Ok)
                return st;
            trace::Timer values_timer;
            ok = decodeValues(values_raw, col.values) &&
                 col.values.size() == col.offsets[stripe.rows];
            decoded(values_timer, trace::spans::kReaderDecode,
                    fs.sparse_values);
            if (!ok)
                return decode_fail();
            if (fs.scores != SIZE_MAX) {
                ByteSpan scores_raw;
                st = open(fs.scores, scores_raw);
                if (st != ReadStatus::Ok)
                    return st;
                trace::Timer scores_timer;
                col.scores.resize(col.values.size());
                size_t pos = 0;
                ok = getFloatBlock(scores_raw, pos, col.scores);
                decoded(scores_timer, trace::spans::kReaderDecode,
                        fs.scores);
                if (!ok)
                    return decode_fail();
            }
            batch.sparse.push_back(std::move(col));
        }
        // A feature with only some of its streams projected (shouldn't
        // happen through the public API) is silently skipped.
    }
    return ReadStatus::Ok;
}

ReadStatus
FileReader::decodeMapBlob(const StripeInfo &stripe,
                          const std::vector<size_t> &wanted,
                          const std::vector<PlannedIo> &plan,
                          std::vector<Buffer> &io_data,
                          RowBatch &out)
{
    // Legacy path: decode every row of the blob, then drop unprojected
    // features. This is the paper's "reading the entire row" baseline.
    std::vector<Row> rows;
    rows.reserve(stripe.rows);
    auto decode_fail = [&]() {
        ++stats_.decode_errors;
        return ReadStatus::DecodeError;
    };

    for (size_t idx : wanted) {
        const auto &s = stripe.streams[idx];
        if (s.kind != StreamKind::MapBlob)
            continue;
        ByteSpan raw;
        ReadStatus st = openStream(
            s, storedBytes(stripe, idx, plan, io_data), raw);
        if (st != ReadStatus::Ok)
            return st;
        trace::Timer timer;
        bool ok = decodeBlobRows(raw, stripe.rows, rows);
        stepDone(timer, trace::spans::kReaderDecode, s, s.raw_length);
        if (!ok)
            return decode_fail();
    }
    out = batchFromRows(rows);
    return ReadStatus::Ok;
}

bool
FileReader::decodeBlobRows(ByteSpan raw, uint32_t count,
                           std::vector<Row> &rows) const
{
    size_t pos = 0;
    for (uint32_t r = 0; r < count; ++r) {
        Row row;
        uint64_t ndense;
        if (!getFloat(raw, pos, row.label) ||
            !getVarint(raw, pos, ndense)) {
            return false;
        }
        for (uint64_t d = 0; d < ndense; ++d) {
            uint64_t id;
            float v;
            if (!getVarint(raw, pos, id) || !getFloat(raw, pos, v))
                return false;
            if (projected(static_cast<FeatureId>(id)))
                row.dense.push_back({static_cast<FeatureId>(id), v});
        }
        uint64_t nsparse;
        if (!getVarint(raw, pos, nsparse))
            return false;
        for (uint64_t si = 0; si < nsparse; ++si) {
            uint64_t id, len;
            // Each value takes at least one byte: a longer list is
            // forged and must not size a vector.
            if (!getVarint(raw, pos, id) || !getVarint(raw, pos, len) ||
                len > raw.size() - pos) {
                return false;
            }
            SparseFeature f;
            f.id = static_cast<FeatureId>(id);
            f.values.resize(len);
            for (auto &v : f.values) {
                if (!getSignedVarint(raw, pos, v))
                    return false;
            }
            if (pos >= raw.size())
                return false;
            bool scored = raw[pos++] != 0;
            if (scored) {
                f.scores.resize(len);
                for (auto &sc : f.scores) {
                    if (!getFloat(raw, pos, sc))
                        return false;
                }
            }
            if (projected(f.id))
                row.sparse.push_back(std::move(f));
        }
        rows.push_back(std::move(row));
    }
    return true;
}

} // namespace dsi::dwrf

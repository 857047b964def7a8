#include "checkpoint_journal.h"

#include <algorithm>

#include "common/fault.h"
#include "common/logging.h"
#include "dwrf/checksum.h"

namespace dsi::dpp {

CheckpointJournal::CheckpointJournal(storage::TectonicCluster &cluster,
                                     std::string base)
    : cluster_(cluster), base_(std::move(base))
{
    dsi_assert(!base_.empty(), "journal needs a base name");
    // Resume the sequence counter past any surviving records so a
    // restarted control plane's first append never collides with (or
    // sorts below) history.
    for (const auto &name : cluster_.listFiles(base_ + ".")) {
        if (auto seq = parseSeq(name))
            next_seq_ = std::max(next_seq_, *seq + 1);
    }
}

std::string
CheckpointJournal::recordName(uint64_t seq) const
{
    return base_ + "." + std::to_string(seq);
}

std::optional<uint64_t>
CheckpointJournal::parseSeq(const std::string &name) const
{
    const std::string prefix = base_ + ".";
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0)
        return std::nullopt;
    uint64_t seq = 0;
    for (size_t i = prefix.size(); i < name.size(); ++i) {
        char c = name[i];
        if (c < '0' || c > '9')
            return std::nullopt; // the stage file, or a foreign name
        seq = seq * 10 + static_cast<uint64_t>(c - '0');
    }
    return seq;
}

CheckpointJournal::AppendResult
CheckpointJournal::append(dwrf::ByteSpan payload)
{
    AppendResult result;
    result.seq = next_seq_++;

    dwrf::Buffer record;
    dwrf::putVarint(record, kMagic);
    dwrf::putVarint(record, kFormatVersion);
    dwrf::putVarint(record, result.seq);
    dwrf::putVarint(record, payload.size());
    uint32_t crc = dwrf::crc32(payload);
    for (int shift = 0; shift < 32; shift += 8)
        record.push_back(static_cast<uint8_t>(crc >> shift));
    record.insert(record.end(), payload.begin(), payload.end());
    result.bytes = record.size();

    // Write-then-publish: the record is staged under a name recovery
    // never reads, then published whole. A death here loses only this
    // record — never an older valid one.
    const std::string stage = base_ + ".staging";
    cluster_.put(stage, record);
    if (faultPoint(faults::kCheckpointWriteCrash)) {
        // Died between stage and publish; the stage file is left
        // behind exactly as a real crash would leave it.
        result.published = false;
        return result;
    }
    // Torn / corrupt publishes model a non-atomic filesystem under
    // the same crash: the final name exists but its bytes are bad.
    // Recovery must fall back to the previous valid record.
    if (faultPoint(faults::kCheckpointWriteTorn))
        record.resize(record.size() / 2);
    else if (faultPoint(faults::kCheckpointWriteCorrupt) &&
             !record.empty())
        record[record.size() / 2] ^= 0x40;
    cluster_.put(recordName(result.seq), record);
    cluster_.remove(stage);
    pruneLocked(result.seq);
    return result;
}

void
CheckpointJournal::pruneLocked(uint64_t newest_seq)
{
    if (newest_seq < kKeepRecords)
        return;
    uint64_t floor = newest_seq - kKeepRecords + 1;
    for (const auto &name : cluster_.listFiles(base_ + ".")) {
        auto seq = parseSeq(name);
        if (seq && *seq < floor)
            cluster_.remove(name);
    }
}

JournalRecovery
CheckpointJournal::recover() const
{
    std::vector<uint64_t> seqs;
    for (const auto &name : cluster_.listFiles(base_ + ".")) {
        if (auto seq = parseSeq(name))
            seqs.push_back(*seq);
    }
    std::sort(seqs.rbegin(), seqs.rend());

    JournalRecovery r;
    for (uint64_t seq : seqs) {
        auto source = cluster_.open(recordName(seq));
        dwrf::Buffer bytes;
        if (source->readChecked(0, source->size(), bytes) !=
            dwrf::IoStatus::Ok) {
            ++r.corrupt_skipped;
            continue;
        }
        size_t pos = 0;
        uint64_t magic, version, rseq, len;
        if (!dwrf::getVarint(bytes, pos, magic) || magic != kMagic ||
            !dwrf::getVarint(bytes, pos, version) ||
            version != kFormatVersion ||
            !dwrf::getVarint(bytes, pos, rseq) || rseq != seq ||
            !dwrf::getVarint(bytes, pos, len) ||
            bytes.size() < pos + 4 || bytes.size() - pos - 4 != len) {
            ++r.corrupt_skipped;
            continue;
        }
        uint32_t stored = 0;
        for (int shift = 0; shift < 32; shift += 8)
            stored |= static_cast<uint32_t>(bytes[pos++]) << shift;
        dwrf::ByteSpan payload(bytes.data() + pos, len);
        if (dwrf::crc32(payload) != stored) {
            ++r.corrupt_skipped;
            continue;
        }
        r.found = true;
        r.seq = seq;
        r.payload.assign(payload.begin(), payload.end());
        return r;
    }
    return r; // cold start: nothing valid survived
}

} // namespace dsi::dpp

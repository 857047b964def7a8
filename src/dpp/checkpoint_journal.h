/**
 * @file
 * Write-ahead checkpoint journal over Tectonic (Section II / IV-B:
 * checkpointing is one of the services the DPP control plane must
 * provide for jobs that run for days).
 *
 * Records are whole Tectonic files named `<base>.<seq>` with a
 * monotonically increasing sequence number and a self-validating
 * layout:
 *
 *     magic      varint  (kMagic — rejects foreign files)
 *     version    varint  (kFormatVersion — rejects future formats)
 *     seq        varint  (monotonic record sequence number)
 *     length     varint  (payload byte count)
 *     crc32      4 bytes (CRC32-C of the payload, little-endian)
 *     payload    length bytes
 *
 * Writes are write-then-publish: the record is staged under
 * `<base>.staging`, then published by atomically putting the final
 * `<base>.<seq>` name and removing the stage file. A crash between
 * stage and publish leaves only the stage file, which recovery never
 * reads — a half-written checkpoint can never shadow a valid older
 * one. The checkpoint.write.{crash,torn,corrupt} fault points simulate
 * the remaining failure modes (a death mid-publish on a non-atomic
 * filesystem): recover() walks the published records newest-first,
 * validates each fully (magic, version, sequence, length, CRC), and
 * returns the payload of the newest *valid* record, counting every
 * torn or corrupt tail it skipped.
 *
 * Thread safety: none. The journal is owned and serialized by its
 * Master (appends run under the Master's mutex); recovery runs before
 * the data plane starts.
 */

#ifndef DSI_DPP_CHECKPOINT_JOURNAL_H
#define DSI_DPP_CHECKPOINT_JOURNAL_H

#include <cstdint>
#include <optional>
#include <string>

#include "dwrf/encoding.h"
#include "storage/tectonic.h"

namespace dsi::dpp {

/** Outcome of a journal recovery scan. */
struct JournalRecovery
{
    bool found = false;           ///< a valid record was recovered
    dwrf::Buffer payload;         ///< newest valid record's payload
    uint64_t seq = 0;             ///< its sequence number
    uint64_t corrupt_skipped = 0; ///< invalid records walked past
};

/** Durable, sequence-numbered checkpoint record store (see file doc). */
class CheckpointJournal
{
  public:
    static constexpr uint64_t kMagic = 0x444a4e4c; ///< "DJNL"
    static constexpr uint64_t kFormatVersion = 1;

    /**
     * Published records retained after an append; older sequence
     * numbers are removed. Keeping a few means a torn newest record
     * (crash mid-publish) still leaves valid fallbacks.
     */
    static constexpr uint64_t kKeepRecords = 4;

    CheckpointJournal(storage::TectonicCluster &cluster,
                      std::string base);

    /**
     * Stage, publish, and prune one record. Returns the record's
     * sequence number and byte size (for metrics). Armed
     * checkpoint.write.* fault points make the published bytes torn /
     * corrupt, or drop the publish entirely (simulated crash).
     */
    struct AppendResult
    {
        uint64_t seq = 0;
        uint64_t bytes = 0;
        bool published = true; ///< false: crash fault ate the publish
    };
    AppendResult append(dwrf::ByteSpan payload);

    /**
     * Scan published records newest-first and return the newest one
     * that validates end-to-end (`found == false` when no valid
     * record exists — cold start). Invalid records are skipped,
     * counted, and left in place (forensics), never deleted here.
     */
    JournalRecovery recover() const;

    /** Sequence number the next append will use. */
    uint64_t nextSeq() const { return next_seq_; }

    const std::string &base() const { return base_; }

  private:
    std::string recordName(uint64_t seq) const;
    /** Parse `<base>.<seq>` names; nullopt for foreign/stage files. */
    std::optional<uint64_t> parseSeq(const std::string &name) const;
    void pruneLocked(uint64_t newest_seq);

    storage::TectonicCluster &cluster_;
    std::string base_;
    uint64_t next_seq_ = 1;
};

} // namespace dsi::dpp

#endif // DSI_DPP_CHECKPOINT_JOURNAL_H

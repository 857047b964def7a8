/**
 * @file
 * Byte-addressed IO abstraction between the DWRF reader and whatever
 * holds the file bytes (an in-memory buffer in tests, a Tectonic file
 * spread over storage nodes in the full pipeline). Every read is
 * recorded in an IoTrace so experiments can report IO-size
 * distributions (Table VI) and storage-node IOPS.
 */

#ifndef DSI_DWRF_SOURCE_H
#define DSI_DWRF_SOURCE_H

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/fault.h"
#include "common/stats.h"
#include "common/types.h"
#include "dwrf/encoding.h"

namespace dsi::dwrf {

/** One recorded IO. */
struct IoRecord
{
    Bytes offset;
    Bytes length;
};

/**
 * Accumulates the IOs issued against a source. Sources are shared by
 * concurrent extract threads, so every method is mutex-guarded;
 * record() is a push_back under an uncontended lock, negligible next
 * to the IO it annotates.
 */
class IoTrace
{
  public:
    IoTrace() = default;

    void record(Bytes offset, Bytes length)
    {
        std::scoped_lock lock(mutex_);
        records_.push_back({offset, length});
        total_bytes_ += length;
    }

    /** Snapshot of the recorded IOs. */
    std::vector<IoRecord> records() const
    {
        std::scoped_lock lock(mutex_);
        return records_;
    }

    uint64_t count() const
    {
        std::scoped_lock lock(mutex_);
        return records_.size();
    }

    Bytes totalBytes() const
    {
        std::scoped_lock lock(mutex_);
        return total_bytes_;
    }

    /** Size distribution over all recorded IOs. */
    PercentileSampler sizeDistribution() const
    {
        std::scoped_lock lock(mutex_);
        PercentileSampler p;
        p.reserve(records_.size());
        for (const auto &r : records_)
            p.add(static_cast<double>(r.length));
        return p;
    }

    void clear()
    {
        std::scoped_lock lock(mutex_);
        records_.clear();
        total_bytes_ = 0;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<IoRecord> records_;
    Bytes total_bytes_ = 0;
};

/**
 * Outcome of a checked source read. Sources that model partial
 * failure (replicas down, injected faults) report Unavailable instead
 * of aborting; callers retry or surface the error upward.
 */
enum class IoStatus
{
    Ok,
    Unavailable,
};

/** Read-only random access to stored file bytes. */
class RandomAccessSource
{
  public:
    virtual ~RandomAccessSource() = default;

    virtual Bytes size() const = 0;

    /**
     * Read `len` bytes at `offset` into `out` (resized by the callee),
     * fail-stop, for callers without a recovery path. Implementations
     * must record the IO in their trace and override read() or
     * readChecked(), each default being written in terms of the
     * other. The default dies unless readChecked() returns Ok.
     */
    virtual void read(Bytes offset, Bytes len, Buffer &out) const;

    /**
     * Failure-aware variant of read(): returns Unavailable when the
     * bytes cannot be served (all replicas of a block down, injected
     * IO error) rather than asserting. The default forwards to
     * read(), which for simple sources cannot fail, and honors the
     * generic source.read fault points so corruption/unavailability
     * can be injected against any source.
     */
    virtual IoStatus readChecked(Bytes offset, Bytes len,
                                 Buffer &out) const
    {
        if (faultPoint(faults::kSourceReadError)) {
            out.clear();
            return IoStatus::Unavailable;
        }
        read(offset, len, out);
        if (!out.empty() && faultPoint(faults::kSourceReadCorrupt))
            out[out.size() / 2] ^= 0xff; // bit-rot mid-read
        return IoStatus::Ok;
    }

    /**
     * Downstream integrity feedback: the reader verified a stream
     * fetched from [offset, offset + len) against its footer CRC and
     * it did not match — some replica served rotten bytes. Sources
     * backed by replicated storage audit the replicas of the covered
     * blocks, quarantine any corrupt copy, and enqueue read-repair;
     * simple sources ignore it.
     */
    virtual void reportCorruption(Bytes offset, Bytes len) const
    {
        (void)offset;
        (void)len;
    }

    /** Trace of IOs issued so far. */
    virtual const IoTrace &trace() const = 0;
    virtual void clearTrace() = 0;
};

/** In-memory source for tests and single-process pipelines. */
class MemorySource : public RandomAccessSource
{
  public:
    explicit MemorySource(Buffer data) : data_(std::move(data)) {}

    Bytes size() const override { return data_.size(); }

    void read(Bytes offset, Bytes len, Buffer &out) const override;

    const IoTrace &trace() const override { return trace_; }
    void clearTrace() override { trace_.clear(); }

  private:
    Buffer data_;
    mutable IoTrace trace_;
};

} // namespace dsi::dwrf

#endif // DSI_DWRF_SOURCE_H

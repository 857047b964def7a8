/**
 * @file
 * Property + fuzz suite for the durable control-plane codecs.
 *
 * Three layers are covered, each of which must never crash on byte
 * soup (the whole point of versioned, length-checked formats):
 *
 *  - MasterCheckpoint (v2): seeded random round-trips, unknown-version
 *    rejection, truncation at every prefix length, random bit flips,
 *    zero-length input.
 *  - LedgerCheckpoint (v1): the same battery.
 *  - CheckpointJournal records on a real TectonicCluster: torn tails,
 *    corrupt bytes, and dropped publishes (via the checkpoint.write.*
 *    fault points) must fall back to the newest valid record — or to
 *    a clean cold start — never to a crash or a mis-parse.
 *
 * A scripted Master history (grants, completions, exhausted attempts,
 * a release, a deadline reap, out-of-order stripes, a worker failure)
 * is pinned to its checkpoint bytes, with their restore round trip.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "dpp/checkpoint_journal.h"
#include "dpp/ledger.h"
#include "dpp/master.h"
#include "test_fixtures.h"

namespace dsi::dpp {
namespace {

MasterCheckpoint
randomMasterCheckpoint(Rng &rng)
{
    MasterCheckpoint cp;
    cp.epoch = rng.nextUint(1000);
    cp.next_split_cursor = rng.nextUint(1 << 20);
    for (uint64_t i = 0, n = rng.nextUint(32); i < n; ++i)
        cp.completed.push_back(rng.nextUint(1 << 16));
    for (uint64_t i = 0, n = rng.nextUint(8); i < n; ++i)
        cp.failed.push_back(rng.nextUint(1 << 16));
    for (uint64_t i = 0, n = rng.nextUint(8); i < n; ++i)
        cp.attempts.emplace_back(
            rng.nextUint(1 << 16),
            static_cast<uint32_t>(1 + rng.nextUint(5)));
    for (uint64_t i = 0, n = rng.nextUint(8); i < n; ++i)
        cp.delivered_stripes.emplace_back(
            rng.nextUint(1 << 16),
            static_cast<uint32_t>(1 + rng.nextUint(64)));
    return cp;
}

LedgerCheckpoint
randomLedgerCheckpoint(Rng &rng)
{
    LedgerCheckpoint cp;
    cp.duplicates = rng.nextUint(100);
    for (uint64_t i = 0, n = rng.nextUint(64); i < n; ++i)
        cp.delivered.emplace_back(rng.nextUint(1 << 16),
                                  rng.nextUint(1 << 24));
    return cp;
}

void
expectEqual(const MasterCheckpoint &a, const MasterCheckpoint &b)
{
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.next_split_cursor, b.next_split_cursor);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.delivered_stripes, b.delivered_stripes);
}

TEST(MasterCheckpointCodec, RandomRoundTrips)
{
    Rng rng(0xC0DEC1);
    for (int i = 0; i < 200; ++i) {
        auto cp = randomMasterCheckpoint(rng);
        auto back = MasterCheckpoint::deserialize(cp.serialize());
        ASSERT_TRUE(back.has_value()) << "round trip " << i;
        expectEqual(cp, *back);
    }
}

TEST(MasterCheckpointCodec, RejectsUnknownVersion)
{
    Rng rng(0xC0DEC2);
    auto bytes = randomMasterCheckpoint(rng).serialize();
    // The format version is the leading varint; v2 encodes as one
    // byte, so bumping it in place forges a future-format checkpoint.
    ASSERT_EQ(bytes[0], MasterCheckpoint::kFormatVersion);
    bytes[0] = MasterCheckpoint::kFormatVersion + 1;
    EXPECT_FALSE(MasterCheckpoint::deserialize(bytes).has_value());
}

TEST(MasterCheckpointCodec, RejectsEveryTruncation)
{
    Rng rng(0xC0DEC3);
    auto bytes = randomMasterCheckpoint(rng).serialize();
    ASSERT_GT(bytes.size(), 4u);
    for (size_t len = 0; len < bytes.size(); ++len) {
        dwrf::Buffer prefix(bytes.begin(),
                            bytes.begin() + static_cast<long>(len));
        EXPECT_FALSE(MasterCheckpoint::deserialize(prefix).has_value())
            << "prefix of " << len << "/" << bytes.size()
            << " bytes parsed";
    }
}

TEST(MasterCheckpointCodec, SurvivesRandomBitFlips)
{
    // A single-codec checkpoint has no checksum (the journal's CRC is
    // the integrity layer), so a flip may decode to a *different*
    // valid checkpoint — but it must never crash, over-allocate, or
    // read out of bounds (ASan guards this test).
    Rng rng(0xC0DEC4);
    for (int i = 0; i < 300; ++i) {
        auto bytes = randomMasterCheckpoint(rng).serialize();
        size_t byte = rng.nextUint(bytes.size());
        bytes[byte] ^=
            static_cast<uint8_t>(1u << rng.nextUint(8));
        auto back = MasterCheckpoint::deserialize(bytes);
        if (back) {
            // Whatever decoded must round-trip through the codec.
            auto again =
                MasterCheckpoint::deserialize(back->serialize());
            ASSERT_TRUE(again.has_value());
            expectEqual(*back, *again);
        }
    }
}

TEST(MasterCheckpointCodec, RejectsZeroLengthAndJunk)
{
    EXPECT_FALSE(MasterCheckpoint::deserialize({}).has_value());
    dwrf::Buffer junk = {0xff, 0xff, 0xff, 0xff, 0xff};
    EXPECT_FALSE(MasterCheckpoint::deserialize(junk).has_value());
}

TEST(LedgerCheckpointCodec, RandomRoundTrips)
{
    Rng rng(0x1EDC1);
    for (int i = 0; i < 200; ++i) {
        auto cp = randomLedgerCheckpoint(rng);
        auto back = LedgerCheckpoint::deserialize(cp.serialize());
        ASSERT_TRUE(back.has_value()) << "round trip " << i;
        EXPECT_EQ(cp.delivered, back->delivered);
        EXPECT_EQ(cp.duplicates, back->duplicates);
    }
}

TEST(LedgerCheckpointCodec, RejectsUnknownVersion)
{
    Rng rng(0x1EDC2);
    auto bytes = randomLedgerCheckpoint(rng).serialize();
    ASSERT_EQ(bytes[0], LedgerCheckpoint::kFormatVersion);
    bytes[0] = LedgerCheckpoint::kFormatVersion + 1;
    EXPECT_FALSE(LedgerCheckpoint::deserialize(bytes).has_value());
}

TEST(LedgerCheckpointCodec, RejectsEveryTruncation)
{
    Rng rng(0x1EDC3);
    auto bytes = randomLedgerCheckpoint(rng).serialize();
    ASSERT_GT(bytes.size(), 4u);
    for (size_t len = 0; len < bytes.size(); ++len) {
        dwrf::Buffer prefix(bytes.begin(),
                            bytes.begin() + static_cast<long>(len));
        EXPECT_FALSE(LedgerCheckpoint::deserialize(prefix).has_value())
            << "prefix of " << len << " bytes parsed";
    }
}

TEST(LedgerCheckpointCodec, SurvivesRandomBitFlips)
{
    Rng rng(0x1EDC4);
    for (int i = 0; i < 300; ++i) {
        auto bytes = randomLedgerCheckpoint(rng).serialize();
        size_t byte = rng.nextUint(bytes.size());
        bytes[byte] ^=
            static_cast<uint8_t>(1u << rng.nextUint(8));
        auto back = LedgerCheckpoint::deserialize(bytes);
        if (back) {
            auto again =
                LedgerCheckpoint::deserialize(back->serialize());
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(back->delivered, again->delivered);
        }
    }
}

TEST(LedgerCheckpointCodec, RejectsZeroLength)
{
    EXPECT_FALSE(LedgerCheckpoint::deserialize({}).has_value());
}

TEST(LedgerCheckpointCodec, RestoreSuppressesReplayedKeys)
{
    DeliveryLedger first;
    ASSERT_TRUE(first.claim(7, 0));
    ASSERT_TRUE(first.claim(7, 256));
    auto cp = first.checkpoint();
    auto back = LedgerCheckpoint::deserialize(cp.serialize());
    ASSERT_TRUE(back.has_value());

    DeliveryLedger second;
    second.restore(*back);
    EXPECT_FALSE(second.claim(7, 0));   // already reached a trainer
    EXPECT_FALSE(second.claim(7, 256));
    EXPECT_TRUE(second.claim(7, 512));  // the resumed stream
}

// ---------------------------------------------------------------------
// Master history -> checkpoint bytes.

/** 8 splits of 4 stripes: 1 partition x 8192 rows, 2048-row files,
 * 256-row stripes, 1024-row splits. */
class MasterHistoryTest : public ::testing::Test
{
  protected:
    MasterHistoryTest()
    {
        warehouse::SchemaParams p;
        p.name = "hist";
        p.float_features = 4;
        p.sparse_features = 2;
        p.seed = 5;
        dwrf::WriterOptions wo;
        wo.rows_per_stripe = 256;
        mw_ = std::make_unique<testing::MiniWarehouse>(
            testing::makeMiniWarehouse(p, 1, 8192, 2048, wo));
        spec_.table = mw_->name;
        spec_.partitions = {0};
        spec_.rows_per_split = 1024;
    }

    std::unique_ptr<testing::MiniWarehouse> mw_;
    SessionSpec spec_;
};

TEST_F(MasterHistoryTest, ScriptedHistoryPinsCheckpointBytes)
{
    // The journal's record format is the Master's checkpoint: a
    // restructuring of the Master's bookkeeping must map the same
    // history to the same bytes.
    Master m(*mw_->warehouse, spec_);
    ASSERT_EQ(m.totalSplits(), 8u);
    m.setMaxSplitAttempts(2);
    WorkerId a = m.registerWorker();
    WorkerId b = m.registerWorker();
    auto grant = [&m](WorkerId w) {
        auto g = m.acquireSplit(w, {});
        EXPECT_EQ(g.status, GrantStatus::Granted);
        return g.split.has_value() ? g.split->id : UINT64_MAX;
    };

    // Grant and complete: split 0.
    ASSERT_EQ(grant(a), 0u);
    m.noteStripeDelivered(0, 0);
    m.completeSplit(a, 0);

    // Fail split 1 until its two attempts run out.
    ASSERT_EQ(grant(a), 1u);
    m.failSplit(a, 1);
    ASSERT_EQ(grant(a), 1u);
    m.failSplit(a, 1);

    // Release split 2 after one delivered stripe (no attempt charged).
    ASSERT_EQ(grant(a), 2u);
    m.noteStripeDelivered(2, 0);
    m.releaseSplit(a, 2);

    // Reap split 2 on its deadline; the late completion is stale.
    m.setAdmission({.split_deadline_s = 1e-6});
    ASSERT_EQ(grant(a), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(m.expireDeadlines(), 1u);
    m.setAdmission({});
    m.completeSplit(a, 2);

    // Out-of-order stripes leave strays above each watermark.
    ASSERT_EQ(grant(b), 2u);
    ASSERT_EQ(grant(b), 3u);
    m.noteStripeDelivered(3, 2);
    m.noteStripeDelivered(3, 0);
    m.noteStripeDelivered(2, 3);
    m.noteStripeDelivered(2, 1);

    // Fail b with splits 2 and 3 in flight; it is a zombie after.
    m.failWorker(b);
    EXPECT_EQ(m.acquireSplit(b, {}).status, GrantStatus::Rejected);

    // Split 3 completes elsewhere; split 4 stays in flight.
    ASSERT_EQ(grant(a), 3u);
    m.completeSplit(a, 3);
    m.noteStripeDelivered(3, 1); // terminal: ignored
    ASSERT_EQ(grant(a), 2u);
    ASSERT_EQ(grant(a), 4u);
    m.noteStripeDelivered(4, 0);

    const dwrf::Buffer pinned = {
        0x02, 0x00, 0x08,                   // version, epoch, cursor
        0x02, 0x00, 0x03,                   // completed {0, 3}
        0x01, 0x01,                         // failed {1}
        0x02, 0x01, 0x02, 0x02, 0x01,       // attempts 1:2, 2:1
        0x02, 0x02, 0x02, 0x04, 0x01,       // watermarks 2:2, 4:1
    };
    dwrf::Buffer bytes = m.checkpoint().serialize();
    EXPECT_EQ(bytes, pinned);

    // A fresh Master restored from those bytes writes them back, as
    // the next incarnation.
    auto cp = MasterCheckpoint::deserialize(pinned);
    ASSERT_TRUE(cp.has_value());
    Master fresh(*mw_->warehouse, spec_);
    ASSERT_TRUE(fresh.restore(*cp));
    MasterCheckpoint back = fresh.checkpoint();
    EXPECT_EQ(back.epoch, 1u);
    back.epoch = 0;
    EXPECT_EQ(back.serialize(), pinned);
}

// ---------------------------------------------------------------------
// Journal-record layer.

class JournalFuzzTest : public ::testing::Test
{
  protected:
    JournalFuzzTest() : cluster_(storageOptions())
    {
        FaultInjector::instance().reset();
        FaultInjector::instance().seed(0x10CC1);
    }
    ~JournalFuzzTest() override { FaultInjector::instance().reset(); }

    static storage::StorageOptions storageOptions()
    {
        storage::StorageOptions so;
        so.block_size = 1_MiB;
        so.hdd_nodes = 4;
        return so;
    }

    static dwrf::Buffer payload(const std::string &s)
    {
        return dwrf::Buffer(s.begin(), s.end());
    }

    storage::TectonicCluster cluster_;
};

TEST_F(JournalFuzzTest, EmptyJournalIsCleanColdStart)
{
    CheckpointJournal j(cluster_, "fuzz/journal");
    auto rec = j.recover();
    EXPECT_FALSE(rec.found);
    EXPECT_EQ(rec.corrupt_skipped, 0u);
}

TEST_F(JournalFuzzTest, RecoversNewestOfSeveral)
{
    CheckpointJournal j(cluster_, "fuzz/journal");
    j.append(payload("one"));
    j.append(payload("two"));
    auto last = j.append(payload("three"));
    auto rec = j.recover();
    ASSERT_TRUE(rec.found);
    EXPECT_EQ(rec.seq, last.seq);
    EXPECT_EQ(rec.payload, payload("three"));
}

TEST_F(JournalFuzzTest, TornTailFallsBackToPriorRecord)
{
    CheckpointJournal j(cluster_, "fuzz/journal");
    j.append(payload("good"));
    ScopedFault torn(faults::kCheckpointWriteTorn,
                     FaultSpec{.trigger_hit = 1});
    j.append(payload("torn-away"));
    auto rec = j.recover();
    ASSERT_TRUE(rec.found);
    EXPECT_EQ(rec.payload, payload("good"));
    EXPECT_GE(rec.corrupt_skipped, 1u);
}

TEST_F(JournalFuzzTest, CorruptTailFallsBackToPriorRecord)
{
    CheckpointJournal j(cluster_, "fuzz/journal");
    j.append(payload("good"));
    ScopedFault corrupt(faults::kCheckpointWriteCorrupt,
                        FaultSpec{.trigger_hit = 1});
    j.append(payload("flipped"));
    auto rec = j.recover();
    ASSERT_TRUE(rec.found);
    EXPECT_EQ(rec.payload, payload("good"));
    EXPECT_GE(rec.corrupt_skipped, 1u);
}

TEST_F(JournalFuzzTest, CrashBeforePublishLeavesPriorRecord)
{
    CheckpointJournal j(cluster_, "fuzz/journal");
    auto first = j.append(payload("published"));
    ScopedFault crash(faults::kCheckpointWriteCrash,
                      FaultSpec{.trigger_hit = 1});
    auto dropped = j.append(payload("never-published"));
    EXPECT_FALSE(dropped.published);
    auto rec = j.recover();
    ASSERT_TRUE(rec.found);
    EXPECT_EQ(rec.seq, first.seq);
    EXPECT_EQ(rec.payload, payload("published"));
}

TEST_F(JournalFuzzTest, AllRecordsCorruptIsColdStartNotCrash)
{
    CheckpointJournal j(cluster_, "fuzz/journal");
    ScopedFault corrupt(faults::kCheckpointWriteCorrupt,
                        FaultSpec{.probability = 1.0});
    for (int i = 0; i < 3; ++i)
        j.append(payload("doomed"));
    auto rec = j.recover();
    EXPECT_FALSE(rec.found);
    EXPECT_GE(rec.corrupt_skipped, 3u);
}

TEST_F(JournalFuzzTest, SuccessorResumesSequencePastSurvivors)
{
    uint64_t last_seq = 0;
    {
        CheckpointJournal j(cluster_, "fuzz/journal");
        j.append(payload("a"));
        last_seq = j.append(payload("b")).seq;
    }
    // A journal rebuilt over the same base (a restarted Master) must
    // never reuse a published sequence number.
    CheckpointJournal successor(cluster_, "fuzz/journal");
    EXPECT_GT(successor.nextSeq(), last_seq);
    auto next = successor.append(payload("c"));
    EXPECT_GT(next.seq, last_seq);
    auto rec = successor.recover();
    ASSERT_TRUE(rec.found);
    EXPECT_EQ(rec.payload, payload("c"));
}

} // namespace
} // namespace dsi::dpp

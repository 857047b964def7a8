/**
 * @file
 * Round-trip and property tests for stream encodings, the LZ codec,
 * and the stream cipher.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/rng.h"
#include "dwrf/cipher.h"
#include "dwrf/compress.h"
#include "dwrf/encoding.h"
#include "warehouse/datagen.h"

namespace dsi::dwrf {
namespace {

TEST(Varint, RoundTripEdgeValues)
{
    Buffer buf;
    std::vector<uint64_t> values{0, 1, 127, 128, 16383, 16384,
                                 UINT32_MAX, UINT64_MAX};
    for (uint64_t v : values)
        putVarint(buf, v);
    size_t pos = 0;
    for (uint64_t v : values) {
        uint64_t got;
        ASSERT_TRUE(getVarint(buf, pos, got));
        EXPECT_EQ(got, v);
    }
    EXPECT_EQ(pos, buf.size());
}

TEST(Varint, TruncatedInputFails)
{
    Buffer buf;
    putVarint(buf, UINT64_MAX);
    buf.pop_back();
    size_t pos = 0;
    uint64_t v;
    EXPECT_FALSE(getVarint(buf, pos, v));
}

TEST(Zigzag, SignedRoundTrip)
{
    for (int64_t v : {0L, 1L, -1L, 63L, -64L, INT64_MAX, INT64_MIN}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
    // Small magnitudes map to small codes.
    EXPECT_LE(zigzagEncode(-3), 6u);
}

TEST(FixedWidth, RoundTrip)
{
    Buffer buf;
    putU32(buf, 0xdeadbeef);
    putU64(buf, 0x0123456789abcdefULL);
    putFloat(buf, 3.25f);
    size_t pos = 0;
    uint32_t a;
    uint64_t b;
    float f;
    ASSERT_TRUE(getU32(buf, pos, a));
    ASSERT_TRUE(getU64(buf, pos, b));
    ASSERT_TRUE(getFloat(buf, pos, f));
    EXPECT_EQ(a, 0xdeadbeefu);
    EXPECT_EQ(b, 0x0123456789abcdefULL);
    EXPECT_FLOAT_EQ(f, 3.25f);
}

TEST(Rle, ZeroRunsCompressWell)
{
    // Sparse-length streams are mostly zeros (absent features).
    std::vector<int64_t> lengths(10000, 0);
    lengths[17] = 25;
    lengths[9000] = 12;
    Buffer out;
    rleEncode(lengths, out);
    EXPECT_LT(out.size(), 100u);
    std::vector<int64_t> back;
    ASSERT_TRUE(rleDecode(out, back, 1u << 20));
    EXPECT_EQ(back, lengths);
}

TEST(Rle, ArithmeticRunsDetected)
{
    std::vector<int64_t> v;
    for (int64_t i = 0; i < 1000; ++i)
        v.push_back(5 + 3 * i);
    Buffer out;
    rleEncode(v, out);
    EXPECT_LT(out.size(), 16u);
    std::vector<int64_t> back;
    ASSERT_TRUE(rleDecode(out, back, 1u << 20));
    EXPECT_EQ(back, v);
}

TEST(Rle, RandomValuesRoundTrip)
{
    Rng rng(77);
    std::vector<int64_t> v;
    for (int i = 0; i < 5000; ++i)
        v.push_back(static_cast<int64_t>(rng.next()) >> rng.nextUint(40));
    Buffer out;
    rleEncode(v, out);
    std::vector<int64_t> back;
    ASSERT_TRUE(rleDecode(out, back, 1u << 20));
    EXPECT_EQ(back, v);
}

TEST(Rle, EmptyInput)
{
    Buffer out;
    rleEncode({}, out);
    std::vector<int64_t> back;
    ASSERT_TRUE(rleDecode(out, back, 1u << 20));
    EXPECT_TRUE(back.empty());
}

TEST(ValueEncoding, SkewedValuesUseDictionaryAndShrink)
{
    // Hashed categorical ids (8-byte magnitudes) drawn from a hot
    // Zipf set repeat heavily: dictionary beats direct varints.
    std::vector<int64_t> values =
        warehouse::zipfSkewedIds(20000, 5);

    Buffer dict_encoded;
    encodeValues(values, dict_encoded);
    EXPECT_EQ(dict_encoded[0], 0x01); // dictionary tag

    Buffer direct;
    putVarint(direct, values.size());
    for (int64_t v : values)
        putSignedVarint(direct, v);
    EXPECT_LT(dict_encoded.size(), direct.size());

    std::vector<int64_t> back;
    ASSERT_TRUE(decodeValues(dict_encoded, back));
    EXPECT_EQ(back, values);
}

TEST(ValueEncoding, HighCardinalityFallsBackToDirect)
{
    // All-distinct small ids: a dictionary would only add overhead.
    std::vector<int64_t> values;
    for (int64_t i = 0; i < 10000; ++i)
        values.push_back(i * 7919);
    Buffer out;
    encodeValues(values, out);
    EXPECT_EQ(out[0], 0x00); // direct tag
    std::vector<int64_t> back;
    ASSERT_TRUE(decodeValues(out, back));
    EXPECT_EQ(back, values);
}

TEST(ValueEncoding, EmptyAndSingleValue)
{
    for (const std::vector<int64_t> &values :
         {std::vector<int64_t>{}, std::vector<int64_t>{-42}}) {
        Buffer out;
        encodeValues(values, out);
        std::vector<int64_t> back;
        ASSERT_TRUE(decodeValues(out, back));
        EXPECT_EQ(back, values);
    }
}

TEST(ValueEncoding, MalformedRejected)
{
    std::vector<int64_t> back;
    EXPECT_FALSE(decodeValues({}, back));
    Buffer bad_tag{0x07, 0x01};
    EXPECT_FALSE(decodeValues(bad_tag, back));
    // Dict index out of range: tag=1, n=1, d=1, dict={0}, index=5.
    Buffer oob{0x01, 0x01, 0x01, 0x00, 0x05};
    EXPECT_FALSE(decodeValues(oob, back));
    // Trailing garbage.
    Buffer trail{0x00, 0x01, 0x02, 0xff};
    EXPECT_FALSE(decodeValues(trail, back));
}

// -------------------------------------------------------------------
// Bulk/scalar differential tests: the bulk kernels (getVarintBlock,
// getSignedVarintBlock, rleDecode, decodeValues) promise bit-identical
// accept/reject and output to their scalar references on EVERY input,
// including truncated, overlong, and adversarial streams. These tests
// are the proof backing BENCH_decode.json: the speedups come from the
// same answers computed faster.

/**
 * Reference decode: scalar getVarint in a loop, up to `max_values`.
 * The cursor is restored to the start of a failed varint so it lands
 * exactly where the block decoders leave `pos`.
 */
std::pair<std::vector<uint64_t>, size_t>
scalarVarintRef(ByteSpan in, size_t max_values)
{
    std::vector<uint64_t> values;
    size_t pos = 0;
    while (values.size() < max_values) {
        size_t before = pos;
        uint64_t v;
        if (!getVarint(in, pos, v)) {
            pos = before;
            break;
        }
        values.push_back(v);
    }
    return {values, pos};
}

void
expectVarintBlockMatchesScalar(const Buffer &stream, size_t capacity)
{
    auto [want, want_pos] = scalarVarintRef(stream, capacity);
    std::vector<uint64_t> got(capacity);
    size_t pos = 0;
    size_t n = getVarintBlock(stream, pos, got);
    ASSERT_EQ(n, want.size());
    EXPECT_EQ(pos, want_pos);
    got.resize(n);
    EXPECT_EQ(got, want);
}

TEST(BulkDifferential, VarintBlockOnRandomStreams)
{
    Rng rng(2024);
    for (int iter = 0; iter < 50; ++iter) {
        Buffer stream;
        size_t count = rng.nextUint(200);
        for (size_t i = 0; i < count; ++i) {
            // Mix magnitudes so 1-byte, 2-byte, and long forms all
            // appear and the speculative path keeps realigning.
            int bits = static_cast<int>(rng.nextUint(64)) + 1;
            putVarint(stream, rng.next() >> (64 - bits));
        }
        expectVarintBlockMatchesScalar(stream, count);
        expectVarintBlockMatchesScalar(stream, count / 2); // short out
        expectVarintBlockMatchesScalar(stream, count + 8); // starved
    }
}

TEST(BulkDifferential, VarintBlockOnTruncatedStreams)
{
    Buffer stream;
    for (uint64_t v : std::vector<uint64_t>{0, 127, 128, 16384,
                                            UINT64_MAX}) {
        putVarint(stream, v);
    }
    // Cut the stream at every byte boundary; block and scalar must
    // agree on how many values survive and where the cursor stops.
    for (size_t cut = 0; cut <= stream.size(); ++cut) {
        Buffer prefix(stream.begin(), stream.begin() + cut);
        expectVarintBlockMatchesScalar(prefix, 16);
    }
}

TEST(BulkDifferential, VarintBlockOnAdversarialForms)
{
    // Overlong-but-terminating, unterminated, and >10-byte forms.
    std::vector<Buffer> streams = {
        {0x80, 0x00},                               // overlong zero
        {0x80, 0x80, 0x00},                         // longer overlong
        {0x80},                                     // unterminated
        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
        Buffer(10, 0xff),                           // never terminates
        Buffer(12, 0x80),                           // ditto, longer
    };
    // And the same forms embedded mid-stream after short varints.
    for (size_t i = 0, n = streams.size(); i < n; ++i) {
        Buffer embedded{0x05, 0x90, 0x03};
        for (uint8_t b : streams[i])
            embedded.push_back(b);
        streams.push_back(embedded);
    }
    for (const Buffer &s : streams)
        expectVarintBlockMatchesScalar(s, 16);
}

TEST(BulkDifferential, SignedVarintBlockMatchesScalar)
{
    Rng rng(77);
    Buffer stream;
    std::vector<int64_t> want;
    for (int i = 0; i < 500; ++i) {
        auto v = static_cast<int64_t>(rng.next() >>
                                      rng.nextUint(63));
        if (rng.nextUint(2) == 0)
            v = -v;
        want.push_back(v);
        putSignedVarint(stream, v);
    }
    std::vector<int64_t> got(want.size());
    size_t pos = 0;
    ASSERT_EQ(getSignedVarintBlock(stream, pos, got), want.size());
    EXPECT_EQ(pos, stream.size());
    EXPECT_EQ(got, want);
}

TEST(BulkDifferential, RleMatchesScalarOnRunBoundaries)
{
    // Shapes straddling every kernel threshold: minimum runs (3),
    // runs and literal groups around the 16-value inline cutoff, zero
    // runs, arithmetic runs, and a trailing partial group.
    std::vector<std::vector<int64_t>> shapes;
    for (size_t run : {3u, 15u, 16u, 17u, 100u}) {
        for (int64_t base : {0ll, 7ll, -3ll}) {
            for (int64_t delta : {0ll, 1ll, -2ll}) {
                std::vector<int64_t> vals;
                int64_t v = base;
                for (size_t k = 0; k < run; ++k) {
                    vals.push_back(v);
                    v += delta;
                }
                vals.push_back(999); // literal tail after the run
                shapes.push_back(std::move(vals));
            }
        }
    }
    Rng rng(5150);
    for (size_t lits : {1u, 2u, 15u, 16u, 17u, 64u}) {
        std::vector<int64_t> vals;
        for (size_t k = 0; k < lits; ++k)
            vals.push_back(static_cast<int64_t>(rng.next() >> 40) -
                           (1 << 23));
        shapes.push_back(std::move(vals));
    }
    for (const auto &vals : shapes) {
        Buffer enc;
        rleEncode(vals, enc);
        std::vector<int64_t> scalar, bulk;
        ASSERT_TRUE(rleDecodeScalar(enc, scalar, vals.size()));
        ASSERT_TRUE(rleDecode(enc, bulk, vals.size()));
        EXPECT_EQ(scalar, vals);
        EXPECT_EQ(bulk, vals);
    }
}

TEST(BulkDifferential, RleMatchesScalarOnCorruptStreams)
{
    std::vector<int64_t> vals;
    Rng rng(31337);
    for (int i = 0; i < 200; ++i)
        vals.push_back(rng.nextUint(100) < 70
                           ? 0
                           : static_cast<int64_t>(rng.nextUint(50)));
    Buffer enc;
    rleEncode(vals, enc);
    // Truncations and single-byte mutations: both decoders must agree
    // on accept/reject, and on the values whenever both accept.
    for (size_t cut = 0; cut < enc.size(); cut += 3) {
        Buffer prefix(enc.begin(), enc.begin() + cut);
        std::vector<int64_t> scalar, bulk;
        bool sok = rleDecodeScalar(prefix, scalar, vals.size());
        bool bok = rleDecode(prefix, bulk, vals.size());
        ASSERT_EQ(sok, bok) << "cut=" << cut;
        if (sok) {
            EXPECT_EQ(scalar, bulk) << "cut=" << cut;
        }
    }
    for (size_t flip = 0; flip < enc.size(); flip += 2) {
        Buffer bad = enc;
        bad[flip] ^= 0x41;
        std::vector<int64_t> scalar, bulk;
        bool sok = rleDecodeScalar(bad, scalar, vals.size());
        bool bok = rleDecode(bad, bulk, vals.size());
        ASSERT_EQ(sok, bok) << "flip=" << flip;
        if (sok) {
            EXPECT_EQ(scalar, bulk) << "flip=" << flip;
        }
    }
}

void
expectDecodeValuesAgree(const Buffer &stream)
{
    std::vector<int64_t> scalar, bulk;
    bool sok = decodeValuesScalar(stream, scalar);
    bool bok = decodeValues(stream, bulk);
    ASSERT_EQ(sok, bok);
    if (sok) {
        EXPECT_EQ(scalar, bulk);
    }
}

TEST(BulkDifferential, DecodeValuesOnDictAndDirectStreams)
{
    Rng rng(9090);
    // Dict shape: heavy duplication; direct shape: unique large ids.
    for (bool dict : {true, false}) {
        std::vector<int64_t> vals;
        for (int i = 0; i < 3000; ++i) {
            vals.push_back(
                dict ? static_cast<int64_t>(rng.nextUint(300))
                     : static_cast<int64_t>(rng.next() >> 1));
        }
        Buffer enc;
        encodeValues(vals, enc);
        std::vector<int64_t> back;
        ASSERT_TRUE(decodeValues(enc, back));
        EXPECT_EQ(back, vals);
        expectDecodeValuesAgree(enc);
        for (size_t cut = 0; cut < enc.size(); cut += 7) {
            Buffer prefix(enc.begin(), enc.begin() + cut);
            expectDecodeValuesAgree(prefix);
        }
        for (size_t flip = 0; flip < enc.size(); flip += 5) {
            Buffer bad = enc;
            bad[flip] ^= 0x81;
            expectDecodeValuesAgree(bad);
        }
    }
}

TEST(BulkDifferential, DecodeValuesOnOverlongIndices)
{
    // Hand-built dict stream using overlong index encodings the
    // encoder never emits but the scalar decoder accepts: tag=1, n=3,
    // d=2, dict={-1, 3}, indices {1, overlong 0, overlong 1}.
    Buffer s{0x01, 0x03, 0x02};
    putSignedVarint(s, -1);
    putSignedVarint(s, 3);
    s.push_back(0x01);             // index 1
    for (uint8_t b : {0x80, 0x00})             // index 0, 2-byte form
        s.push_back(b);
    for (uint8_t b : {0x81, 0x80, 0x00})       // index 1, 3-byte form
        s.push_back(b);
    std::vector<int64_t> scalar, bulk;
    ASSERT_TRUE(decodeValuesScalar(s, scalar));
    ASSERT_TRUE(decodeValues(s, bulk));
    EXPECT_EQ(scalar, (std::vector<int64_t>{3, -1, 3}));
    EXPECT_EQ(bulk, scalar);
}

TEST(BulkDifferential, EncodeBulkDecodeRoundTripProperty)
{
    // Property: for arbitrary value distributions, encode ->
    // bulk-decode is the identity (and the scalar decoder agrees).
    Rng rng(60601);
    for (int iter = 0; iter < 40; ++iter) {
        size_t n = rng.nextUint(2000);
        uint32_t mode = static_cast<uint32_t>(rng.nextUint(4));
        std::vector<int64_t> vals;
        vals.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            switch (mode) {
              case 0: // constant
                vals.push_back(42);
                break;
              case 1: // small dup-heavy (dict)
                vals.push_back(
                    static_cast<int64_t>(rng.nextUint(64)));
                break;
              case 2: // hashed ids (dict, large values)
                vals.push_back(static_cast<int64_t>(
                    rng.nextUint(500) * 0x9e3779b97f4a7c15ULL >> 1));
                break;
              default: // unique (direct), signed
                vals.push_back(static_cast<int64_t>(rng.next()));
                break;
            }
        }
        Buffer enc;
        encodeValues(vals, enc);
        std::vector<int64_t> bulk, scalar;
        ASSERT_TRUE(decodeValues(enc, bulk));
        ASSERT_TRUE(decodeValuesScalar(enc, scalar));
        EXPECT_EQ(bulk, vals);
        EXPECT_EQ(scalar, vals);

        Buffer renc;
        rleEncode(vals, renc);
        std::vector<int64_t> rbulk, rscalar;
        ASSERT_TRUE(rleDecode(renc, rbulk, vals.size()));
        ASSERT_TRUE(rleDecodeScalar(renc, rscalar, vals.size()));
        EXPECT_EQ(rbulk, vals);
        EXPECT_EQ(rscalar, vals);
    }
}

class CodecParamTest : public ::testing::TestWithParam<Codec>
{
};

/** decompress() of a block whose raw length is `raw_length`, copied
 * out of the codec's view. */
std::optional<Buffer>
decompressCopy(Codec codec, ByteSpan in, uint64_t raw_length)
{
    Buffer scratch;
    auto raw = decompress(codec, in, raw_length, scratch);
    if (!raw.has_value())
        return std::nullopt;
    return Buffer(raw->begin(), raw->end());
}

TEST_P(CodecParamTest, EmptyRoundTrip)
{
    Buffer out;
    compress(GetParam(), {}, out);
    auto back = decompressCopy(GetParam(), out, 0);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->empty());
}

TEST_P(CodecParamTest, RandomBytesRoundTrip)
{
    Rng rng(123);
    for (size_t len : {1u, 2u, 100u, 4096u, 100000u}) {
        Buffer in(len);
        for (auto &b : in)
            b = static_cast<uint8_t>(rng.next());
        Buffer out;
        compress(GetParam(), in, out);
        auto back = decompressCopy(GetParam(), out, in.size());
        ASSERT_TRUE(back.has_value()) << "len=" << len;
        EXPECT_EQ(*back, in) << "len=" << len;
    }
}

TEST_P(CodecParamTest, RepetitiveBytesRoundTrip)
{
    Buffer in;
    for (int i = 0; i < 3000; ++i) {
        const char *s = "feature_stream_payload_";
        in.insert(in.end(), s, s + 24);
    }
    Buffer out;
    compress(GetParam(), in, out);
    auto back = decompressCopy(GetParam(), out, in.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, in);
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecParamTest,
                         ::testing::Values(Codec::None, Codec::Lz));

TEST(Lz, CompressesRedundantData)
{
    Buffer in;
    for (int i = 0; i < 1000; ++i) {
        const char *s = "abcdefgh";
        in.insert(in.end(), s, s + 8);
    }
    Buffer out;
    compress(Codec::Lz, in, out);
    EXPECT_LT(out.size(), in.size() / 10);
}

TEST(Lz, OverlappingMatchesDecodeCorrectly)
{
    // 'aaaa...' forces self-overlapping match copies.
    Buffer in(5000, 'a');
    Buffer out;
    compress(Codec::Lz, in, out);
    EXPECT_LT(out.size(), 64u);
    auto back = decompressCopy(Codec::Lz, out, in.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, in);
}

TEST(Lz, MalformedInputRejected)
{
    Buffer junk{0xff, 0xff, 0xff, 0xff, 0x01, 0x02};
    // Header disagrees with the expected length: rejected up front.
    EXPECT_FALSE(decompressCopy(Codec::Lz, junk, 16).has_value());
    // Header agrees but the tokens are garbage.
    Buffer tokens{0x10, 0x05, 0x01, 0x02};
    EXPECT_FALSE(decompressCopy(Codec::Lz, tokens, 16).has_value());
}

TEST(Lz, ScratchIsReusedAcrossBlocks)
{
    // One scratch buffer serves a large block and then a small one;
    // each view holds exactly its block's bytes.
    Rng rng(404);
    Buffer big(20000), small(300);
    for (auto &b : big)
        b = static_cast<uint8_t>(rng.nextUint(4));
    for (auto &b : small)
        b = static_cast<uint8_t>(rng.nextUint(4));
    Buffer big_enc, small_enc, scratch;
    compress(Codec::Lz, big, big_enc);
    compress(Codec::Lz, small, small_enc);
    auto a = decompress(Codec::Lz, big_enc, big.size(), scratch);
    ASSERT_TRUE(a.has_value());
    EXPECT_TRUE(std::equal(a->begin(), a->end(), big.begin(), big.end()));
    size_t grown = scratch.size();
    auto b = decompress(Codec::Lz, small_enc, small.size(), scratch);
    ASSERT_TRUE(b.has_value());
    EXPECT_TRUE(
        std::equal(b->begin(), b->end(), small.begin(), small.end()));
    EXPECT_EQ(scratch.size(), grown);
}

TEST(Cipher, WordKeystreamMatchesByteReference)
{
    // The keystream is applied a 64-bit word at a time; the bytes it
    // produces must be those of the byte-at-a-time definition, or
    // every encrypted file already written would stop decoding.
    Rng rng(2024);
    StreamCipher c(0xfeed);
    for (size_t len = 0; len < 80; ++len) {
        Buffer data(len);
        for (auto &b : data)
            b = static_cast<uint8_t>(rng.next());
        Buffer expect = data;
        Rng keystream(c.key() ^ (len * 0x9e3779b97f4a7c15ULL));
        uint64_t ks = 0;
        for (size_t i = 0; i < len; ++i) {
            if (i % 8 == 0)
                ks = keystream.next();
            expect[i] ^= static_cast<uint8_t>(ks >> (8 * (i % 8)));
        }
        c.apply(len, data);
        EXPECT_EQ(data, expect) << "len=" << len;
    }
}

TEST(Cipher, ApplyTwiceRestores)
{
    Rng rng(9);
    Buffer data(999);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    Buffer orig = data;
    StreamCipher c(0x1234);
    c.apply(42, data);
    EXPECT_NE(data, orig);
    c.apply(42, data);
    EXPECT_EQ(data, orig);
}

TEST(Cipher, DifferentNoncesDiffer)
{
    Buffer a(256, 0), b(256, 0);
    StreamCipher c(0x1234);
    c.apply(1, a);
    c.apply(2, b);
    EXPECT_NE(a, b);
}

TEST(Cipher, DifferentKeysDiffer)
{
    Buffer a(256, 0), b(256, 0);
    StreamCipher c1(0x1111), c2(0x2222);
    c1.apply(7, a);
    c2.apply(7, b);
    EXPECT_NE(a, b);
}

} // namespace
} // namespace dsi::dwrf

// Log record encoding and framed log I/O, including torn-tail handling.
#include <gtest/gtest.h>

#include <cstring>

#include "src/base/crc32.h"
#include "src/base/rng.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_io.h"
#include "src/store/mem_store.h"

namespace {

rvm::TransactionRecord MakeRecord(uint64_t seq) {
  rvm::TransactionRecord txn;
  txn.node = 3;
  txn.commit_seq = seq;
  txn.locks = {{7, seq}, {9, seq + 100}};
  rvm::RangeImage r1{1, 64, {1, 2, 3, 4}};
  rvm::RangeImage r2{1, 4096, {9, 8, 7}};
  txn.ranges = {r1, r2};
  return txn;
}

TEST(LogFormat, TransactionRoundTrip) {
  rvm::TransactionRecord txn = MakeRecord(5);
  std::vector<uint8_t> payload = rvm::EncodeTransaction(txn);
  rvm::TransactionRecord out;
  ASSERT_TRUE(
      rvm::DecodeTransaction(base::ByteSpan(payload.data(), payload.size()), &out).ok());
  EXPECT_EQ(txn.node, out.node);
  EXPECT_EQ(txn.commit_seq, out.commit_seq);
  EXPECT_EQ(txn.locks, out.locks);
  EXPECT_EQ(txn.ranges, out.ranges);
}

TEST(LogFormat, MetaEncodingMatchesOwnedEncoding) {
  // The gather-path encoding (header + per-range prefixes + raw data) must
  // byte-match the contiguous encoding used by the merge utility.
  rvm::TransactionRecord txn = MakeRecord(9);
  rvm::CommitContext ctx;
  ctx.node = txn.node;
  ctx.commit_seq = txn.commit_seq;
  ctx.locks = &txn.locks;
  for (const auto& r : txn.ranges) {
    ctx.ranges.push_back(rvm::RangeRef{r.region, r.offset, r.data.data(), r.data.size()});
  }
  rvm::EncodedTransactionMeta meta = rvm::EncodeTransactionMeta(ctx);
  std::vector<uint8_t> assembled(meta.header);
  for (size_t i = 0; i < ctx.ranges.size(); ++i) {
    assembled.insert(assembled.end(), meta.range_prefixes[i].begin(),
                     meta.range_prefixes[i].end());
    assembled.insert(assembled.end(), ctx.ranges[i].data,
                     ctx.ranges[i].data + ctx.ranges[i].len);
  }
  EXPECT_EQ(rvm::EncodeTransaction(txn), assembled);
  EXPECT_EQ(meta.payload_len, assembled.size());
}

TEST(LogFormat, PeekKindDistinguishes) {
  auto txn = rvm::EncodeTransaction(MakeRecord(1));
  auto ckpt = rvm::EncodeCheckpoint();
  EXPECT_EQ(rvm::LogRecordKind::kTransaction,
            *rvm::PeekKind(base::ByteSpan(txn.data(), txn.size())));
  EXPECT_EQ(rvm::LogRecordKind::kCheckpoint,
            *rvm::PeekKind(base::ByteSpan(ckpt.data(), ckpt.size())));
  uint8_t junk = 0x77;
  EXPECT_FALSE(rvm::PeekKind(base::ByteSpan(&junk, 1)).ok());
}

TEST(LogFormat, DecodeRejectsTrailingGarbage) {
  auto payload = rvm::EncodeTransaction(MakeRecord(1));
  payload.push_back(0xFF);
  rvm::TransactionRecord out;
  EXPECT_EQ(base::StatusCode::kDataLoss,
            rvm::DecodeTransaction(base::ByteSpan(payload.data(), payload.size()), &out)
                .code());
}

TEST(LogIo, WriteReadMultipleRecords) {
  store::MemStore store;
  auto file = std::move(*store.Open("log", true));
  rvm::LogWriter writer(std::move(file));
  for (uint64_t i = 0; i < 10; ++i) {
    auto payload = rvm::EncodeTransaction(MakeRecord(i));
    ASSERT_TRUE(writer.Append(base::ByteSpan(payload.data(), payload.size())).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(writer.Sync().ok());
    }
  }
  EXPECT_EQ(10u, writer.records_written());

  auto rfile = std::move(*store.Open("log", false));
  rvm::LogReader reader(rfile.get());
  std::vector<uint8_t> payload;
  bool at_end = false;
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
    ASSERT_FALSE(at_end);
    rvm::TransactionRecord txn;
    ASSERT_TRUE(
        rvm::DecodeTransaction(base::ByteSpan(payload.data(), payload.size()), &txn).ok());
    EXPECT_EQ(i, txn.commit_seq);
  }
  ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
  EXPECT_TRUE(at_end);
  EXPECT_FALSE(reader.tail_was_torn());
}

TEST(LogIo, AppendAndAppendBatchWriteTheEncodedFrames) {
  // Every writer path frames through EncodeFrames: record-at-a-time
  // Appends, one AppendBatch and the encoder itself yield the same bytes,
  // and the first frame's header is magic | length | crc32c(payload).
  store::MemStore store;
  std::vector<std::vector<uint8_t>> records;
  std::vector<base::ByteSpan> payloads;
  for (uint64_t i = 0; i < 3; ++i) {
    records.push_back(rvm::EncodeTransaction(MakeRecord(i)));
  }
  for (const auto& r : records) {
    payloads.push_back(base::ByteSpan(r.data(), r.size()));
  }
  {
    rvm::LogWriter w(std::move(*store.Open("a", true)));
    for (const auto& p : payloads) {
      ASSERT_TRUE(w.Append(p).ok());
    }
    EXPECT_EQ(3u, w.records_written());
  }
  {
    rvm::LogWriter w(std::move(*store.Open("b", true)));
    ASSERT_TRUE(w.AppendBatch(payloads).ok());
    EXPECT_EQ(3u, w.records_written());
  }
  std::vector<uint8_t> encoded;
  rvm::EncodeFrames(payloads, &encoded);
  auto fa = std::move(*store.Open("a", false));
  auto fb = std::move(*store.Open("b", false));
  std::vector<uint8_t> a(*fa->Size()), b(*fb->Size());
  ASSERT_TRUE(fa->ReadExact(0, a.data(), a.size()).ok());
  ASSERT_TRUE(fb->ReadExact(0, b.data(), b.size()).ok());
  EXPECT_EQ(encoded, a);
  EXPECT_EQ(encoded, b);

  uint32_t header[3];
  ASSERT_GE(encoded.size(), sizeof(header));
  std::memcpy(header, encoded.data(), sizeof(header));
  EXPECT_EQ(rvm::kLogMagic, header[0]);
  EXPECT_EQ(records[0].size(), header[1]);
  EXPECT_EQ(base::Crc32c(records[0].data(), records[0].size()), header[2]);
}

// Property: cutting the log at ANY byte boundary yields a clean prefix of
// complete records — never garbage, never a crash.
class TornTailTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TornTailTest, TruncatedLogReadsCleanPrefix) {
  store::MemStore store;
  std::vector<uint64_t> frame_ends;
  {
    auto file = std::move(*store.Open("log", true));
    rvm::LogWriter writer(std::move(file));
    for (uint64_t i = 0; i < 6; ++i) {
      auto payload = rvm::EncodeTransaction(MakeRecord(i));
      ASSERT_TRUE(writer.Append(base::ByteSpan(payload.data(), payload.size())).ok());
      frame_ends.push_back(writer.bytes_written());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  uint64_t total = frame_ends.back();
  // Cut at a pseudo-random position derived from the seed parameter.
  base::Rng rng(GetParam());
  uint64_t cut = rng.Uniform(total + 1);
  {
    auto file = std::move(*store.Open("log", false));
    ASSERT_TRUE(file->Truncate(cut).ok());
  }
  auto file = std::move(*store.Open("log", false));
  rvm::LogReader reader(file.get());
  std::vector<uint8_t> payload;
  bool at_end = false;
  uint64_t records = 0;
  while (true) {
    ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
    if (at_end) {
      break;
    }
    rvm::TransactionRecord txn;
    ASSERT_TRUE(
        rvm::DecodeTransaction(base::ByteSpan(payload.data(), payload.size()), &txn).ok());
    EXPECT_EQ(records, txn.commit_seq);
    ++records;
  }
  // Exactly the complete frames before the cut survive.
  uint64_t expect = 0;
  for (uint64_t end : frame_ends) {
    if (end <= cut) {
      ++expect;
    }
  }
  EXPECT_EQ(expect, records);
  // Torn flag set iff the cut left a partial frame behind.
  uint64_t prefix_end = expect == 0 ? 0 : frame_ends[expect - 1];
  EXPECT_EQ(cut > prefix_end, reader.tail_was_torn());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, TornTailTest, ::testing::Range<uint64_t>(0, 24));

TEST(LogIo, CorruptedPayloadStopsRead) {
  store::MemStore store;
  {
    auto file = std::move(*store.Open("log", true));
    rvm::LogWriter writer(std::move(file));
    auto payload = rvm::EncodeTransaction(MakeRecord(0));
    ASSERT_TRUE(writer.Append(base::ByteSpan(payload.data(), payload.size())).ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  {
    // Flip one payload byte: the CRC must catch it.
    auto file = std::move(*store.Open("log", false));
    uint8_t b;
    ASSERT_TRUE(file->ReadExact(rvm::kFrameHeaderSize + 2, &b, 1).ok());
    b ^= 0x40;
    ASSERT_TRUE(file->Write(rvm::kFrameHeaderSize + 2, base::ByteSpan(&b, 1)).ok());
  }
  auto file = std::move(*store.Open("log", false));
  rvm::LogReader reader(file.get());
  std::vector<uint8_t> payload;
  bool at_end = false;
  ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
  EXPECT_TRUE(at_end);
  EXPECT_TRUE(reader.tail_was_torn());
}

}  // namespace

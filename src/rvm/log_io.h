// Framed, checksummed append-only log over a DurableFile.
//
// Frame layout:  u32 magic | u32 payload_len | u32 crc32c(payload) | payload
//
// EncodeFrames is the one frame encoder: LogWriter frames through it, and so
// does a caller that writes through the writer's file itself (the commit
// pipeline's unlocked append). The reader stops cleanly at a torn tail: any
// frame whose magic, length, or checksum does not verify is treated as the
// end of the log, exactly like RVM recovery.
#ifndef SRC_RVM_LOG_IO_H_
#define SRC_RVM_LOG_IO_H_

#include <memory>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/status.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

inline constexpr uint32_t kLogMagic = 0x4C4D5652;  // "RVML"
inline constexpr size_t kFrameHeaderSize = 12;

// Appends to `out` one frame per payload, in order.
void EncodeFrames(const std::vector<base::ByteSpan>& payloads, std::vector<uint8_t>* out);

class LogWriter {
 public:
  explicit LogWriter(std::unique_ptr<store::DurableFile> file, uint64_t start_offset = 0)
      : file_(std::move(file)), offset_(start_offset) {}

  // Appends one record; durable only after Sync().
  base::Status Append(base::ByteSpan payload) { return AppendBatch({payload}); }

  // Group commit: appends one frame per payload, all frames in ONE
  // contiguous Write; durable only after Sync(). Each payload keeps its
  // own header + CRC, so a crash mid-batch tears the batch at a frame
  // boundary (or inside the last partially-written frame, which the CRC
  // catches): recovery sees a clean per-record prefix of the batch — the
  // batch is atomic at the log-frame level, not the transaction level.
  base::Status AppendBatch(const std::vector<base::ByteSpan>& payloads);

  base::Status Sync() { return file_->Sync(); }

  // The underlying file, shared: a caller may Sync it, or write frames at
  // bytes_written() and then Advance, without holding the writer's lock,
  // and the handle outlives a swap that replaces the writer.
  std::shared_ptr<store::DurableFile> file() const { return file_; }

  // Counts `bytes` of framed `records` that a caller wrote through file()
  // at bytes_written(), so later appends land after them.
  void Advance(uint64_t bytes, uint64_t records) {
    offset_ += bytes;
    records_ += records;
  }

  uint64_t bytes_written() const { return offset_; }
  uint64_t records_written() const { return records_; }

 private:
  std::shared_ptr<store::DurableFile> file_;
  uint64_t offset_ = 0;
  uint64_t records_ = 0;
  std::vector<uint8_t> scratch_;
};

class LogReader {
 public:
  explicit LogReader(store::DurableFile* file) : file_(file) {}

  // Reads the next record payload. Sets *at_end=true (and returns OK) at the
  // end of the valid log — including at a torn or corrupt tail, which is
  // reported through `tail_was_torn()` for tests that care.
  base::Status ReadNext(std::vector<uint8_t>* payload, bool* at_end);

  bool tail_was_torn() const { return tail_was_torn_; }
  uint64_t offset() const { return offset_; }

 private:
  store::DurableFile* file_;
  uint64_t offset_ = 0;
  bool tail_was_torn_ = false;
};

}  // namespace rvm

#endif  // SRC_RVM_LOG_IO_H_

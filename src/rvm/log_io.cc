#include "src/rvm/log_io.h"

#include <cstring>

#include "src/base/crc32.h"

namespace rvm {

void EncodeFrames(const std::vector<base::ByteSpan>& payloads, std::vector<uint8_t>* out) {
  size_t total = out->size();
  for (const auto& p : payloads) {
    total += kFrameHeaderSize + p.size();
  }
  out->reserve(total);
  auto push_u32 = [out](uint32_t v) {
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    out->insert(out->end(), p, p + sizeof(v));
  };
  for (const auto& payload : payloads) {
    push_u32(kLogMagic);
    push_u32(static_cast<uint32_t>(payload.size()));
    push_u32(base::Crc32c(payload.data(), payload.size()));
    out->insert(out->end(), payload.begin(), payload.end());
  }
}

base::Status LogWriter::AppendBatch(const std::vector<base::ByteSpan>& payloads) {
  if (payloads.empty()) {
    return base::OkStatus();
  }
  // One contiguous write, so a crash tears at most a suffix of the frames
  // (the reader detects any partial frame via length/CRC).
  scratch_.clear();
  EncodeFrames(payloads, &scratch_);
  RETURN_IF_ERROR(file_->Write(offset_, base::ByteSpan(scratch_.data(), scratch_.size())));
  Advance(scratch_.size(), payloads.size());
  return base::OkStatus();
}

base::Status LogReader::ReadNext(std::vector<uint8_t>* payload, bool* at_end) {
  *at_end = false;
  uint8_t header[kFrameHeaderSize];
  ASSIGN_OR_RETURN(size_t n, file_->Read(offset_, header, sizeof(header)));
  if (n == 0) {
    *at_end = true;
    return base::OkStatus();
  }
  if (n < sizeof(header)) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  uint32_t magic, len, crc;
  std::memcpy(&magic, header, 4);
  std::memcpy(&len, header + 4, 4);
  std::memcpy(&crc, header + 8, 4);
  if (magic != kLogMagic) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  // A corrupt length field must not trigger a giant allocation: anything
  // longer than the remaining file is a torn frame by definition.
  ASSIGN_OR_RETURN(uint64_t file_size, file_->Size());
  if (offset_ + sizeof(header) + len > file_size) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  payload->resize(len);
  ASSIGN_OR_RETURN(size_t got, file_->Read(offset_ + sizeof(header), payload->data(), len));
  if (got < len) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  if (base::Crc32c(payload->data(), payload->size()) != crc) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  offset_ += sizeof(header) + len;
  return base::OkStatus();
}

}  // namespace rvm

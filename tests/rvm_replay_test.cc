// rvm::ReplayWriteSet does its I/O per run of consecutive marked pages:
// these tests pin the exact device ops of every Commit stage over a store
// that logs them, the run boundaries (page filter, regions, end of file),
// and the rot gate's verdict on a page in the middle of a run.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/sync.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"
#include "src/store/mem_store.h"

namespace {

using rvm::kDbPageSize;

// Records every Read, Write, Append, Sync and Truncate that reaches a file,
// as "<op> <file>[ <offset>+<length>]", in issue order. Size and Open are
// not device ops and are not recorded.
class OpLogStore : public store::DurableStore {
 public:
  explicit OpLogStore(store::DurableStore* base) : base_(base) {}

  std::vector<std::string> TakeOps() {
    base::MutexLock lock(mu_);
    return std::exchange(ops_, {});
  }

  base::Result<std::unique_ptr<store::DurableFile>> Open(const std::string& name,
                                                         bool create) override {
    ASSIGN_OR_RETURN(auto file, base_->Open(name, create));
    return std::unique_ptr<store::DurableFile>(
        std::make_unique<LoggedFile>(this, name, std::move(file)));
  }
  base::Status Remove(const std::string& name) override { return base_->Remove(name); }
  base::Result<bool> Exists(const std::string& name) override {
    return base_->Exists(name);
  }
  base::Result<std::vector<std::string>> List() override { return base_->List(); }
  base::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  base::Status SyncDir() override { return base_->SyncDir(); }

 private:
  class LoggedFile : public store::DurableFile {
   public:
    LoggedFile(OpLogStore* owner, std::string name, std::unique_ptr<store::DurableFile> base)
        : owner_(owner), name_(std::move(name)), base_(std::move(base)) {}

    base::Result<size_t> Read(uint64_t offset, void* buf, size_t len) override {
      owner_->Log("read " + name_ + Extent(offset, len));
      return base_->Read(offset, buf, len);
    }
    base::Status Write(uint64_t offset, base::ByteSpan data) override {
      owner_->Log("write " + name_ + Extent(offset, data.size()));
      return base_->Write(offset, data);
    }
    base::Result<uint64_t> Append(base::ByteSpan data) override {
      owner_->Log("append " + name_);
      return base_->Append(data);
    }
    base::Status Sync() override {
      owner_->Log("sync " + name_);
      return base_->Sync();
    }
    base::Result<uint64_t> Size() const override { return base_->Size(); }
    base::Status Truncate(uint64_t size) override {
      owner_->Log("truncate " + name_);
      return base_->Truncate(size);
    }

   private:
    static std::string Extent(uint64_t offset, size_t len) {
      return " " + std::to_string(offset) + "+" + std::to_string(len);
    }

    OpLogStore* owner_;
    std::string name_;
    std::unique_ptr<store::DurableFile> base_;
  };

  void Log(std::string op) {
    base::MutexLock lock(mu_);
    ops_.push_back(std::move(op));
  }

  store::DurableStore* base_;
  base::Mutex mu_{"test.op_log"};
  std::vector<std::string> ops_ LBC_GUARDED_BY(mu_);
};

constexpr rvm::RegionId kRegion = 1;
constexpr uint64_t kPages = 6;

rvm::RangeImage Range(rvm::RegionId region, uint64_t offset, uint64_t len, uint8_t fill) {
  rvm::RangeImage range;
  range.region = region;
  range.offset = offset;
  range.data.assign(len, fill);
  return range;
}

// Redo on pages {0,1,2} and {5} — two runs; pages 3 and 4 have none. The
// last range overwrites part of the first, so call order matters. Page 1 is
// covered only in part: bytes [100, kDbPageSize / 2) keep their pre-image.
std::vector<rvm::RangeImage> TwoRunRedo() {
  return {Range(kRegion, kDbPageSize / 2, kDbPageSize / 2 + 100, 0xA1),     // pages 0-1
          Range(kRegion, 5 * kDbPageSize + 100, 200, 0xB2),                // page 5
          Range(kRegion, kDbPageSize + kDbPageSize / 2, kDbPageSize, 0xC3),  // pages 1-2
          Range(kRegion, kDbPageSize + 50, 20, 0xD4)};                     // page 1
}

std::vector<uint8_t> ReadFile(store::DurableStore* s, const std::string& name) {
  auto file = std::move(*s->Open(name, /*create=*/false));
  std::vector<uint8_t> bytes(*file->Size());
  EXPECT_TRUE(file->ReadExact(0, bytes.data(), bytes.size()).ok());
  return bytes;
}

class ReplayWriteSetTest : public ::testing::Test {
 protected:
  // A certified six-page database: every byte 0x11, every entry written.
  void SetUp() override {
    base_image_.assign(kPages * kDbPageSize, 0x11);
    auto db = std::move(*mem_.Open(rvm::RegionFileName(kRegion), /*create=*/true));
    ASSERT_TRUE(db->Write(0, base::ByteSpan(base_image_.data(), base_image_.size())).ok());
    ASSERT_TRUE(rvm::RewriteRegionChecksums(&mem_, kRegion).ok());
  }

  std::vector<uint8_t> Expected(const std::vector<rvm::RangeImage>& ranges) const {
    std::vector<uint8_t> image = base_image_;
    for (const rvm::RangeImage& range : ranges) {
      std::memcpy(image.data() + range.offset, range.data.data(), range.data.size());
    }
    return image;
  }

  // Every page's sidecar entry is exactly what a from-scratch rewrite
  // computes from the database file.
  void ExpectSidecarMatchesRewrite() {
    const std::vector<uint8_t> replayed = ReadFile(&mem_, rvm::ChecksumFileName(kRegion));
    ASSERT_TRUE(rvm::RewriteRegionChecksums(&mem_, kRegion).ok());
    EXPECT_EQ(replayed, ReadFile(&mem_, rvm::ChecksumFileName(kRegion)));
  }

  store::MemStore mem_;
  OpLogStore log_{&mem_};
  std::vector<uint8_t> base_image_;
};

// The device ops of one two-run Commit after its pre-image loads (and, in
// verify mode, the rot gate): one op per run at every stage.
std::vector<std::string> MutatingStages() {
  return {// clear the entries, sync
          "write region_1.dbsum 16+24", "write region_1.dbsum 56+8", "sync region_1.dbsum",
          // write the data, sync
          "write region_1.db 0+24576", "write region_1.db 40960+8192", "sync region_1.db",
          // read back
          "read region_1.db 0+24576", "read region_1.db 40960+8192",
          // rewrite the entries, sync
          "write region_1.dbsum 16+24", "write region_1.dbsum 56+8", "sync region_1.dbsum"};
}

TEST_F(ReplayWriteSetTest, OneOpPerRunAtEveryStage) {
  const std::vector<rvm::RangeImage> ranges = TwoRunRedo();
  rvm::ReplayWriteSet writes(&log_);
  for (const rvm::RangeImage& range : ranges) {
    ASSERT_TRUE(writes.Apply(range).ok());
  }
  EXPECT_TRUE(log_.TakeOps().empty()) << "Apply must only stage";
  ASSERT_TRUE(writes.Commit().ok());

  std::vector<std::string> expected = {
      // load each run's pre-image
      "read region_1.db 0+24576", "read region_1.db 40960+8192",
      // the sidecar's header, read when it is opened
      "read region_1.dbsum 0+16"};
  for (std::string& op : MutatingStages()) {
    expected.push_back(std::move(op));
  }
  EXPECT_EQ(expected, log_.TakeOps());
  EXPECT_EQ(Expected(ranges), ReadFile(&mem_, rvm::RegionFileName(kRegion)));
  ExpectSidecarMatchesRewrite();
}

TEST_F(ReplayWriteSetTest, RotGateReadsEachRunsEntriesOnce) {
  const std::vector<rvm::RangeImage> ranges = TwoRunRedo();
  rvm::ReplayOptions options;
  options.verify_preimages = true;
  rvm::ReplayWriteSet writes(&log_, std::move(options));
  for (const rvm::RangeImage& range : ranges) {
    ASSERT_TRUE(writes.Apply(range).ok());
  }
  EXPECT_TRUE(log_.TakeOps().empty()) << "Apply must only stage";
  ASSERT_TRUE(writes.Commit().ok());

  std::vector<std::string> expected = {
      // load each run's pre-image
      "read region_1.db 0+24576", "read region_1.db 40960+8192",
      // the rot gate: the sidecar's header, then each run's entries
      "read region_1.dbsum 0+16", "read region_1.dbsum 16+24", "read region_1.dbsum 56+8"};
  for (std::string& op : MutatingStages()) {
    expected.push_back(std::move(op));
  }
  EXPECT_EQ(expected, log_.TakeOps());
  EXPECT_EQ(Expected(ranges), ReadFile(&mem_, rvm::RegionFileName(kRegion)));
  ExpectSidecarMatchesRewrite();
}

TEST_F(ReplayWriteSetTest, RottenPreImageMidRunFailsBeforeAnyWrite) {
  // Rot a byte of page 1 that no redo covers.
  auto db = std::move(*mem_.Open(rvm::RegionFileName(kRegion), /*create=*/false));
  const uint8_t rot = 0xEE;
  ASSERT_TRUE(db->Write(kDbPageSize + 200, base::ByteSpan(&rot, 1)).ok());
  const std::vector<uint8_t> rotten = ReadFile(&mem_, rvm::RegionFileName(kRegion));

  const std::vector<rvm::RangeImage> ranges = TwoRunRedo();
  rvm::ReplayOptions options;
  options.verify_preimages = true;
  rvm::ReplayWriteSet writes(&log_, std::move(options));
  for (const rvm::RangeImage& range : ranges) {
    ASSERT_TRUE(writes.Apply(range).ok());
  }
  base::Status committed = writes.Commit();
  ASSERT_EQ(base::StatusCode::kDataLoss, committed.code()) << committed.ToString();
  EXPECT_NE(std::string::npos, committed.ToString().find("region 1 page 1"))
      << committed.ToString();

  const std::vector<std::string> expected = {
      "read region_1.db 0+24576", "read region_1.db 40960+8192", "read region_1.dbsum 0+16",
      "read region_1.dbsum 16+24"};
  EXPECT_EQ(expected, log_.TakeOps()) << "no write or sync may follow the verdict";
  EXPECT_EQ(rotten, ReadFile(&mem_, rvm::RegionFileName(kRegion)));
}

TEST_F(ReplayWriteSetTest, RunsStopAtFilteredPagesRegionsAndEndOfFile) {
  // Page 1 is not claimed, so pages 0 and 2 are runs of their own. Region 2
  // has a database file 1.5 pages long: its pre-image read stops at end of
  // file and the rest of the run reads as zeros.
  auto db2 = std::move(*mem_.Open(rvm::RegionFileName(2), /*create=*/true));
  const std::vector<uint8_t> short_file(kDbPageSize + kDbPageSize / 2, 0x22);
  ASSERT_TRUE(db2->Write(0, base::ByteSpan(short_file.data(), short_file.size())).ok());

  std::vector<rvm::RangeImage> ranges = TwoRunRedo();
  ranges.push_back(Range(2, kDbPageSize - 10, kDbPageSize + 20, 0xE5));  // pages 0-2
  rvm::ReplayOptions options;
  options.page_filter = [](rvm::RegionId region, uint64_t page) {
    return region != kRegion || page != 1;
  };
  rvm::ReplayWriteSet writes(&log_, std::move(options));
  for (const rvm::RangeImage& range : ranges) {
    ASSERT_TRUE(writes.Apply(range).ok());
  }
  ASSERT_TRUE(writes.Commit().ok());

  std::vector<std::string> loads;
  for (const std::string& op : log_.TakeOps()) {
    if (op.rfind("read region_", 0) == 0 && op.find(".db ") != std::string::npos) {
      loads.push_back(op);
    }
  }
  const std::vector<std::string> expected = {
      // pre-image loads
      "read region_1.db 0+8192", "read region_1.db 16384+8192", "read region_1.db 40960+8192",
      "read region_2.db 0+12288",
      // read-backs
      "read region_1.db 0+8192", "read region_1.db 16384+8192", "read region_1.db 40960+8192",
      "read region_2.db 0+24576"};
  EXPECT_EQ(expected, loads);

  std::vector<uint8_t> region1 = Expected(TwoRunRedo());
  std::memcpy(region1.data() + kDbPageSize, base_image_.data(), kDbPageSize);  // unclaimed
  EXPECT_EQ(region1, ReadFile(&mem_, rvm::RegionFileName(kRegion)));
  std::vector<uint8_t> region2(3 * kDbPageSize, 0);
  std::memcpy(region2.data(), short_file.data(), short_file.size());
  std::memset(region2.data() + kDbPageSize - 10, 0xE5, kDbPageSize + 20);
  EXPECT_EQ(region2, ReadFile(&mem_, rvm::RegionFileName(2)));
}

}  // namespace

// Durable storage abstraction under the RVM log and database files.
//
// RVM's durability story depends only on: random-access reads/writes, append,
// an explicit Sync barrier after which data survives a crash, and truncate.
// Implementations:
//   - FileStore: a directory of POSIX files (production path).
//   - MemStore:  an in-memory store with crash simulation and torn-write
//                injection, used by the recovery and failure-injection tests.
//   - ReplicatedStore: mirrors any of the above across replicas.
//   - CrashPointStore: a decorator that numbers every mutating operation and
//                injects a deterministic crash at the Nth one (crash_point_store.h).
//   - ResourceStore: a decorator enforcing a byte quota (deterministic
//                ENOSPC, short appends) and injecting seeded per-op latency
//                (slow-disk gray failure) — resource_store.h.
//
// Every status-returning method is [[nodiscard]]: an ENOSPC or corruption
// report only propagates if no caller drops it on the floor.
#ifndef SRC_STORE_DURABLE_STORE_H_
#define SRC_STORE_DURABLE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/status.h"

namespace store {

// A single random-access durable byte file.
class DurableFile {
 public:
  virtual ~DurableFile() = default;

  // Reads up to `len` bytes at `offset`; returns the number of bytes read
  // (short count at end of file, 0 at/after EOF).
  [[nodiscard]] virtual base::Result<size_t> Read(uint64_t offset, void* buf,
                                                  size_t len) = 0;

  // Writes `data` at `offset`, extending the file if needed. Durability is
  // only guaranteed after a subsequent Sync().
  [[nodiscard]] virtual base::Status Write(uint64_t offset, base::ByteSpan data) = 0;

  // Appends at the current end of file; returns the offset written at.
  [[nodiscard]] virtual base::Result<uint64_t> Append(base::ByteSpan data) = 0;

  // Durability barrier: all prior writes survive a crash after this returns.
  [[nodiscard]] virtual base::Status Sync() = 0;

  [[nodiscard]] virtual base::Result<uint64_t> Size() const = 0;

  // Shrinks (or extends with zeros) to `size` bytes.
  [[nodiscard]] virtual base::Status Truncate(uint64_t size) = 0;

  // Convenience: read exactly `len` bytes or fail with DATA_LOSS.
  [[nodiscard]] base::Status ReadExact(uint64_t offset, void* buf, size_t len);
};

// A namespace of durable files.
//
// Namespace durability contract (matches POSIX directory semantics): creating,
// renaming, or removing a file changes only the *volatile* namespace. The
// change survives a crash only after a barrier:
//   - a file's creation (under its current names) becomes durable when that
//     file is first Sync()ed, or at the next SyncDir();
//   - Rename and Remove become durable only at the next SyncDir().
// FileStore issues the barrier internally after every namespace operation
// (fsync of the parent directory), so callers get durable-at-return behavior
// on real filesystems; MemStore deliberately does not, so the crash explorer
// can catch missing-SyncDir bugs in-memory.
class DurableStore {
 public:
  virtual ~DurableStore() = default;

  // Opens (optionally creating) a file by name.
  [[nodiscard]] virtual base::Result<std::unique_ptr<DurableFile>> Open(
      const std::string& name, bool create) = 0;
  [[nodiscard]] virtual base::Status Remove(const std::string& name) = 0;
  [[nodiscard]] virtual base::Result<bool> Exists(const std::string& name) = 0;
  [[nodiscard]] virtual base::Result<std::vector<std::string>> List() = 0;

  // Atomically renames a file (used for checkpoint swap during truncation).
  [[nodiscard]] virtual base::Status Rename(const std::string& from,
                                            const std::string& to) = 0;

  // Namespace durability barrier: all prior creations, renames, and removals
  // survive a crash after this returns (fsync of the directory).
  [[nodiscard]] virtual base::Status SyncDir() = 0;
};

// Creates a store over a filesystem directory (created if absent).
base::Result<std::unique_ptr<DurableStore>> OpenFileStore(const std::string& directory);

}  // namespace store

#endif  // SRC_STORE_DURABLE_STORE_H_

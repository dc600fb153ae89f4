// Write-ahead log for graph edits (docs/WAL.md). The store's
// append-then-header protocol (gtree/store.cc) makes each *published*
// update crash-safe, but an edit is only durable once the header lands;
// everything after the last header rewrite dies with a crash. The WAL
// closes that window: every GraphEdit is appended and fsynced here
// *before* it is applied to the store, so a commit acknowledged to the
// submitter is recoverable by replaying the log tail on the next Open
// ("acked ⇒ replayed"; core/edit_queue.h is the writer, GMineEngine's
// Open is the reader).
//
// File format (little-endian, CRCs are util/coding.h Hash64 / FNV-1a):
//
//   header   fixed32 magic 'GWAL' | fixed32 version | fixed64 start_lsn
//            | fixed64 crc(previous 16 bytes)
//   record*  fixed32 payload_len | fixed64 crc(payload, seeded with
//            payload_len) | payload
//   payload  varint64 lsn | length-prefixed GraphEdit::Serialize()
//            | varint32 label_count | length-prefixed label*
//
// Records carry their labels because replay must reproduce the exact
// post-edit label store, not just the topology. LSNs are assigned
// contiguously from the header's start_lsn; the store header records
// the highest applied LSN (GTreeStore::applied_lsn), and recovery
// replays exactly the records past it.
//
// Open scans the whole file: a record whose length overruns the file or
// whose CRC mismatches is a torn tail — the file is truncated back to
// the last valid record and the scan stops. That is the crash the
// fault-injection sweep (tests/wal_recovery_test.cc) drives through
// every byte offset.
//
// Thread-safety: none. The single group-commit thread
// (core::EditQueue) is the only writer; Open runs before any
// concurrency starts.

#ifndef GMINE_STORAGE_WAL_H_
#define GMINE_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_edit.h"
#include "util/fault_fs.h"
#include "util/status.h"

namespace gmine::storage {

/// File-header size: magic + version + start_lsn + crc (format above).
constexpr size_t kWalHeaderSize = 4 + 4 + 8 + 8;
/// Per-record frame: fixed32 payload_len + fixed64 crc.
constexpr size_t kRecordHeaderSize = 4 + 8;

/// WAL construction options (a member of core::EngineOptions).
struct WalOptions {
  /// Master switch: when false the engine opens no WAL and ApplyEdit
  /// behaves exactly as before (no log, no replay).
  bool enabled = false;
  /// Log path; empty = "<store_path>.wal".
  std::string path;
  /// fdatasync after every group append (the commit barrier). Turning
  /// this off keeps the framing and replay but drops the power-loss
  /// guarantee to the store's own level — for benchmarks that isolate
  /// the fsync cost.
  bool durable = true;
  /// When creating a fresh log (missing or empty file), the first LSN
  /// to assign. The engine passes store applied_lsn + 1.
  uint64_t start_lsn = 1;
  /// Filesystem seam; nullptr = util::FileSystem::Posix(). Tests pass
  /// a util::FaultFs to tear writes and drop syncs.
  util::FileSystem* fs = nullptr;
};

/// One recovered (or to-be-appended) log record.
struct WalRecord {
  uint64_t lsn = 0;
  graph::GraphEdit edit{0};
  /// Labels for the edit's added nodes, in provisional-id order
  /// (GMineEngine::ApplyEdit's `new_labels`).
  std::vector<std::string> labels;
  /// Byte offset of this record in the file (recovery bookkeeping;
  /// lets replay truncate from a failing record onward).
  uint64_t offset = 0;
};

/// Cumulative WAL counters.
struct WalStats {
  uint64_t records_appended = 0;
  uint64_t syncs = 0;
  uint64_t bytes_appended = 0;
  uint64_t recovered_records = 0;  // valid records found by Open
  uint64_t truncated_bytes = 0;    // torn tail dropped by Open
  uint64_t rewinds = 0;            // failed-group rollbacks
  uint64_t resets = 0;             // checkpoint truncations
};

/// Append-only edit log with scan-and-truncate recovery.
class Wal {
 public:
  /// Opens (creating if needed) the log at `options.path` (falling
  /// back to `fallback_path` when that is empty). Scans existing
  /// records, truncating any torn tail; the recovered records await
  /// TakeRecovered(). A file with a corrupt *header* is an error, not
  /// a silent wipe. Fails when the existing log's LSN range has moved
  /// backwards relative to `options.start_lsn` only at replay time
  /// (the engine checks against the store's applied LSN).
  static gmine::Result<std::unique_ptr<Wal>> Open(
      const std::string& fallback_path, const WalOptions& options = {});

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// The records recovered by Open, in LSN order (moved out; empty on
  /// subsequent calls).
  std::vector<WalRecord> TakeRecovered();

  /// Appends one record, assigning it the next LSN (returned). The
  /// record is NOT durable until Sync() succeeds.
  gmine::Result<uint64_t> Append(const graph::GraphEdit& edit,
                                 const std::vector<std::string>& labels);

  /// The group-commit barrier: flushes and (when `durable`) fdatasyncs
  /// everything appended so far.
  Status Sync();

  /// Current end-of-file — capture before a group's appends so a
  /// failed apply can RewindTo it.
  uint64_t MarkOffset() const { return file_size_; }

  /// Rolls the log back to `offset` (a prior MarkOffset) and resets
  /// the next LSN to `next_lsn`: the failed group's records must not
  /// replay on the next open.
  Status RewindTo(uint64_t offset, uint64_t next_lsn);

  /// Checkpoint truncation: every LSN < `next_lsn` is durably recorded
  /// in the store header, so the log restarts empty at `next_lsn`.
  /// The caller is responsible for having synced the store first.
  Status Reset(uint64_t next_lsn);

  /// LSN the next Append will assign.
  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t file_size() const { return file_size_; }
  const WalStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

  // Record framing, exposed for the fuzz round-trip test
  // (tests/wal_fuzz_test.cc).
  static std::string EncodeRecord(const WalRecord& record);
  /// Decodes one record from the front of `input`, advancing it.
  /// Corruption on a bad length, CRC mismatch, or malformed payload.
  static gmine::Result<WalRecord> DecodeRecord(std::string_view* input);

 private:
  Wal() = default;

  /// (Re)creates the file as an empty log starting at `start_lsn`.
  Status WriteFreshHeader(uint64_t start_lsn);
  /// Opens the append handle.
  Status OpenAppendHandle();
  /// After a successful durable sync: honor GMINE_WAL_CRASH_AFTER_SYNCS.
  void MaybeCrashAfterSync();

  util::FileSystem* fs_ = nullptr;
  std::unique_ptr<util::WritableFile> file_;
  std::string path_;
  bool durable_ = true;
  uint64_t next_lsn_ = 1;
  uint64_t file_size_ = 0;
  std::vector<WalRecord> recovered_;
  WalStats stats_;
  /// GMINE_WAL_CRASH_AFTER_SYNCS: _exit(137) after this many successful
  /// Syncs (-1 = disabled). The CI kill-9 smoke uses it to die at a
  /// deterministic barrier.
  int64_t crash_after_syncs_ = -1;
};

}  // namespace gmine::storage

#endif  // GMINE_STORAGE_WAL_H_

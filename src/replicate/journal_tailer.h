// JournalTailer: a read-only cursor over a LIVE, concurrently-appended
// journal.
//
// It drives the journal's one reader (persist::JournalReader, the same one
// recovery's scan_journal runs over a closed file) and differs from the
// scan only in its frontier policy:
//
//   1. Nothing may be written. The tailer never opens the file for
//      write, never truncates, never repairs — a follower that "fixed"
//      the primary's in-flight record would destroy the primary's data.
//
//   2. A torn frontier is TRANSIENT until proven otherwise. On a live file
//      an invalid record is, almost always, one the primary is midway
//      through writing (stdio flushes are not atomic: a group commit's
//      bytes can land in any prefix). The tailer reports kPending and the
//      caller retries with backoff.
//
// Rot proof on a live file: the reader's "intact record beyond" verdict can
// false-positive here — between the failed read and the probe, the primary
// may have completed the suspect record AND appended the next. So a probe
// hit triggers a fresh re-read from the same offset: if the record
// validates now, it simply completed (deliver it); only a second torn
// frontier at the same offset with an intact record beyond is rot, which is
// sound because the appender writes sequentially and never rewrites —
// record N's bytes are all on file before record N+1's first byte.
//
// The reader's refusals (foreign header, stream mismatch, epoch gap) are
// terminal kFailed, as are a vanished or shrunken file — the journal was
// swapped or truncated underneath the cursor.
//
// Durability watermark: durable_epoch() is the last record the tailer
// fully validated. Under the journal's process-kill durability tier a
// complete record IS durable (primary SIGKILL loses only buffered,
// incomplete bytes), so a follower may publish views up to this watermark
// and nothing it published can be lost by a primary crash.
//
// Single-threaded: one tailer, one polling thread; no internal locking.
#pragma once

#include <cstdint>
#include <string>

#include "persist/journal_format.h"

namespace pdmm::replicate {

enum class TailStatus : uint8_t {
  kRecord = 0,   // delivered >= 1 validated records to the sink
  kIdle = 1,     // caught up: the file ends exactly at the cursor
  kPending = 2,  // incomplete bytes at the cursor — retry after a backoff
  kFailed = 3,   // terminal: rot, epoch gap, stream mismatch, bad header
};

const char* to_string(TailStatus s);

class JournalTailer {
 public:
  struct Options {
    // Non-empty: a journal recorded under a different fingerprint fails
    // the poll (kFailed) before a single record is delivered. A journal
    // with no recorded fingerprint is accepted (legacy tolerance).
    std::string expected_stream;
  };

  JournalTailer(std::string path, Options opt);

  JournalTailer(const JournalTailer&) = delete;
  JournalTailer& operator=(const JournalTailer&) = delete;

  // One poll: reads forward from the cursor, delivering every record that
  // validates (in epoch order, exactly once across the tailer's lifetime)
  // until the file runs out. The sink returning false aborts the poll
  // with kFailed; records already delivered stay delivered and the cursor
  // stays past them.
  //
  // kIdle/kPending are both "nothing new yet, ask again later"; they are
  // split so callers can distinguish a quiet primary (idle) from one
  // mid-write (pending) — promotion treats a *stable* pending tail as
  // end-of-stream (the torn record was never durable) but a stable idle
  // tail needs no such grace.
  TailStatus poll(const persist::JournalRecordSink& sink);

  // Last epoch validated and delivered (0: none yet). This is the
  // follower's durable watermark — see the header comment.
  uint64_t durable_epoch() const { return reader_.last_epoch(); }
  // Byte offset just past the last validated record (the cursor).
  uint64_t offset() const { return reader_.offset(); }
  // File size observed by the most recent poll (0 before the first).
  uint64_t file_size() const { return file_size_; }
  // file_size() - offset(): unvalidated bytes at the frontier. A torn
  // in-flight record counts, so nonzero does not mean "records waiting".
  uint64_t bytes_behind() const {
    return file_size_ > offset() ? file_size_ - offset() : 0;
  }
  uint64_t records_delivered() const { return reader_.record_count(); }
  uint64_t polls() const { return poll_count_; }
  // Stream fingerprint from the journal header (empty until the header
  // has been read, or when none was recorded).
  const std::string& stream() const { return reader_.stream(); }
  // Terminal error after a kFailed poll (sticky: every later poll returns
  // kFailed with the same error).
  const std::string& error() const { return error_; }
  const std::string& path() const { return path_; }

 private:
  TailStatus fail(std::string why);

  const std::string path_;
  persist::JournalReader reader_;
  uint64_t file_size_ = 0;
  uint64_t poll_count_ = 0;
  std::string error_;
  bool failed_ = false;
};

}  // namespace pdmm::replicate

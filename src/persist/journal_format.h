// The journal's byte format, written and read in exactly one place.
//
//   pdmm-journal v1
//   stream <fingerprint>            (optional, written at creation)
//   rec <epoch> <nbytes> <crc32>\n<payload of nbytes bytes>
//   rec ...
//
// Header fields are strict decimal; the CRC covers the payload only; the
// payload must parse as exactly one trace-encoded batch; epochs advance by
// exactly 1 from record to record.
//
// JournalReader is the only reader. Recovery's scan of a closed file
// (persist::scan_journal) and the follower's live tailer
// (replicate::JournalTailer) both drive it and differ only in what they do
// with the frontier it reports: a torn frontier is a crash tail to the
// scan and an in-flight append to the tailer. Both therefore agree on
// every input by construction — the follower's convergence proof is "same
// bytes, same parser, same batches", and a follower that accepted a record
// the primary's own recovery would reject (or vice versa) would silently
// fork the lineage. The grammar helpers stay private to the .cpp so a
// second reader cannot be written against them.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <string>

#include "workload/generators.h"

namespace pdmm::persist {

struct JournalRecord {
  uint64_t epoch = 0;
  Batch batch;
};

// Receives each validated record in epoch order; returning false stops the
// read (JournalReader::read reports kFailed).
using JournalRecordSink = std::function<bool(JournalRecord&&)>;

// The header a fresh journal starts with; `stream` empty: no stream line.
std::string journal_header(const std::string& stream);

// One record's bytes (header line + trace-encoded payload) into `out`.
void encode_journal_record(uint64_t epoch, const Batch& b, std::string& out);

class JournalReader {
 public:
  // Where a read() stopped.
  enum class Frontier : uint8_t {
    kEnd,     // clean end: the bytes stop exactly at offset()
    kTorn,    // the bytes at offset() do not validate; see intact_beyond()
    kFailed,  // refused for good: foreign header, stream mismatch, epoch
              // gap or a sink abort; error() names path:line and a remedy
  };

  // `expected_stream` non-empty: a journal recorded under a different
  // fingerprint is refused before any record is delivered. A journal that
  // recorded none is accepted.
  JournalReader(std::string path, std::string expected_stream);

  // Reads forward from offset() in `in` (an open binary stream of the
  // journal), handing every validated record to `sink` (may be empty),
  // until the bytes stop being a valid continuation. Until the header is
  // complete every call parses it again from byte 0; after that a call
  // costs one seek. The reader keeps its position across calls, so a
  // caller may resume it on a fresh stream of the same, grown file.
  //
  // A torn header (an unterminated first line that is a prefix of the
  // magic, or an unterminated second line that is a prefix of a stream
  // line) is kTorn at offset 0: nothing durable precedes it, so a repair
  // rewrites the whole header. A terminated foreign first line is kFailed.
  Frontier read(std::istream& in, const JournalRecordSink& sink);

  // Byte offset just past the last accepted header or record.
  uint64_t offset() const { return offset_; }
  uint64_t last_epoch() const { return last_epoch_; }
  uint64_t record_count() const { return records_; }
  // The header's fingerprint (empty until read, or when none is recorded).
  const std::string& stream() const { return stream_; }
  // After kTorn: whether a CRC-valid record lies beyond the invalid bytes.
  // On a closed file that is mid-file rot; on a live one it may also be a
  // record that completed after it was read.
  bool intact_beyond() const { return intact_beyond_; }
  // After kTorn: what the invalid bytes looked like. After kFailed: the
  // refusal.
  const std::string& error() const { return error_; }
  // The refusal for a torn frontier with an intact record beyond it.
  std::string rot_error() const;

 private:
  Frontier read_header(std::istream& in);
  Frontier torn(std::string why, bool intact_beyond);
  Frontier refuse(const std::string& what, const char* remedy);

  const std::string path_;
  const std::string expected_stream_;
  bool header_done_ = false;
  uint64_t offset_ = 0;
  uint64_t line_ = 1;  // 1-based journal line starting at offset_
  uint64_t last_epoch_ = 0;
  uint64_t records_ = 0;
  std::string stream_;
  bool intact_beyond_ = false;
  std::string error_;
  std::string line_buf_, payload_;  // reused across records
};

}  // namespace pdmm::persist

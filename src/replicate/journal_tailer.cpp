#include "replicate/journal_tailer.h"

#include <fstream>

#include "persist/io_util.h"
#include "persist/journal_format.h"
#include "util/crc32.h"

namespace pdmm::replicate {

namespace {

using persist::RecordHeader;
using persist::detail::read_exact;

// Resync probe, same rule as the owning scan: any CRC-valid record found
// scanning forward from `in`'s position means durable data lies beyond
// the suspect bytes. (Payload batch-parse is skipped — CRC validity alone
// proves the appender wrote past the damage.)
bool intact_record_follows(std::istream& in) {
  std::string line, payload;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    RecordHeader rh;
    if (!persist::parse_record_header(line, rh)) continue;
    const auto pos = in.tellg();
    if (read_exact(in, rh.nbytes, payload) && crc32(payload) == rh.crc) {
      return true;
    }
    in.clear();
    in.seekg(pos);
  }
  return false;
}

// Attempts to read one complete record at `offset` from a FRESH stream of
// `path` (fresh so no stale buffered bytes from an earlier read can mask
// an append that completed in between). Returns true with the record and
// the offset just past it.
bool read_record_fresh(const std::string& path, uint64_t offset,
                       RecordHeader& rh, Batch& batch, uint64_t& end) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(static_cast<std::streamoff>(offset));
  std::string line;
  if (!std::getline(in, line) || in.eof()) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (!persist::parse_record_header(line, rh)) return false;
  std::string payload;
  if (!read_exact(in, rh.nbytes, payload)) return false;
  if (!persist::validate_record_payload(payload, rh, batch, nullptr)) {
    return false;
  }
  end = static_cast<uint64_t>(in.tellg());
  return true;
}

}  // namespace

const char* to_string(TailStatus s) {
  switch (s) {
    case TailStatus::kRecord:
      return "record";
    case TailStatus::kIdle:
      return "idle";
    case TailStatus::kPending:
      return "pending";
    case TailStatus::kFailed:
      return "failed";
  }
  return "?";
}

JournalTailer::JournalTailer(std::string path, Options opt)
    : path_(std::move(path)), opt_(std::move(opt)) {}

TailStatus JournalTailer::fail(std::string why) {
  failed_ = true;
  error_ = std::move(why);
  return TailStatus::kFailed;
}

uint64_t JournalTailer::line_number_at(uint64_t byte_offset) const {
  std::ifstream in(path_, std::ios::binary);
  uint64_t line = 1;
  char c;
  for (uint64_t i = 0; i < byte_offset && in.get(c); ++i) {
    if (c == '\n') ++line;
  }
  return line;
}

TailStatus JournalTailer::poll_header(std::ifstream& in) {
  std::string line;
  if (header_ == HeaderState::kNone) {
    in.seekg(0);
    if (!std::getline(in, line)) return TailStatus::kIdle;  // empty file
    const bool unterminated = in.eof();
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (unterminated) {
      // Could be the primary's in-flight header write — but only if the
      // bytes so far are a prefix of the magic; anything else will never
      // become a valid journal however long we wait.
      if (std::string(persist::kJournalMagic).rfind(line, 0) == 0) {
        return TailStatus::kPending;
      }
      return fail(path_ + ": unrecognized journal header");
    }
    if (line != persist::kJournalMagic) {
      return fail(path_ + ": unrecognized journal header");
    }
    offset_ = static_cast<uint64_t>(in.tellg());
    header_ = HeaderState::kMagicSeen;
  }
  // The optional `stream` line is unresolvable until the NEXT complete
  // line exists: "nothing after the magic yet" may still grow either a
  // stream line or a first record, so the cursor waits here.
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset_));
  if (!std::getline(in, line)) {
    return file_size_ > offset_ ? TailStatus::kPending : TailStatus::kIdle;
  }
  if (in.eof()) return TailStatus::kPending;  // partial line in flight
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.rfind(persist::kJournalStreamPrefix, 0) == 0) {
    stream_ = line.substr(std::string(persist::kJournalStreamPrefix).size());
    offset_ = static_cast<uint64_t>(in.tellg());
  }
  if (!opt_.expected_stream.empty() && !stream_.empty() &&
      stream_ != opt_.expected_stream) {
    return fail(path_ + ": journal was recorded from a different update "
                "stream (journal: \"" + stream_ + "\", this follower: \"" +
                opt_.expected_stream + "\"); refusing to replay it");
  }
  header_ = HeaderState::kDone;
  return TailStatus::kRecord;
}

TailStatus JournalTailer::poll(const persist::JournalRecordSink& sink) {
  ++poll_count_;
  if (failed_) return TailStatus::kFailed;

  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    // Decided from the open alone: a second filesystem call (exists())
    // would race the primary creating the file between the two.
    if (header_ == HeaderState::kNone) {
      file_size_ = 0;
      return TailStatus::kIdle;  // primary has not created it yet
    }
    return fail(path_ + ": journal vanished or became unreadable "
                "mid-tail (" + std::to_string(offset_) + " bytes were "
                "validated); restore the primary's journal or re-bootstrap "
                "this follower");
  }
  in.seekg(0, std::ios::end);
  file_size_ = static_cast<uint64_t>(in.tellg());
  if (file_size_ < offset_) {
    return fail(path_ + ": journal shrank underneath the tail (cursor at "
                "byte " + std::to_string(offset_) + ", file now " +
                std::to_string(file_size_) + " bytes) — the file was "
                "truncated or replaced; this follower's state no longer "
                "matches it");
  }

  if (header_ != HeaderState::kDone) {
    const TailStatus hs = poll_header(in);
    if (hs != TailStatus::kRecord) return hs;
  }

  bool delivered = false;
  const auto settle = [&](TailStatus quiet) {
    return delivered ? TailStatus::kRecord : quiet;
  };
  for (;;) {
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset_));
    std::string line;
    if (!std::getline(in, line)) return settle(TailStatus::kIdle);
    const bool unterminated = in.eof();
    if (!line.empty() && line.back() == '\r') line.pop_back();

    RecordHeader rh;
    Batch batch;
    std::string why;
    uint64_t end = 0;
    bool valid = false;
    // Offset just past the suspect header line, where a resync probe must
    // start (-1-equivalent: none, when the line itself is still partial).
    uint64_t probe_from = 0;
    bool have_probe_from = false;
    if (!unterminated && persist::parse_record_header(line, rh)) {
      probe_from = static_cast<uint64_t>(in.tellg());
      have_probe_from = true;
      std::string payload;
      if (!read_exact(in, rh.nbytes, payload)) {
        why = "record payload truncated";
      } else if (persist::validate_record_payload(payload, rh, batch,
                                                  &why)) {
        valid = true;
        end = static_cast<uint64_t>(in.tellg());
      }
    } else if (unterminated) {
      why = "record header line still unterminated";
    } else {
      why = "malformed record header '" + line + "'";
    }

    if (!valid) {
      // Transient until proven rot: probe beyond the suspect bytes, and
      // on a hit re-read the suspect record fresh — it may simply have
      // completed between our read and the probe (see header comment).
      bool beyond = false;
      if (have_probe_from) {
        in.clear();
        in.seekg(static_cast<std::streamoff>(probe_from));
        beyond = in.good() && intact_record_follows(in);
      }
      if (!beyond) return settle(TailStatus::kPending);
      if (read_record_fresh(path_, offset_, rh, batch, end)) {
        valid = true;  // it completed; fall through and deliver
      } else {
        return fail(path_ + ":" + std::to_string(line_number_at(offset_)) +
                    ": corrupt record at byte " + std::to_string(offset_) +
                    " after epoch " + std::to_string(last_epoch_) + " (" +
                    why + ") with an intact record beyond it — mid-file "
                    "rot, not an in-flight append; a read-only follower "
                    "cannot repair this. Re-copy the journal from the "
                    "primary or re-seed the replica from a fresh "
                    "checkpoint");
      }
    }

    if (rh.epoch == 0 ||
        (records_ != 0 && rh.epoch != last_epoch_ + 1)) {
      return fail(path_ + ": record epochs not contiguous (saw " +
                  std::to_string(rh.epoch) + " after " +
                  std::to_string(last_epoch_) + ") — records are missing "
                  "from the stream; refusing to bridge the gap");
    }
    const uint64_t epoch = rh.epoch;
    if (!sink(persist::JournalRecord{epoch, std::move(batch)})) {
      return fail(path_ + ": record sink aborted the tail at epoch " +
                  std::to_string(epoch));
    }
    offset_ = end;
    last_epoch_ = epoch;
    ++records_;
    delivered = true;
  }
}

}  // namespace pdmm::replicate

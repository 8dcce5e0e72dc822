#include "persist/journal.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/sync_point.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define PDMM_HAVE_FSYNC 1
#endif

namespace pdmm::persist {

JournalScan scan_journal(const std::string& path,
                         const JournalRecordSink& sink,
                         const std::string& expected_stream) {
  JournalScan out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    out.ok = !std::filesystem::exists(path, ec);  // nothing journaled yet
    if (!out.ok) out.error = "cannot open " + path;
    return out;
  }
  JournalReader reader(path, expected_stream);
  const JournalReader::Frontier f = reader.read(in, sink);
  out.stream = reader.stream();
  out.record_count = reader.record_count();
  out.last_epoch = reader.last_epoch();
  out.valid_bytes = reader.offset();
  switch (f) {
    case JournalReader::Frontier::kEnd:
      out.ok = true;
      break;
    case JournalReader::Frontier::kTorn:
      // The file is closed: a torn frontier is a crash tail, unless data
      // lies beyond it.
      if (reader.intact_beyond()) {
        out.error = reader.rot_error();
        break;
      }
      out.ok = true;
      out.truncated_tail = true;
      out.tail_error = reader.error();
      break;
    case JournalReader::Frontier::kFailed:
      out.error = reader.error();
      break;
  }
  return out;
}

std::unique_ptr<Journal> Journal::open(const std::string& path, Options opt,
                                       std::string* error) {
  return open_scanned(path, opt, scan_journal(path), error);
}

std::unique_ptr<Journal> Journal::open_scanned(const std::string& path,
                                               Options opt,
                                               const JournalScan& scan,
                                               std::string* error) {
  if (!scan.ok) {
    if (error) *error = scan.error;
    return nullptr;
  }
  if (opt.stream.find('\n') != std::string::npos) {
    if (error) *error = "journal stream fingerprint must be a single line";
    return nullptr;
  }
  if (!opt.stream.empty() && !scan.stream.empty() &&
      opt.stream != scan.stream) {
    if (error) {
      *error = path + ": journal was recorded from a different update "
               "stream (journal: \"" + scan.stream + "\", this run: \"" +
               opt.stream + "\"); appending would corrupt the lineage";
    }
    return nullptr;
  }
  // A header with no records yet is rewritten too when it lacks this run's
  // fingerprint (a crash right after the magic line): appending to it would
  // leave the journal unfingerprinted for good.
  const bool fresh =
      scan.valid_bytes == 0 ||
      (scan.last_epoch == 0 && scan.stream.empty() && !opt.stream.empty());
  if (scan.truncated_tail && !opt.repair) {
    if (error) {
      *error = path + ": torn tail past byte " +
               std::to_string(scan.valid_bytes) + " (" + scan.tail_error +
               "); appending requires truncating it — re-open with "
               "Options::repair if this process owns the journal (a LIVE "
               "journal's torn tail is the primary's in-flight record; "
               "repairing it would destroy data)";
    }
    return nullptr;
  }
  if (scan.truncated_tail) {
    std::error_code ec;
    std::filesystem::resize_file(path, scan.valid_bytes, ec);
    if (ec) {
      if (error) {
        *error = "cannot truncate torn tail of " + path + ": " +
                 ec.message();
      }
      return nullptr;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), fresh ? "wb" : "ab");
  if (!f) {
    if (error) *error = "cannot open " + path + ": " + std::strerror(errno);
    return nullptr;
  }
  if (fresh) {
    const std::string header = journal_header(opt.stream);
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
        std::fflush(f) != 0) {
      if (error) *error = "cannot write journal header to " + path;
      std::fclose(f);
      return nullptr;
    }
  }
  return std::unique_ptr<Journal>(
      // lint:allow(raw-alloc) private ctor — make_unique can't reach it;
      // ownership transfers to the unique_ptr on the same line.
      new Journal(f, scan.last_epoch, scan.truncated_tail, opt));
}

Journal::~Journal() {
  if (f_) std::fclose(f_);
}

bool Journal::append(uint64_t epoch, const Batch& b, std::string* error) {
  return append_buffered(epoch, b, error) && commit(error);
}

bool Journal::append_buffered(uint64_t epoch, const Batch& b,
                              std::string* error) {
  if (epoch == 0 || (last_epoch_ != 0 && epoch != last_epoch_ + 1)) {
    if (error) {
      *error = "journal epoch " + std::to_string(epoch) +
               " does not follow " + std::to_string(last_epoch_);
    }
    return false;
  }
  encode_journal_record(epoch, b, enc_buf_);
  if (std::fwrite(enc_buf_.data(), 1, enc_buf_.size(), f_) !=
      enc_buf_.size()) {
    if (error) {
      *error = std::string("journal append failed: ") + std::strerror(errno);
    }
    return false;
  }
  last_epoch_ = epoch;
  ++appended_;
  return true;
}

bool Journal::commit(std::string* error) {
  if (committed_epoch_ == last_epoch_) return true;  // nothing buffered
  switch (SyncPoints::fire(kJournalPreFsync, last_epoch_)) {
    case SyncPoints::kProceed:
      break;
    case SyncPoints::kFail:
      // Injected sync failure: the group stays non-durable — the
      // watermark does not move, and the caller sees the same error shape
      // a real fsync() failure produces.
      if (error) *error = "journal fsync failed: injected fault";
      return false;
    case SyncPoints::kCrash:
      // Injected crash: die here without another byte of I/O. The stdio
      // buffer's uncommitted records never reach the file, exactly like a
      // SIGKILL between append and sync.
      if (error) *error = "journal commit aborted: injected crash";
      return false;
  }
  if (std::fflush(f_) != 0) {
    if (error) {
      *error = std::string("journal flush failed: ") + std::strerror(errno);
    }
    return false;
  }
#ifdef PDMM_HAVE_FSYNC
  if (opt_.fsync_each && ::fsync(fileno(f_)) != 0) {
    if (error) {
      *error = std::string("journal fsync failed: ") + std::strerror(errno);
    }
    return false;
  }
#endif
  committed_epoch_ = last_epoch_;
  return true;
}

}  // namespace pdmm::persist

#include "replicate/journal_tailer.h"

#include <fstream>

namespace pdmm::replicate {

using Frontier = persist::JournalReader::Frontier;

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
    : path_(std::move(path)),
      reader_(path_, std::move(opt.expected_stream)) {}

TailStatus JournalTailer::fail(std::string why) {
  failed_ = true;
  error_ = std::move(why);
  return TailStatus::kFailed;
}

TailStatus JournalTailer::poll(const persist::JournalRecordSink& sink) {
  ++poll_count_;
  if (failed_) return TailStatus::kFailed;

  const uint64_t before = reader_.record_count();
  const auto quiet = [&](TailStatus s) {
    return reader_.record_count() != before ? TailStatus::kRecord : s;
  };
  // A torn frontier with an intact record beyond it gets one fresh re-read,
  // which tells a record completed since the first read from rot (see the
  // header comment).
  for (bool rereading = false;; rereading = true) {
    std::ifstream in(path_, std::ios::binary);
    if (!in) {
      // Decided from the open alone: a second filesystem call (exists())
      // would race the primary creating the file between the two.
      if (reader_.offset() == 0) {
        file_size_ = 0;
        return quiet(TailStatus::kIdle);  // primary has not created it yet
      }
      return fail(path_ + ": journal vanished or became unreadable "
                  "mid-tail (" + std::to_string(reader_.offset()) +
                  " bytes were validated); restore the primary's journal "
                  "or re-bootstrap this follower");
    }
    in.seekg(0, std::ios::end);
    file_size_ = static_cast<uint64_t>(in.tellg());
    if (file_size_ < reader_.offset()) {
      return fail(path_ + ": journal shrank underneath the tail (cursor at "
                  "byte " + std::to_string(reader_.offset()) + ", file now " +
                  std::to_string(file_size_) + " bytes) — the file was "
                  "truncated or replaced; this follower's state no longer "
                  "matches it");
    }
    const uint64_t at = reader_.offset();
    switch (reader_.read(in, sink)) {
      case Frontier::kEnd:
        return quiet(TailStatus::kIdle);
      case Frontier::kFailed:
        return fail(reader_.error());
      case Frontier::kTorn:
        if (!reader_.intact_beyond()) return quiet(TailStatus::kPending);
        if (rereading && reader_.offset() == at) {
          return fail(reader_.rot_error());
        }
        break;  // re-read fresh: no stale buffered bytes can mask an append
    }
  }
}

}  // namespace pdmm::replicate

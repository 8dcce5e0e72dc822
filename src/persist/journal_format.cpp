#include "persist/journal_format.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "persist/io_util.h"
#include "util/crc32.h"
#include "util/parse_num.h"
#include "workload/trace.h"

namespace pdmm::persist {

namespace {

using detail::read_exact;

constexpr std::string_view kJournalMagic = "pdmm-journal v1";
constexpr std::string_view kJournalStreamPrefix = "stream ";
constexpr uint64_t kJournalMaxRecordBytes = uint64_t{1} << 32;

struct RecordHeader {
  uint64_t epoch = 0;
  uint64_t nbytes = 0;
  uint32_t crc = 0;
};

// Parses one "rec <epoch> <nbytes> <crc32>" header line. False on any
// grammar violation: wrong tag, wrong field count, non-strict numbers, crc
// out of 32-bit range, or nbytes past the record size bound.
bool parse_record_header(const std::string& line, RecordHeader& out) {
  std::istringstream hs(line);
  std::string tag, epoch_tok, len_tok, crc_tok;
  if (!(hs >> tag >> epoch_tok >> len_tok >> crc_tok) || tag != "rec" ||
      (hs >> std::ws, !hs.eof())) {
    return false;
  }
  uint64_t epoch = 0, len = 0, want_crc = 0;
  if (parse_u64_strict(epoch_tok, epoch) != ParseNum::kOk ||
      parse_u64_strict(len_tok, len) != ParseNum::kOk ||
      parse_u64_strict(crc_tok, want_crc) != ParseNum::kOk ||
      want_crc > UINT32_MAX || len > kJournalMaxRecordBytes) {
    return false;
  }
  out.epoch = epoch;
  out.nbytes = len;
  out.crc = static_cast<uint32_t>(want_crc);
  return true;
}

// Validates a fully-read payload against its header — CRC first (cheap,
// catches rot and tears before the parser sees a byte), then "parses as
// exactly one batch". On success moves the batch into `out`.
bool validate_record_payload(const std::string& payload,
                             const RecordHeader& h, Batch& out,
                             std::string& why) {
  if (crc32(payload) != h.crc) {
    why = "record checksum mismatch";
    return false;
  }
  std::istringstream ps(payload);
  std::vector<Batch> batches;
  std::string perr;
  if (!read_trace(ps, batches, &perr) || batches.size() != 1) {
    why = "record payload does not parse as one batch: " + perr;
    return false;
  }
  out = std::move(batches.front());
  return true;
}

// Reads one line into `line` (trailing '\r' stripped). Returns the bytes
// it spans including the '\n' — 0 at end of input — and whether a '\n'
// actually ended it.
uint64_t read_line(std::istream& in, std::string& line, bool& terminated) {
  if (!std::getline(in, line)) return 0;
  terminated = !in.eof();
  const uint64_t span = line.size() + (terminated ? 1 : 0);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return span;
}

bool is_prefix_of(const std::string& line, std::string_view full) {
  return line.size() <= full.size() && full.substr(0, line.size()) == line;
}

// The one resync probe. After an invalid record, a CRC-valid record found
// scanning forward from `from` (just past the suspect header line) means
// data lies BEYOND the damage: on a closed file that is mid-file rot, not a
// crash tear — a tear is a prefix of the one in-flight record (appends are
// sequential) and record payloads are trace op lines, so a torn payload
// cannot itself spell a CRC-valid "rec" line. Starting at `from` rather than
// wherever the failed read stopped matters: a rotted length field can
// swallow every later record before failing.
bool intact_record_follows(std::istream& in, uint64_t from) {
  in.clear();  // the failed read may have set eof/failbit
  in.seekg(static_cast<std::streamoff>(from));
  std::string line, payload;
  while (in.good() && std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    RecordHeader rh;
    if (!parse_record_header(line, rh)) continue;
    const auto pos = in.tellg();
    if (read_exact(in, rh.nbytes, payload) && crc32(payload) == rh.crc) {
      return true;
    }
    in.clear();
    in.seekg(pos);
  }
  return false;
}

}  // namespace

std::string journal_header(const std::string& stream) {
  std::string out(kJournalMagic);
  out += '\n';
  if (!stream.empty()) {
    out += kJournalStreamPrefix;
    out += stream;
    out += '\n';
  }
  return out;
}

void encode_journal_record(uint64_t epoch, const Batch& b,
                           std::string& out) {
  std::ostringstream payload;
  write_batch(payload, b);
  std::string body = std::move(payload).str();
  out.clear();
  out += "rec ";
  out += std::to_string(epoch);
  out += ' ';
  out += std::to_string(body.size());
  out += ' ';
  out += std::to_string(crc32(body));
  out += '\n';
  out += body;
}

JournalReader::JournalReader(std::string path, std::string expected_stream)
    : path_(std::move(path)), expected_stream_(std::move(expected_stream)) {}

JournalReader::Frontier JournalReader::torn(std::string why,
                                            bool intact_beyond) {
  error_ = std::move(why);
  intact_beyond_ = intact_beyond;
  return Frontier::kTorn;
}

JournalReader::Frontier JournalReader::refuse(const std::string& what,
                                              const char* remedy) {
  error_ = path_ + ":" + std::to_string(line_) + ": " + what + "; " + remedy;
  return Frontier::kFailed;
}

std::string JournalReader::rot_error() const {
  return path_ + ":" + std::to_string(line_) + ": corrupt record at byte " +
         std::to_string(offset_) + " after epoch " +
         std::to_string(last_epoch_) + " (" + error_ +
         ") with an intact record beyond it — mid-file rot, not a torn "
         "tail, and truncating here would destroy durable data; restore "
         "the journal from a good copy (a follower: re-copy it from the "
         "primary) or re-seed from a fresh checkpoint";
}

// Parses the magic and the optional stream line from byte 0. Leaves
// header_done_ false while the header can still change (torn, or only the
// magic on file so far); otherwise `in` is positioned at offset_.
JournalReader::Frontier JournalReader::read_header(std::istream& in) {
  in.clear();
  in.seekg(0);
  offset_ = 0;
  line_ = 1;
  stream_.clear();
  std::string& line = line_buf_;
  bool terminated = false;
  const uint64_t magic_span = read_line(in, line, terminated);
  if (magic_span == 0) return Frontier::kEnd;  // empty file
  if (!terminated && is_prefix_of(line, kJournalMagic)) {
    return torn("journal header torn inside the magic line", false);
  }
  if (!terminated || line != kJournalMagic) {
    return refuse("unrecognized journal header",
                  "this is not a pdmm journal — check the path, or move "
                  "the file aside to start a fresh journal");
  }
  offset_ = magic_span;
  line_ = 2;
  // A stream line cannot be told from a first record until it is complete:
  // with nothing after the magic yet the header is still open.
  const uint64_t next_span = read_line(in, line, terminated);
  if (next_span == 0) return Frontier::kEnd;
  if (!terminated && (is_prefix_of(line, kJournalStreamPrefix) ||
                      line.starts_with(kJournalStreamPrefix))) {
    offset_ = 0;  // a repair rewrites the whole header, fingerprint and all
    line_ = 1;
    return torn("journal stream line torn", false);
  }
  if (terminated && line.starts_with(kJournalStreamPrefix)) {
    stream_ = line.substr(kJournalStreamPrefix.size());
    if (!expected_stream_.empty() && !stream_.empty() &&
        stream_ != expected_stream_) {
      return refuse("journal and caller name different update streams "
                    "(journal: \"" + stream_ + "\", expected: \"" +
                        expected_stream_ + "\")",
                    "refusing to replay it; use the stream flags (and the "
                    "checkpoints) of the run that wrote this journal");
    }
    offset_ += next_span;
    line_ = 3;
  } else {
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset_));
  }
  header_done_ = true;
  return Frontier::kEnd;
}

JournalReader::Frontier JournalReader::read(std::istream& in,
                                            const JournalRecordSink& sink) {
  if (!header_done_) {
    const Frontier f = read_header(in);
    if (!header_done_) return f;
  } else {
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset_));
  }
  std::string& line = line_buf_;
  for (;;) {
    bool terminated = false;
    const uint64_t span = read_line(in, line, terminated);
    if (span == 0) return Frontier::kEnd;
    // Nothing can follow an unterminated line, so there is nothing to probe.
    if (!terminated) return torn("record header line unterminated", false);
    const uint64_t body_at = offset_ + span;
    RecordHeader rh;
    if (!parse_record_header(line, rh)) {
      return torn("malformed record header '" + line + "'",
                  intact_record_follows(in, body_at));
    }
    Batch batch;
    std::string why = "record payload truncated";
    if (!read_exact(in, rh.nbytes, payload_) ||
        !validate_record_payload(payload_, rh, batch, why)) {
      return torn(why + " (epoch " + std::to_string(rh.epoch) + ")",
                  intact_record_follows(in, body_at));
    }
    if (rh.epoch == 0 || (records_ != 0 && rh.epoch != last_epoch_ + 1)) {
      return refuse("record epochs not contiguous (saw " +
                        std::to_string(rh.epoch) + " after " +
                        std::to_string(last_epoch_) + ")",
                    "records are missing from the durable prefix; refusing "
                    "to bridge the gap — restore the journal from a good "
                    "copy");
    }
    if (sink && !sink(JournalRecord{rh.epoch, std::move(batch)})) {
      error_ = path_ + ":" + std::to_string(line_) +
               ": record sink aborted the read at epoch " +
               std::to_string(rh.epoch);
      return Frontier::kFailed;
    }
    offset_ = body_at + rh.nbytes;
    line_ += 1 + static_cast<uint64_t>(
                     std::count(payload_.begin(), payload_.end(), '\n'));
    last_epoch_ = rh.epoch;
    ++records_;
  }
}

}  // namespace pdmm::persist

// Recovery: reconstructs a matcher after a crash or restart from the
// newest valid checkpoint plus the journal tail.
//
// The procedure (see docs/ARCHITECTURE.md "Durability & recovery"):
//   1. select_checkpoint(): load the newest checkpoint whose sections
//      checksum AND whose snapshot passes the validating loader. Damaged
//      checkpoints are skipped, not fatal — an older checkpoint plus a
//      longer journal replay reaches the same state because replay is
//      deterministic.
//   2. Scan the journal; drop the torn tail; verify the durable records
//      connect contiguously to the checkpoint epoch.
//   3. Replay every record with epoch > checkpoint epoch through
//      apply_journal_record(), which verifies the matcher's batch counter
//      tracks the record epochs. Replay streams through the scan itself
//      (scan_journal's sink), so recovery memory stays O(1 record)
//      even for a journal-only restart over a multi-GB log.
//
// The caller constructs the matcher with the Config the crashed process
// used (pdmm_recover reads it from the checkpoint meta; pdmm_serve
// rebuilds it from its own flags) — load() re-verifies rank and seed, so
// a mismatched matcher is an error, never silent divergence.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "persist/journal.h"

namespace pdmm {

class DynamicMatcher;

namespace persist {

struct CheckpointData;

struct RecoveryOptions {
  std::string checkpoint_prefix;  // empty: journal-only (replay from empty)
  std::string journal_path;       // empty: checkpoint-only
  // Fingerprint of the update stream the restarting server will consume
  // (trace hash / generator parameters). Non-empty: a checkpoint or
  // journal recorded under a DIFFERENT fingerprint is a hard error —
  // resuming another stream's state and then applying this stream's
  // batches would diverge silently from the recovered epoch on. Empty: no
  // check against the caller, but checkpoint and journal fingerprints are
  // still required to agree with each other when both are recorded.
  std::string expected_stream;
};

struct RecoveryReport {
  bool ok = false;
  std::string error;
  std::string checkpoint_path;    // empty: started from an empty matcher
  uint64_t checkpoint_epoch = 0;
  uint64_t final_epoch = 0;
  size_t replayed_batches = 0;
  size_t skipped_checkpoints = 0;  // damaged/mismatched ones passed over
  bool journal_tail_truncated = false;
  // Durable-frontier facts from the journal scan, so a caller that wants
  // to keep appending can Journal::open_scanned() without re-reading the
  // whole log (meaningful only when journal_scanned).
  bool journal_scanned = false;
  uint64_t journal_valid_bytes = 0;
  uint64_t journal_last_epoch = 0;
  std::string journal_stream;  // fingerprint from the journal header
};

// ---- The replay primitives --------------------------------------------
// Recovery, follower bootstrap/tail, the update engine's settle stage and
// pdmm_recover --verify_checkpoint all rest on "same Config + same journal
// => same bytes". Each step of that rule lives here once; callers keep
// only their policy (what to do when no checkpoint is usable, whether a
// stray file is an error).

// Outcome of the newest-valid checkpoint walk.
struct CheckpointChoice {
  std::string path;        // accepted checkpoint; empty: none (m is empty)
  uint64_t epoch = 0;
  std::string stream;      // the accepted checkpoint's fingerprint
  size_t skipped = 0;      // damaged or misnamed files passed over
  std::string last_skip;   // why the most recent one was skipped
  std::string error;       // hard stop: stream or Config mismatch
};

// Walks "<prefix>.<epoch>" newest-first and loads into `m` the first
// checkpoint that validates end-to-end (section CRCs, the snapshot
// loader, and the epoch agreeing across filename, meta and snapshot).
// Damaged or misnamed files are skipped. A CRC-valid file recorded from a
// different stream than `expected_stream` (when both are non-empty) or
// under a Config that is not same_lineage() with m's is operator error —
// an older file of the same wrong lineage cannot help, so the walk stops
// with `error` set. On return without `path`, `m` holds no loaded state.
CheckpointChoice select_checkpoint(const std::string& prefix,
                                   DynamicMatcher& m,
                                   const std::string& expected_stream);

// Applies one journaled batch as batch `epoch` of `m`. A batch that
// cannot apply to this state (deleting an absent edge, an endpoint list
// outside m's rank) is refused before update() could abort on it, and the
// matcher must land exactly on `epoch`. False with *error on either (a
// refused batch leaves m untouched). Inserting an edge that is present
// is NOT refused: update() skips it deterministically, and a legitimate
// stream may contain it.
bool apply_journal_record(DynamicMatcher& m, uint64_t epoch,
                          const Batch& batch, std::string* error);

// Byte-compares m's serialized state with the checkpoint's snapshot
// section. False with *error when they differ or m cannot be serialized.
bool compare_to_checkpoint(const DynamicMatcher& m, const CheckpointData& ck,
                           std::string* error);

// Restores `m` (which must be freshly constructed with the original
// Config) to the last durable epoch. On failure the report's error says
// why and the matcher state is unspecified (possibly mid-replay) — a
// caller that wants to retry must construct a fresh matcher.
RecoveryReport recover(DynamicMatcher& m, const RecoveryOptions& opt);

// Opens the journal for append at the frontier a successful recovery
// established, reusing the report's scan facts (no second full read of
// the log). recover() refuses shapes the append could not continue from
// (a checkpoint ahead of a non-empty journal, epoch gaps), so the handle
// this returns always appends contiguously at report.final_epoch + 1.
// Opens with Journal::Options::repair regardless of `opt`: the caller
// recovered from this journal, so it owns the file and a torn tail is
// its own crashed append — the one situation truncation is safe.
std::unique_ptr<Journal> open_journal_after_recovery(
    const std::string& path, Journal::Options opt,
    const RecoveryReport& report, std::string* error);

}  // namespace persist
}  // namespace pdmm

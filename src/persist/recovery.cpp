#include "persist/recovery.h"

#include <sstream>

#include "core/matcher.h"
#include "persist/checkpoint.h"
#include "persist/io_util.h"
#include "persist/journal.h"

namespace pdmm::persist {

using detail::set_error;

CheckpointChoice select_checkpoint(const std::string& prefix,
                                   DynamicMatcher& m,
                                   const std::string& expected_stream) {
  CheckpointChoice c;
  const auto skip = [&](std::string why) {
    ++c.skipped;
    c.last_skip = std::move(why);
  };
  for (const auto& [epoch, path] : list_checkpoints(prefix)) {
    CheckpointData ck;
    std::string err;
    if (!read_checkpoint_file(path, ck, &err)) {
      skip(err);
      continue;
    }
    if (!expected_stream.empty() && !ck.stream().empty() &&
        ck.stream() != expected_stream) {
      c.error = path + ": checkpoint was recorded from a different update "
                "stream (checkpoint: \"" + ck.stream() + "\", expected: \"" +
                expected_stream + "\")";
      return c;
    }
    // Falling back past a wrong-Config checkpoint to a journal-only replay
    // under this Config would "succeed" into a diverged lineage.
    Config ck_cfg;
    if (ck.config(ck_cfg) && !same_lineage(ck_cfg, m.config())) {
      c.error = path + ": checkpoint was written under a different Config "
                "(rank/seed/settle parameters); construct the matcher "
                "with the flags it was written under or the replay will "
                "diverge";
      return c;
    }
    if (ck.epoch() != epoch) {  // renamed/copied under the wrong epoch
      skip(path + ": checkpoint epoch disagrees with its filename");
      continue;
    }
    std::istringstream snap(ck.snapshot);
    if (SnapshotError serr = m.load(snap); !serr.ok()) {
      skip(path + ": " + serr.to_string());
      continue;
    }
    if (m.batch_epoch() != ck.epoch()) {
      // Meta and snapshot disagree: discard the state already loaded, or
      // a caller's fallback would replay the journal on top of it.
      m.reset_to_empty();
      skip(path + ": checkpoint epoch disagrees with its snapshot");
      continue;
    }
    c.path = path;
    c.epoch = epoch;
    c.stream = ck.stream();
    return c;
  }
  return c;
}

bool apply_journal_record(DynamicMatcher& m, uint64_t epoch,
                          const Batch& batch, std::string* error) {
  const size_t rank = m.config().max_rank;
  for (const auto& eps : batch.deletions) {
    // Bound the rank before find_edge — the registry lookup itself
    // asserts on an over-rank endpoint list.
    if (eps.empty() || eps.size() > rank || m.find_edge(eps) == kNoEdge) {
      return set_error(error, "batch " + std::to_string(epoch) +
                                  " deletes an edge this state does not "
                                  "contain (the update stream does not "
                                  "match this state's lineage)");
    }
  }
  for (const auto& eps : batch.insertions) {
    if (eps.empty() || eps.size() > rank) {
      return set_error(error, "batch " + std::to_string(epoch) +
                                  " inserts an edge outside this matcher's "
                                  "rank " + std::to_string(rank));
    }
  }
  m.update_by_endpoints(batch.deletions, batch.insertions);
  if (m.batch_epoch() != epoch) {
    return set_error(error, "replay diverged: matcher reached epoch " +
                                std::to_string(m.batch_epoch()) +
                                " applying batch " + std::to_string(epoch));
  }
  return true;
}

bool compare_to_checkpoint(const DynamicMatcher& m, const CheckpointData& ck,
                           std::string* error) {
  std::ostringstream os;
  if (!m.save(os)) {
    return set_error(error, "cannot serialize the state for the byte "
                            "compare");
  }
  if (os.str() != ck.snapshot) {
    return set_error(error, "DIVERGENCE: state at epoch " +
                                std::to_string(m.batch_epoch()) +
                                " is not byte-identical to the "
                                "checkpoint's snapshot");
  }
  return true;
}

RecoveryReport recover(DynamicMatcher& m, const RecoveryOptions& opt) {
  RecoveryReport rep;
  if (opt.checkpoint_prefix.empty() && opt.journal_path.empty()) {
    rep.error = "nothing to recover from (no checkpoint prefix, no journal)";
    return rep;
  }

  // 1. Newest checkpoint that validates end-to-end.
  CheckpointChoice ck;
  if (!opt.checkpoint_prefix.empty()) {
    ck = select_checkpoint(opt.checkpoint_prefix, m, opt.expected_stream);
    rep.checkpoint_path = ck.path;
    rep.checkpoint_epoch = ck.epoch;
    rep.skipped_checkpoints = ck.skipped;
    if (!ck.error.empty()) {
      rep.error = ck.error;
      return rep;
    }
    if (ck.path.empty() && opt.journal_path.empty()) {
      rep.error = ck.skipped ? "no valid checkpoint (" + ck.last_skip + ")"
                             : "no checkpoint files found under prefix " +
                                   opt.checkpoint_prefix;
      return rep;
    }
  }

  // 2. + 3. Journal tail replay, streamed: every durable record is
  // validated and applied DURING the scan (scan_journal's sink), so
  // recovery memory is O(1 record) regardless of log length — including
  // journal-only recovery, which replays the whole history. The price is
  // that a journal invalid beyond the tail (mid-file rot, epoch gap)
  // fails recovery with the matcher already mid-replay; the contract
  // already leaves the matcher unspecified on failure, and a caller that
  // retries must construct a fresh one.
  if (!opt.journal_path.empty()) {
    const uint64_t base = rep.checkpoint_epoch;
    bool seen_first = false;
    std::string sink_error;
    const JournalRecordSink sink = [&](JournalRecord&& rec) {
      if (!seen_first) {
        seen_first = true;
        // Contiguity with the checkpoint: the journal's first record must
        // not start past base + 1, or batches between checkpoint and
        // journal have been lost.
        if (rec.epoch > base + 1) {
          sink_error = "journal starts at epoch " +
                       std::to_string(rec.epoch) +
                       " but the checkpoint only reaches " +
                       std::to_string(base) + " (records lost)";
          return false;
        }
      }
      if (rec.epoch <= base) return true;  // already inside the checkpoint
      if (!apply_journal_record(m, rec.epoch, rec.batch, &sink_error)) {
        return false;
      }
      ++rep.replayed_batches;
      return true;
    };
    // The fingerprint check runs on the header, BEFORE a single record is
    // replayed: a wrong-stream journal is refused with the recovered
    // checkpoint state untouched. The expectation is the caller's stream,
    // else the checkpoint's (select_checkpoint already refused a checkpoint
    // whose stream disagrees with the caller's).
    const JournalScan scan = scan_journal(
        opt.journal_path, sink,
        opt.expected_stream.empty() ? ck.stream : opt.expected_stream);
    if (!scan.ok) {
      rep.error = sink_error.empty() ? scan.error : sink_error;
      return rep;
    }
    rep.journal_tail_truncated = scan.truncated_tail;
    rep.journal_scanned = true;
    rep.journal_valid_bytes = scan.valid_bytes;
    rep.journal_last_epoch = scan.last_epoch;
    rep.journal_stream = scan.stream;
    if (rep.checkpoint_path.empty() && rep.skipped_checkpoints > 0 &&
        scan.record_count == 0) {
      // Every checkpoint is damaged and the journal holds nothing: an
      // empty matcher is NOT the durable state, it is data loss.
      rep.error = "all checkpoints damaged (" + ck.last_skip +
                  ") and the journal holds no records to rebuild from";
      return rep;
    }
    if (scan.record_count != 0) {
      if (scan.last_epoch < base) {
        // A checkpoint is written only after its covering journal record
        // flushed, so within the process-kill durability model the
        // journal always reaches at least the checkpoint epoch. A
        // checkpoint AHEAD of a non-empty journal therefore means either
        // an OS crash beyond the flush-only tier or, worse, a stale
        // checkpoint series next to a newer run's journal — silently
        // preferring the checkpoint would discard the journal's durable
        // batches. Refuse and let the operator pick a side.
        rep.error = "journal ends at epoch " +
                    std::to_string(scan.last_epoch) +
                    " but the checkpoint claims epoch " +
                    std::to_string(base) +
                    "; not the same run's lineage (a process kill cannot "
                    "produce this). Delete the stale checkpoints to keep "
                    "the journal's state, or delete the journal to accept "
                    "the checkpoint's";
        return rep;
      }
      // When last_epoch < base no record had epoch > base (contiguity),
      // so the streamed sink applied nothing and the checkpoint state is
      // still intact when the error above fires.
    }
    // Journal-only recovery of an empty/fresh journal is fine: an empty
    // matcher at epoch 0 is the correct durable state.
  }

  rep.final_epoch = m.batch_epoch();
  rep.ok = true;
  return rep;
}

std::unique_ptr<Journal> open_journal_after_recovery(
    const std::string& path, Journal::Options opt,
    const RecoveryReport& report, std::string* error) {
  // The caller just recovered from this journal, so it IS the owner and
  // any torn tail is its own crashed append (recover() already refused
  // mid-file rot); grant the truncate permission on its behalf.
  opt.repair = true;
  if (report.journal_scanned) {
    // Recovery already validated the whole log; reuse its durable
    // frontier instead of paying a second full scan. recover() has
    // already refused every journal/checkpoint shape whose append would
    // not continue contiguously from the recovered epoch.
    JournalScan scan;
    scan.ok = true;
    scan.valid_bytes = report.journal_valid_bytes;
    scan.last_epoch = report.journal_last_epoch;
    scan.truncated_tail = report.journal_tail_truncated;
    scan.stream = report.journal_stream;
    return Journal::open_scanned(path, opt, scan, error);
  }
  return Journal::open(path, opt, error);
}

}  // namespace pdmm::persist

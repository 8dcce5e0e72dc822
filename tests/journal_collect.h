// Test sink that collects every journal record a reader delivers — for
// persist::scan_journal and replicate::JournalTailer alike.
#pragma once

#include <cstdint>
#include <vector>

#include "persist/journal_format.h"

namespace pdmm::testing_util {

struct Collect {
  std::vector<persist::JournalRecord> recs;
  persist::JournalRecordSink sink() {
    return [this](persist::JournalRecord&& r) {
      recs.push_back(std::move(r));
      return true;
    };
  }
  std::vector<uint64_t> epochs() const {
    std::vector<uint64_t> out;
    for (const auto& r : recs) out.push_back(r.epoch);
    return out;
  }
};

}  // namespace pdmm::testing_util

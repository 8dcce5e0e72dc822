// Internal I/O helpers shared by the persistence readers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <string>
#include <utility>

namespace pdmm::persist::detail {

// Stores `msg` into the optional out-parameter; returns false so error
// paths read `return set_error(error, "...")`.
inline bool set_error(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

// Reads exactly n bytes into `out`, growing the buffer chunkwise so a
// corrupted length field fails on the actual end of file instead of
// forcing one giant up-front allocation.
inline bool read_exact(std::istream& in, uint64_t n, std::string& out) {
  out.clear();
  constexpr size_t kChunk = 1 << 20;
  while (out.size() < n) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(kChunk, n - out.size()));
    const size_t old = out.size();
    out.resize(old + want);
    in.read(out.data() + old, static_cast<std::streamsize>(want));
    if (static_cast<size_t>(in.gcount()) != want) return false;
  }
  return true;
}

}  // namespace pdmm::persist::detail

#pragma once
// The substring count FlashRanker's BM25 tf was computed with before its
// one-pass scan: repeated find() from the end of the previous match. The
// oracle of util::NeedleCounter and of the rerankers' reference copies.

#include <cstddef>
#include <string_view>

namespace pkb::oracle {

/// Non-overlapping occurrences of `needle` in `s` (0 for an empty needle).
inline std::size_t count_occurrences(std::string_view s,
                                     std::string_view needle) {
  if (needle.empty()) return 0;
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = s.find(needle, pos)) != std::string_view::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

}  // namespace pkb::oracle

#pragma once
// Counting many substrings in one pass over a text.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace pkb::util {

/// A fixed set of needles, each counted in one pass over a text. scan()
/// gives every needle the count that repeated find() from the end of its
/// previous match gives: greedy, leftmost, non-overlapping ("aa" occurs
/// twice in "aaaaa"). Needles may repeat (the copies share one count) or be
/// empty (count 0).
///
/// The matcher is an Aho–Corasick automaton made into a DFA over a
/// compacted alphabet: one class per distinct needle byte plus one class
/// for every other byte, so the table has (states) x (classes + 2) entries.
/// Building it costs about as much as scanning a few KB, so build one per
/// needle set and scan every text with it. scan() overwrites the counts:
/// one counter per thread.
class NeedleCounter {
 public:
  /// Builds the automaton; the needles' bytes are not kept. Throws
  /// std::length_error when the table would not fit 31-bit offsets.
  explicit NeedleCounter(const std::vector<std::string_view>& needles);

  /// Counts every needle in `text`, replacing the previous scan's counts.
  void scan(std::string_view text);

  /// needles[i]'s count in the last scanned text (0 before any scan).
  [[nodiscard]] std::size_t count(std::size_t i) const {
    return slots_[slot_of_needle_[i]].count;
  }

 private:
  /// The count of one distinct needle.
  struct Slot {
    std::size_t size = 0;   ///< needle length (0 for the empty needle)
    std::size_t count = 0;  ///< occurrences counted so far
    std::size_t free = 0;   ///< end of the last counted occurrence
  };

  void report(std::uint32_t row, std::size_t end);

  /// Byte -> class; class 0 holds every byte that is in no needle.
  std::array<std::uint16_t, 256> class_of_{};
  std::uint32_t classes_ = 1;
  /// One row per state, `classes_ + 2` entries, state s at row offset
  /// s * (classes_ + 2). Entries [0, classes_) are the DFA transitions: the
  /// next state's row offset, or'ed with kReports when that state ends a
  /// needle (itself or by a suffix). Entry classes_ is 1 + the slot of the
  /// needle the state spells (0: none); entry classes_ + 1 is the row of
  /// the longest proper suffix state that spells a needle (0: none).
  std::vector<std::uint32_t> table_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> slot_of_needle_;
};

}  // namespace pkb::util

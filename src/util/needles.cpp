#include "util/needles.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pkb::util {

namespace {
constexpr std::uint32_t kReports = 0x80000000u;  // the next state reports
constexpr std::uint32_t kRow = 0x7fffffffu;      // the next state's row
}  // namespace

NeedleCounter::NeedleCounter(const std::vector<std::string_view>& needles) {
  std::size_t bytes = 0;
  for (const std::string_view n : needles) {
    bytes += n.size();
    for (const char ch : n) {
      std::uint16_t& c = class_of_[static_cast<unsigned char>(ch)];
      if (c == 0) c = static_cast<std::uint16_t>(classes_++);
    }
  }
  const std::uint32_t width = classes_ + 2;
  const std::uint32_t slot_col = classes_;
  const std::uint32_t suffix_col = classes_ + 1;
  if ((bytes + 1) * width > kRow) {
    throw std::length_error("NeedleCounter: needle set too large");
  }

  // The trie: state s is row s * width, a zero transition means "no child
  // yet". Each state also keeps its children as a list, because the
  // breadth-first pass below overwrites the rows.
  struct Node {
    std::uint32_t first_child = 0;  // 0: none (the root is no one's child)
    std::uint32_t sibling = 0;
    std::uint32_t cls = 0;  // class of the edge from the parent
  };
  std::vector<Node> nodes(1);
  nodes.reserve(bytes + 1);
  table_.reserve((bytes + 1) * width);
  table_.assign(width, 0);
  slot_of_needle_.reserve(needles.size());
  for (const std::string_view n : needles) {
    // An empty needle spells the root, which no transition reports.
    std::uint32_t state = 0;
    for (const char ch : n) {
      const std::uint32_t c = class_of_[static_cast<unsigned char>(ch)];
      std::uint32_t next = table_[state * width + c];
      if (next == 0) {
        next = static_cast<std::uint32_t>(nodes.size());
        table_[state * width + c] = next;
        nodes.push_back({0, nodes[state].first_child, c});
        nodes[state].first_child = next;
        table_.resize(table_.size() + width);
      }
      state = next;
    }
    std::uint32_t& slot = table_[state * width + slot_col];
    if (slot == 0) {
      slots_.push_back({n.size(), 0, 0});
      slot = static_cast<std::uint32_t>(slots_.size());
    }
    slot_of_needle_.push_back(slot - 1);
  }

  // Breadth first, so a state's failure state (a proper suffix, so
  // shallower) has its full row when the state is reached. The state's row
  // starts as a copy of the failure state's; each child's failure state is
  // where that copy goes on the child's class, and then the child's own
  // edge replaces it. Transitions hold row offsets from here on.
  // (state, row of its failure state), in breadth-first order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> queue;
  queue.reserve(nodes.size());
  queue.emplace_back(0, 0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [state, fail] = queue[head];
    std::uint32_t* row = table_.data() + std::size_t{state} * width;
    if (state != 0) std::copy_n(table_.data() + fail, classes_, row);
    for (std::uint32_t child = nodes[state].first_child; child != 0;
         child = nodes[child].sibling) {
      const std::uint32_t c = nodes[child].cls;
      const std::uint32_t child_row = child * width;
      const std::uint32_t child_fail = state == 0 ? 0 : row[c] & kRow;
      const std::uint32_t suffix = table_[child_fail + slot_col] != 0
                                       ? child_fail
                                       : table_[child_fail + suffix_col];
      table_[child_row + suffix_col] = suffix;
      const bool reports = table_[child_row + slot_col] != 0 || suffix != 0;
      row[c] = child_row | (reports ? kReports : 0);
      queue.emplace_back(child, child_fail);
    }
  }
}

inline void NeedleCounter::report(std::uint32_t row, std::size_t end) {
  for (; row != 0; row = table_[row + classes_ + 1]) {
    const std::uint32_t slot = table_[row + classes_];
    if (slot == 0) continue;
    Slot& s = slots_[slot - 1];
    if (end - s.size >= s.free) {
      ++s.count;
      s.free = end;
    }
  }
}

void NeedleCounter::scan(std::string_view text) {
  for (Slot& s : slots_) {
    s.count = 0;
    s.free = 0;
  }
  const std::uint32_t* table = table_.data();
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    next = table[(next & kRow) +
                 class_of_[static_cast<unsigned char>(text[i])]];
    if (next & kReports) report(next & kRow, i + 1);
  }
}

}  // namespace pkb::util

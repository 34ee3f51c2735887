#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>

namespace pkb::util {

namespace {
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
constexpr char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
constexpr char ascii_upper(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}
}  // namespace

std::string_view trim_left(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  return s.substr(i);
}

std::string_view trim_right(std::string_view s) {
  std::size_t n = s.size();
  while (n > 0 && is_space(s[n - 1])) --n;
  return s.substr(0, n);
}

std::string_view trim(std::string_view s) { return trim_right(trim_left(s)); }

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split(std::string_view s, std::string_view sep) {
  std::vector<std::string_view> out;
  if (sep.empty()) {
    out.push_back(s);
    return out;
  }
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + sep.size();
  }
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

namespace {
constexpr std::uint64_t kEachByte = 0x0101010101010101ULL;
constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;
constexpr std::uint64_t kLowBits = 0x7f7f7f7f7f7f7f7fULL;

/// Bytes p[0..8) with p[k] in bits [8k, 8k + 8), whatever the host's byte
/// order (compilers emit one load for this on little-endian hosts).
std::uint64_t load_bytes(const char* p) {
  const auto b = [p](int k) {
    return std::uint64_t{static_cast<unsigned char>(p[k])} << (8 * k);
  };
  return b(0) | b(1) | b(2) | b(3) | b(4) | b(5) | b(6) | b(7);
}

/// Bit 7 of each byte of `w` set when that byte is_space, all else clear.
/// Every sum stays below 0x100 inside its byte, so no carry crosses bytes.
std::uint64_t space_bytes(std::uint64_t w) {
  const std::uint64_t low = w & kLowBits;
  const std::uint64_t x = w ^ (kEachByte * ' ');
  const std::uint64_t blank = ~(((x & kLowBits) + kLowBits) | x);
  const std::uint64_t from_tab = low + kEachByte * (0x80 - '\t');
  const std::uint64_t past_cr = low + kEachByte * (0x80 - '\r' - 1);
  return (blank | (from_tab & ~past_cr & ~w)) & kHighBits;
}
}  // namespace

std::size_t count_words(std::string_view s) {
  // A word starts at each non-space byte whose previous byte is a space (or
  // that starts the text): eight bytes at a time, then the tail bytewise.
  std::size_t words = 0;
  std::size_t i = 0;
  std::uint64_t space_before = 0x80;  // bit 7: the byte before is a space
  for (; i + 8 <= s.size(); i += 8) {
    const std::uint64_t space = space_bytes(load_bytes(s.data() + i));
    const std::uint64_t starts = ~space & ((space << 8) | space_before);
    words += (((starts & kHighBits) >> 7) * kEachByte) >> 56;
    space_before = space >> 56;
  }
  bool in_word = space_before == 0;
  for (; i < s.size(); ++i) {
    const bool word_char = !is_space(s[i]);
    if (word_char && !in_word) ++words;
    in_word = word_char;
  }
  return words;
}

std::vector<std::string_view> split_lines(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') {
      std::size_t end = i;
      if (end > start && s[end - 1] == '\r') --end;
      out.push_back(s.substr(start, end - start));
      start = i + 1;
    }
  }
  if (start < s.size()) {
    std::string_view last = s.substr(start);
    if (!last.empty() && last.back() == '\r') last.remove_suffix(1);
    out.push_back(last);
  }
  return out;
}

namespace {
template <typename Range>
std::string join_impl(const Range& parts, std::string_view sep) {
  std::string out;
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size() + sep.size();
  out.reserve(total);
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    out.append(p);
    first = false;
  }
  return out;
}
}  // namespace

std::string join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  return join_impl(parts, sep);
}
std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), ascii_lower);
  return out;
}

void append_lower(std::string& out, std::string_view s) {
  const std::size_t start = out.size();
  out.append(s);
  std::transform(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
                 out.begin() + static_cast<std::ptrdiff_t>(start), ascii_lower);
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), ascii_upper);
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

bool icontains(std::string_view s, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > s.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= s.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (ascii_lower(s[i + j]) != ascii_lower(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<std::size_t> prev(a.size() + 1);
  std::vector<std::size_t> cur(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      std::size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

std::string repeat(std::string_view s, std::size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (std::size_t i = 0; i < n; ++i) out.append(s);
  return out;
}

std::string ellipsize(std::string_view s, std::size_t max_len) {
  if (s.size() <= max_len) return std::string(s);
  if (max_len <= 3) return std::string(s.substr(0, max_len));
  return std::string(s.substr(0, max_len - 3)) + "...";
}

std::string format_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace pkb::util

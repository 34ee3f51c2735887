#pragma once
// String utilities shared by every module.
//
// All functions are pure and allocation-conscious: views in, owned strings out
// only where ownership is required.

#include <string>
#include <string_view>
#include <vector>

namespace pkb::util {

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Remove leading ASCII whitespace.
[[nodiscard]] std::string_view trim_left(std::string_view s);

/// Remove trailing ASCII whitespace.
[[nodiscard]] std::string_view trim_right(std::string_view s);

/// Split `s` on the single character `sep`. Empty fields are kept, so
/// `split("a,,b", ',')` yields {"a", "", "b"}.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Split `s` on the multi-character separator `sep` (must be non-empty).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  std::string_view sep);

/// Split into non-empty whitespace-delimited fields.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// split_ws(s).size(), counted in place.
[[nodiscard]] std::size_t count_words(std::string_view s);

/// Split into lines; the trailing newline does not produce an empty line,
/// but interior blank lines are preserved.
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view s);

/// Join `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string_view>& parts,
                               std::string_view sep);
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// ASCII lowercase copy.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Append to_lower(s) to `out`.
void append_lower(std::string& out, std::string_view s);

/// ASCII uppercase copy.
[[nodiscard]] std::string to_upper(std::string_view s);

/// True if `s` starts with the given prefix.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Replace every occurrence of `from` (non-empty) with `to`.
[[nodiscard]] std::string replace_all(std::string_view s, std::string_view from,
                                      std::string_view to);

/// Case-insensitive containment test (ASCII).
[[nodiscard]] bool icontains(std::string_view s, std::string_view needle);

/// Levenshtein edit distance; O(|a|*|b|) with O(min) memory. Used for fuzzy
/// API-symbol matching ("KSPGmres" -> "KSPGMRES").
[[nodiscard]] std::size_t edit_distance(std::string_view a, std::string_view b);

/// Repeat `s` `n` times.
[[nodiscard]] std::string repeat(std::string_view s, std::size_t n);

/// Truncate to at most `max_len` bytes, appending "..." when truncated.
/// `max_len` counts the ellipsis, so the result never exceeds `max_len`.
[[nodiscard]] std::string ellipsize(std::string_view s, std::size_t max_len);

/// Format a double with `digits` places after the decimal point.
[[nodiscard]] std::string format_double(double v, int digits);

/// True if `c` is an identifier character [A-Za-z0-9_].
[[nodiscard]] constexpr bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

}  // namespace pkb::util

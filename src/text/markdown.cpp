#include "text/markdown.h"

#include <cctype>

#include "util/strings.h"

namespace pkb::text {

using pkb::util::split;
using pkb::util::split_lines;
using pkb::util::starts_with;
using pkb::util::trim;

namespace {

int heading_level(std::string_view line) {
  std::size_t n = 0;
  while (n < line.size() && line[n] == '#') ++n;
  if (n == 0 || n > 6) return 0;
  if (n < line.size() && line[n] != ' ') return 0;
  return static_cast<int>(n);
}

bool is_hr(std::string_view line) {
  const std::string_view t = trim(line);
  if (t.size() < 3) return false;
  const char c = t[0];
  if (c != '-' && c != '*' && c != '_') return false;
  for (char ch : t) {
    if (ch != c && ch != ' ') return false;
  }
  return true;
}

bool is_bullet_item(std::string_view line, std::string_view* content) {
  const std::string_view t = util::trim_left(line);
  if (t.size() >= 2 && (t[0] == '-' || t[0] == '*' || t[0] == '+') &&
      t[1] == ' ') {
    // Avoid treating a horizontal rule as a bullet.
    if (is_hr(line)) return false;
    if (content != nullptr) *content = trim(t.substr(2));
    return true;
  }
  return false;
}

bool is_ordered_item(std::string_view line, std::string_view* content) {
  const std::string_view t = util::trim_left(line);
  std::size_t i = 0;
  while (i < t.size() && std::isdigit(static_cast<unsigned char>(t[i]))) ++i;
  if (i == 0 || i + 1 >= t.size()) return false;
  if (t[i] != '.' && t[i] != ')') return false;
  if (t[i + 1] != ' ') return false;
  if (content != nullptr) *content = trim(t.substr(i + 2));
  return true;
}

bool is_table_row(std::string_view line) {
  const std::string_view t = trim(line);
  return t.size() >= 2 && t.front() == '|' && t.back() == '|';
}

bool is_table_separator(std::string_view line) {
  if (!is_table_row(line)) return false;
  for (char c : trim(line)) {
    if (c != '|' && c != '-' && c != ':' && c != ' ') return false;
  }
  return true;
}

std::vector<std::string> parse_table_cells(std::string_view line) {
  std::string_view t = trim(line);
  t.remove_prefix(1);  // leading '|'
  t.remove_suffix(1);  // trailing '|'
  std::vector<std::string> cells;
  for (std::string_view cell : split(t, '|')) {
    cells.emplace_back(trim(cell));
  }
  return cells;
}

}  // namespace

std::string strip_inline(std::string_view line) {
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == '`') {
      // code span: copy content verbatim up to the closing backtick
      std::size_t close = line.find('`', i + 1);
      if (close == std::string_view::npos) {
        out += c;
        ++i;
        continue;
      }
      out.append(line.substr(i + 1, close - i - 1));
      i = close + 1;
      continue;
    }
    if (c == '[') {
      // [text](url) -> text
      const std::size_t close_bracket = line.find(']', i + 1);
      if (close_bracket != std::string_view::npos &&
          close_bracket + 1 < line.size() && line[close_bracket + 1] == '(') {
        const std::size_t close_paren = line.find(')', close_bracket + 2);
        if (close_paren != std::string_view::npos) {
          out.append(
              strip_inline(line.substr(i + 1, close_bracket - i - 1)));
          i = close_paren + 1;
          continue;
        }
      }
      out += c;
      ++i;
      continue;
    }
    if (c == '*' || c == '_') {
      // emphasis marker: drop (conservative — underscores inside identifiers
      // are preceded/followed by identifier chars and are kept)
      const bool prev_ident =
          i > 0 && pkb::util::is_ident_char(line[i - 1]);
      const bool next_ident =
          i + 1 < line.size() && pkb::util::is_ident_char(line[i + 1]);
      if (c == '_' && prev_ident && next_ident) {
        out += c;
        ++i;
        continue;
      }
      if (c == '_' && (prev_ident || next_ident) &&
          !(prev_ident && next_ident)) {
        // leading/trailing underscore of an identifier-ish token: treat as
        // emphasis only if doubled
        if (i + 1 < line.size() && line[i + 1] == '_') {
          i += 2;
          continue;
        }
        if (!prev_ident && next_ident) {
          ++i;  // opening emphasis before a word
          continue;
        }
        out += c;
        ++i;
        continue;
      }
      ++i;
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

std::vector<MdBlock> parse_markdown(std::string_view md) {
  std::vector<MdBlock> blocks;
  const auto lines = split_lines(md);
  std::size_t i = 0;

  while (i < lines.size()) {
    std::string_view line = lines[i];
    const std::string_view trimmed = trim(line);

    if (trimmed.empty()) {
      ++i;
      continue;
    }

    // Fenced code block.
    if (starts_with(trimmed, "```")) {
      MdBlock block;
      block.type = MdBlock::Type::CodeFence;
      block.language = std::string(trim(trimmed.substr(3)));
      ++i;
      std::string body;
      while (i < lines.size() && !starts_with(trim(lines[i]), "```")) {
        body.append(lines[i]);
        body += '\n';
        ++i;
      }
      if (i < lines.size()) ++i;  // closing fence
      if (!body.empty() && body.back() == '\n') body.pop_back();
      block.text = std::move(body);
      blocks.push_back(std::move(block));
      continue;
    }

    // Heading.
    if (const int level = heading_level(trimmed); level > 0) {
      MdBlock block;
      block.type = MdBlock::Type::Heading;
      block.text = std::string(
          trim(trimmed.substr(static_cast<std::size_t>(level))));
      blocks.push_back(std::move(block));
      ++i;
      continue;
    }

    // Horizontal rule.
    if (is_hr(trimmed)) {
      MdBlock block;
      block.type = MdBlock::Type::HorizontalRule;
      blocks.push_back(std::move(block));
      ++i;
      continue;
    }

    // Block quote.
    if (starts_with(trimmed, ">")) {
      MdBlock block;
      block.type = MdBlock::Type::BlockQuote;
      std::string body;
      while (i < lines.size() && starts_with(trim(lines[i]), ">")) {
        std::string_view q = trim(lines[i]);
        q.remove_prefix(1);
        if (!q.empty() && q.front() == ' ') q.remove_prefix(1);
        if (!body.empty()) body += '\n';
        body.append(q);
        ++i;
      }
      block.text = std::move(body);
      blocks.push_back(std::move(block));
      continue;
    }

    // Table.
    if (is_table_row(trimmed) && i + 1 < lines.size() &&
        is_table_separator(lines[i + 1])) {
      MdBlock block;
      block.type = MdBlock::Type::Table;
      block.rows.push_back(parse_table_cells(lines[i]));
      i += 2;  // skip separator
      while (i < lines.size() && is_table_row(trim(lines[i]))) {
        block.rows.push_back(parse_table_cells(lines[i]));
        ++i;
      }
      blocks.push_back(std::move(block));
      continue;
    }

    // List (bulleted or ordered).
    std::string_view item_content;
    const bool bullet = is_bullet_item(line, &item_content);
    const bool ordered = !bullet && is_ordered_item(line, &item_content);
    if (bullet || ordered) {
      MdBlock block;
      block.type = MdBlock::Type::List;
      while (i < lines.size()) {
        std::string_view content;
        const bool matches = ordered ? is_ordered_item(lines[i], &content)
                                     : is_bullet_item(lines[i], &content);
        if (!matches) {
          // Continuation line: indented non-blank text appends to the last
          // item.
          const std::string_view t = trim(lines[i]);
          if (!t.empty() && (lines[i].starts_with("  ")) &&
              !block.items.empty() && heading_level(t) == 0 &&
              !is_bullet_item(lines[i], nullptr) &&
              !is_ordered_item(lines[i], nullptr)) {
            block.items.back() += ' ';
            block.items.back().append(t);
            ++i;
            continue;
          }
          break;
        }
        block.items.emplace_back(content);
        ++i;
      }
      blocks.push_back(std::move(block));
      continue;
    }

    // Paragraph: contiguous non-blank, non-special lines.
    {
      MdBlock block;
      block.type = MdBlock::Type::Paragraph;
      std::string body;
      while (i < lines.size()) {
        const std::string_view t = trim(lines[i]);
        if (t.empty() || heading_level(t) > 0 || starts_with(t, "```") ||
            starts_with(t, ">") || is_hr(t) ||
            is_bullet_item(lines[i], nullptr) ||
            is_ordered_item(lines[i], nullptr) ||
            (is_table_row(t) && i + 1 < lines.size() &&
             is_table_separator(lines[i + 1]))) {
          break;
        }
        if (!body.empty()) body += ' ';
        body.append(t);
        ++i;
      }
      block.text = std::move(body);
      blocks.push_back(std::move(block));
      continue;
    }
  }
  return blocks;
}

std::string strip_markdown(std::string_view md, bool include_headings) {
  return strip_markdown(parse_markdown(md), include_headings);
}

std::string strip_markdown(const std::vector<MdBlock>& blocks,
                           bool include_headings) {
  std::string out;
  for (const MdBlock& block : blocks) {
    std::string piece;
    switch (block.type) {
      case MdBlock::Type::Heading:
        if (!include_headings) continue;
        piece = strip_inline(block.text);
        break;
      case MdBlock::Type::Paragraph:
      case MdBlock::Type::BlockQuote:
        piece = strip_inline(block.text);
        break;
      case MdBlock::Type::CodeFence:
        piece = block.text;
        break;
      case MdBlock::Type::List: {
        std::vector<std::string> items;
        items.reserve(block.items.size());
        for (const std::string& item : block.items) {
          items.push_back(strip_inline(item));
        }
        piece = pkb::util::join(items, "\n");
        break;
      }
      case MdBlock::Type::Table: {
        std::vector<std::string> rows;
        for (const auto& row : block.rows) {
          std::vector<std::string> cells;
          cells.reserve(row.size());
          for (const std::string& cell : row) cells.push_back(strip_inline(cell));
          rows.push_back(pkb::util::join(cells, " "));
        }
        piece = pkb::util::join(rows, "\n");
        break;
      }
      case MdBlock::Type::HorizontalRule:
        continue;
    }
    if (piece.empty()) continue;
    if (!out.empty()) out += "\n\n";
    out += piece;
  }
  return out;
}

std::vector<MdSection> extract_sections(std::string_view md) {
  std::vector<MdSection> sections;
  MdSection current;  // preamble: empty title, level 0
  bool in_fence = false;

  auto flush = [&] {
    if (!current.title.empty() || !trim(current.body).empty()) {
      current.body = std::string(trim(current.body));
      sections.push_back(current);
    }
  };

  for (std::string_view line : split_lines(md)) {
    const std::string_view t = trim(line);
    if (starts_with(t, "```")) in_fence = !in_fence;
    const int level = in_fence ? 0 : heading_level(t);
    if (level > 0) {
      flush();
      current = MdSection{};
      current.title =
          std::string(trim(t.substr(static_cast<std::size_t>(level))));
      current.level = level;
    } else {
      current.body.append(line);
      current.body += '\n';
    }
  }
  flush();
  return sections;
}

std::string first_heading(std::string_view md) {
  for (std::string_view line : split_lines(md)) {
    const std::string_view t = trim(line);
    const int level = heading_level(t);
    if (level > 0) {
      return std::string(trim(t.substr(static_cast<std::size_t>(level))));
    }
  }
  return "";
}

}  // namespace pkb::text

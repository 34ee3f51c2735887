#pragma once
// Structural Markdown parser.
//
// The PETSc knowledge base is Markdown (processed by Sphinx in the paper);
// our loaders and the postprocessor (plain text plus the fenced code blocks
// it verifies, §III-E) need structure: headings, paragraphs, fenced code,
// lists, tables, block quotes, links.
//
// This is a block-level parser for the CommonMark subset the corpus uses; it
// is not a full CommonMark implementation (no nested lists-in-quotes, no
// setext headings, no HTML passthrough).

#include <string>
#include <string_view>
#include <vector>

namespace pkb::text {

/// One block-level element.
struct MdBlock {
  enum class Type {
    Heading,
    Paragraph,
    CodeFence,
    List,
    Table,
    BlockQuote,
    HorizontalRule,
  };

  Type type = Type::Paragraph;
  /// Raw inline text: heading text, paragraph text, quote text, or the code
  /// body for CodeFence.
  std::string text;
  /// Info string of a code fence ("c", "console", ...).
  std::string language;
  /// List items with inline markup preserved (List only).
  std::vector<std::string> items;
  /// Table rows including the header row, cells trimmed (Table only).
  std::vector<std::vector<std::string>> rows;

  bool operator==(const MdBlock&) const = default;
};

/// A section: a heading plus everything until the next heading of the same or
/// shallower level.
struct MdSection {
  std::string title;
  int level = 0;
  /// Raw Markdown of the section body (heading line excluded).
  std::string body;
};

/// Parse into a list of blocks.
[[nodiscard]] std::vector<MdBlock> parse_markdown(std::string_view md);

/// Remove inline markup: emphasis markers dropped, `code` spans keep content,
/// [text](url) becomes "text". Block structure flattens to plain paragraphs
/// separated by blank lines; code fences keep their content verbatim.
/// With `include_headings` false, heading text is omitted entirely — useful
/// for RAG chunking, where structural headings ("Notes", "Synopsis") are
/// noise (the paper: "These steps allow us to remove irrelevant content").
[[nodiscard]] std::string strip_markdown(std::string_view md,
                                         bool include_headings = true);

/// strip_markdown over blocks already parsed, for callers that also read
/// the blocks themselves.
[[nodiscard]] std::string strip_markdown(const std::vector<MdBlock>& blocks,
                                         bool include_headings = true);

/// Strip inline markup from a single line (no block handling).
[[nodiscard]] std::string strip_inline(std::string_view line);

/// Split into heading-delimited sections. Text before the first heading
/// becomes a section with an empty title and level 0.
[[nodiscard]] std::vector<MdSection> extract_sections(std::string_view md);

/// First H1 title, or "" when absent.
[[nodiscard]] std::string first_heading(std::string_view md);

}  // namespace pkb::text

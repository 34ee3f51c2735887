#pragma once
// Document loaders — the equivalents of LangChain's DirectoryLoader and
// UnstructuredMarkdownLoader used in §III-A to ingest the PETSc docs.
//
// Loaders consume a `VirtualDir` (the corpus generator's output) and
// produce `Document`s ready for splitting.

#include <string>
#include <string_view>
#include <vector>

#include "text/document.h"

namespace pkb::text {

/// Glob-style matcher supporting "*" (any run, not crossing '/'), "**" (any
/// run including '/'), and "?" (one char). Anchored at both ends.
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view path);

/// Loads files matching a glob from an in-memory tree.
class DirectoryLoader {
 public:
  /// `pattern` filters paths, e.g. "**/*.md". Empty pattern means all files.
  explicit DirectoryLoader(std::string pattern = "**/*.md");

  /// All matching files from an in-memory tree, in tree order.
  [[nodiscard]] VirtualDir load(const VirtualDir& tree) const;

 private:
  std::string pattern_;
};

/// How MarkdownLoader maps a file to documents.
enum class MarkdownMode {
  /// One document per file, markup stripped to plain text (LangChain
  /// "single" mode — what the paper's pipeline uses before splitting).
  Single,
  /// One document per heading-delimited section ("elements"-style mode);
  /// section titles land in metadata["section"].
  Sections,
};

/// Converts Markdown files into Documents.
class MarkdownLoader {
 public:
  /// `drop_headings` omits heading text from the document body (the titles
  /// survive in metadata) — removes structural noise ("Notes", "Synopsis")
  /// before chunking.
  explicit MarkdownLoader(MarkdownMode mode = MarkdownMode::Single,
                          bool drop_headings = false);

  /// Load one file. The document id is the path (plus "#<i>" per section in
  /// Sections mode); metadata gets "source" = path and "title" = first H1.
  [[nodiscard]] std::vector<Document> load_file(const VirtualFile& file) const;

  /// Load many files.
  [[nodiscard]] std::vector<Document> load(const VirtualDir& files) const;

 private:
  MarkdownMode mode_;
  bool drop_headings_;
};

}  // namespace pkb::text

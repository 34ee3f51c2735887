#include "text/loader.h"

#include "text/markdown.h"
#include "util/strings.h"

namespace pkb::text {

namespace {

// Classic per-segment glob ("*" and "?", neither crossing anything since a
// segment has no '/'). Iterative with last-star backtracking.
bool segment_match(std::string_view pat, std::string_view seg) {
  std::size_t p = 0;
  std::size_t s = 0;
  std::size_t star_p = std::string_view::npos;
  std::size_t star_s = 0;
  while (s < seg.size()) {
    if (p < pat.size() && pat[p] == '*') {
      // Collapse star runs ("**" inside a segment behaves like "*").
      while (p < pat.size() && pat[p] == '*') ++p;
      star_p = p;
      star_s = s;
      continue;
    }
    if (p < pat.size() && (pat[p] == seg[s] || pat[p] == '?')) {
      ++p;
      ++s;
      continue;
    }
    if (star_p != std::string_view::npos) {
      ++star_s;
      s = star_s;
      p = star_p;
      continue;
    }
    return false;
  }
  while (p < pat.size() && pat[p] == '*') ++p;
  return p == pat.size();
}

bool segments_match(const std::vector<std::string_view>& pat,
                    std::size_t pi,
                    const std::vector<std::string_view>& seg,
                    std::size_t si) {
  if (pi == pat.size()) return si == seg.size();
  if (pat[pi] == "**") {
    // "**" matches zero or more whole path segments.
    for (std::size_t skip = si; skip <= seg.size(); ++skip) {
      if (segments_match(pat, pi + 1, seg, skip)) return true;
    }
    return false;
  }
  if (si == seg.size()) return false;
  return segment_match(pat[pi], seg[si]) &&
         segments_match(pat, pi + 1, seg, si + 1);
}

}  // namespace

bool glob_match(std::string_view pattern, std::string_view path) {
  const auto pat = pkb::util::split(pattern, '/');
  const auto seg = pkb::util::split(path, '/');
  return segments_match(pat, 0, seg, 0);
}

DirectoryLoader::DirectoryLoader(std::string pattern)
    : pattern_(std::move(pattern)) {}

VirtualDir DirectoryLoader::load(const VirtualDir& tree) const {
  VirtualDir out;
  for (const VirtualFile& f : tree) {
    if (pattern_.empty() || glob_match(pattern_, f.path)) out.push_back(f);
  }
  return out;
}

MarkdownLoader::MarkdownLoader(MarkdownMode mode, bool drop_headings)
    : mode_(mode), drop_headings_(drop_headings) {}

std::vector<Document> MarkdownLoader::load_file(const VirtualFile& file) const {
  std::vector<Document> out;
  const std::string title = first_heading(file.content);
  if (mode_ == MarkdownMode::Single) {
    Document doc;
    doc.id = file.path;
    doc.text = strip_markdown(file.content, !drop_headings_);
    doc.metadata["source"] = file.path;
    if (!title.empty()) doc.metadata["title"] = title;
    out.push_back(std::move(doc));
    return out;
  }
  const std::vector<MdSection> sections = extract_sections(file.content);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    Document doc;
    doc.id = file.path + "#" + std::to_string(i);
    doc.text = strip_markdown(sections[i].body, !drop_headings_);
    doc.metadata["source"] = file.path;
    if (!title.empty()) doc.metadata["title"] = title;
    if (!sections[i].title.empty()) {
      doc.metadata["section"] = sections[i].title;
    }
    if (doc.text.empty() && sections[i].title.empty()) continue;
    out.push_back(std::move(doc));
  }
  return out;
}

std::vector<Document> MarkdownLoader::load(const VirtualDir& files) const {
  std::vector<Document> out;
  for (const VirtualFile& f : files) {
    for (auto& doc : load_file(f)) out.push_back(std::move(doc));
  }
  return out;
}

}  // namespace pkb::text

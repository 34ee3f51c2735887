#pragma once
// Generates the PETSc-like documentation tree (the "official knowledge
// base" of the paper) as an in-memory Markdown file tree.
//
// Pages produced:
//  * one manual page per ApiSpec (manualpages/...), in the structure of real
//    PETSc manual pages: Summary / Synopsis / Options Database Keys / Notes /
//    Level / See Also,
//  * user-manual chapters (docs/manual/ksp.md, docs/manual/pc.md,
//    docs/manual/mat.md, docs/manual/profiling.md) — long-form prose that
//    holds the cross-cutting facts the paper's case studies hinge on,
//  * an FAQ (docs/faq.md),
//  * a short tutorial (docs/tutorials/ksp_tutorial.md).
//
// The generator is deterministic: same options, same bytes.

#include <string>

#include "corpus/api_spec.h"
#include "text/document.h"

namespace pkb::corpus {

/// Corpus generation options. Manual pages and the user manual are always
/// rendered.
struct CorpusOptions {
  bool include_faq = true;
  bool include_tutorial = true;
  /// Include the synthetic petsc-users archive (the paper's future work —
  /// off by default to match the paper's evaluated configuration, which
  /// "didn't touch its archives for RAG").
  bool include_mailing_list_archive = false;
  /// Threads generated when the archive is included.
  std::size_t archive_threads = 60;
};

/// Render the complete documentation tree.
[[nodiscard]] text::VirtualDir generate_corpus(const CorpusOptions& opts = {});

/// Render one spec as a Markdown manual page (public so tests and the doc
/// assistant example can regenerate individual pages).
[[nodiscard]] std::string render_manual_page(const ApiSpec& spec);

/// The user-manual KSP chapter (contains the least-squares/KSPLSQR paragraph
/// used by case study 1).
[[nodiscard]] std::string render_ksp_chapter();

/// The user-manual Mat chapter (contains the -info preallocation paragraph
/// used by case study 2).
[[nodiscard]] std::string render_mat_chapter();

}  // namespace pkb::corpus

#pragma once
// Code-block verification (§III-E: "we automatically detect blocks of code
// and can pass them to a compiler to verify that they work").
//
// We have no PETSc headers or compiler in the loop, so the "compiler" is a
// static verifier for C-like snippets: delimiter balance, statement
// termination heuristics, and — the PETSc-specific part — verification that
// every PETSc-shaped identifier in the snippet names a real API entity
// (catching LLM-invented functions before a user copy-pastes them).

#include <string>
#include <string_view>
#include <vector>

namespace pkb::post {

/// One fenced code block, viewed in place.
struct CodeBlock {
  std::string_view language;  ///< fence info string ("c", "console", ...)
  std::string_view code;
};

/// One verification finding.
struct CodeDiagnostic {
  enum class Severity { Error, Warning };
  Severity severity = Severity::Error;
  std::string message;
};

/// Verification outcome for one block.
struct CodeCheckReport {
  bool ok = true;  ///< no Error-severity diagnostics
  std::vector<CodeDiagnostic> diagnostics;
};

/// Verify one code block. Console/shell blocks only get option-name
/// verification; C-like blocks get the full delimiter + symbol checks.
[[nodiscard]] CodeCheckReport check_code(const CodeBlock& block);

}  // namespace pkb::post

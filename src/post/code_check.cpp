#include "post/code_check.h"

#include <stack>

#include "corpus/api_spec.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace pkb::post {

namespace {

bool is_petsc_shaped(std::string_view ident) {
  using pkb::util::starts_with;
  return starts_with(ident, "KSP") || starts_with(ident, "PC") ||
         starts_with(ident, "Mat") || starts_with(ident, "Vec") ||
         starts_with(ident, "Petsc") || starts_with(ident, "SNES") ||
         starts_with(ident, "TS") || starts_with(ident, "DM");
}

void check_balance(std::string_view code, CodeCheckReport& report) {
  std::stack<char> stack;
  bool in_string = false;
  bool in_char = false;
  bool in_line_comment = false;
  bool in_block_comment = false;
  char prev = '\0';
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (in_line_comment) {
      if (c == '\n') in_line_comment = false;
    } else if (in_block_comment) {
      if (prev == '*' && c == '/') in_block_comment = false;
    } else if (in_string) {
      if (c == '"' && prev != '\\') in_string = false;
    } else if (in_char) {
      if (c == '\'' && prev != '\\') in_char = false;
    } else {
      switch (c) {
        case '"':
          in_string = true;
          break;
        case '\'':
          in_char = true;
          break;
        case '/':
          if (i + 1 < code.size() && code[i + 1] == '/') in_line_comment = true;
          if (i + 1 < code.size() && code[i + 1] == '*') in_block_comment = true;
          break;
        case '(':
        case '[':
        case '{':
          stack.push(c);
          break;
        case ')':
        case ']':
        case '}': {
          const char open = c == ')' ? '(' : (c == ']' ? '[' : '{');
          if (stack.empty() || stack.top() != open) {
            report.diagnostics.push_back(
                {CodeDiagnostic::Severity::Error,
                 std::string("unbalanced '") + c + "' at offset " +
                     std::to_string(i)});
            report.ok = false;
            return;
          }
          stack.pop();
          break;
        }
        default:
          break;
      }
    }
    prev = c;
  }
  if (!stack.empty()) {
    report.diagnostics.push_back(
        {CodeDiagnostic::Severity::Error,
         std::string("unclosed '") + stack.top() + "'"});
    report.ok = false;
  }
  if (in_string) {
    report.diagnostics.push_back(
        {CodeDiagnostic::Severity::Error, "unterminated string literal"});
    report.ok = false;
  }
  if (in_block_comment) {
    report.diagnostics.push_back(
        {CodeDiagnostic::Severity::Warning, "unterminated block comment"});
  }
}

void check_symbols(std::string_view code, CodeCheckReport& report) {
  const text::TokenizedText tt = text::tokenize(code);
  for (const std::string& symbol : tt.symbols) {
    if (symbol[0] == '-') {
      // Runtime option: verify against the known-option universe.
      if (!corpus::is_known_symbol(symbol)) {
        report.diagnostics.push_back(
            {CodeDiagnostic::Severity::Warning,
             "unknown runtime option: " + symbol});
      }
      continue;
    }
    if (!is_petsc_shaped(symbol)) continue;
    if (corpus::is_known_symbol(symbol)) continue;
    // Well-known identifiers without manual pages in the generated corpus
    // (error-handling macros, communicators) are allowed.
    static constexpr std::string_view kAllowlist[] = {
        "PetscCall",       "PetscCallVoid",  "PetscFunctionBegin",
        "PetscFunctionReturn", "PETSC_COMM_WORLD", "PETSC_COMM_SELF",
        "PetscErrorCode",  "PetscInt",       "PetscReal",
        "PetscScalar",     "PetscBool",      "PETSC_TRUE",
        "PETSC_FALSE",     "PETSC_DEFAULT",  "PETSC_CURRENT",
        "KSPDestroy",      "MatDestroy",     "VecDestroy",
    };
    bool allowed = false;
    for (std::string_view ok : kAllowlist) {
      if (symbol == ok) {
        allowed = true;
        break;
      }
    }
    if (!allowed) {
      report.diagnostics.push_back(
          {CodeDiagnostic::Severity::Error,
           "unknown PETSc symbol (possible hallucination): " + symbol});
      report.ok = false;
    }
  }
}

}  // namespace

CodeCheckReport check_code(const CodeBlock& block) {
  CodeCheckReport report;
  const bool console = block.language == "console" ||
                       block.language == "sh" || block.language == "bash" ||
                       block.language == "shell";
  if (!console) check_balance(block.code, report);
  check_symbols(block.code, report);
  return report;
}

}  // namespace pkb::post

#include <gtest/gtest.h>

#include <string>

#include "post/code_check.h"
#include "post/postprocessor.h"

namespace pkb::post {
namespace {

TEST(CodeCheck, ExtractsBlocksWithLanguages) {
  const ProcessedOutput out = postprocess_llm_output(
      "text\n\n```c\nint x;\n```\n\nmore\n\n```console\n"
      "./app -ksp_view -ksp_burb_factor 2 }\n```\n");
  ASSERT_EQ(out.code_reports.size(), 2u);
  EXPECT_TRUE(out.code_reports[0].ok);
  EXPECT_TRUE(out.code_reports[0].diagnostics.empty());
  // Checked as console: the stray brace is not balance-checked, and the
  // unknown option warns without failing the block.
  const CodeCheckReport& console = out.code_reports[1];
  EXPECT_TRUE(console.ok);
  ASSERT_EQ(console.diagnostics.size(), 1u);
  EXPECT_EQ(console.diagnostics[0].severity,
            CodeDiagnostic::Severity::Warning);
  EXPECT_NE(console.diagnostics[0].message.find("-ksp_burb_factor"),
            std::string::npos);
  EXPECT_TRUE(out.all_code_ok);
}

TEST(CodeCheck, BalancedCodePasses) {
  CodeBlock block{"c",
                  "KSPCreate(PETSC_COMM_WORLD, &ksp);\n"
                  "KSPSetType(ksp, KSPGMRES);\n"
                  "KSPSolve(ksp, b, x);\n"};
  const CodeCheckReport report = check_code(block);
  EXPECT_TRUE(report.ok) << (report.diagnostics.empty()
                                 ? ""
                                 : report.diagnostics[0].message);
}

TEST(CodeCheck, UnbalancedBracesFail) {
  EXPECT_FALSE(check_code({"c", "if (x) { doit();"}).ok);
  EXPECT_FALSE(check_code({"c", "foo(a, b));"}).ok);
  EXPECT_FALSE(check_code({"c", "char* s = \"unterminated;"}).ok);
}

TEST(CodeCheck, BracesInsideStringsAndCommentsIgnored) {
  EXPECT_TRUE(check_code({"c", "printf(\"} not a brace {\");"}).ok);
  EXPECT_TRUE(check_code({"c", "// comment with } unbalanced {\nint x;"}).ok);
  EXPECT_TRUE(check_code({"c", "/* { */ int y; /* } */"}).ok);
}

TEST(CodeCheck, HallucinatedSymbolIsAnError) {
  const CodeCheckReport report =
      check_code({"c", "KSPSolveBlocked(ksp, b, x);"});
  EXPECT_FALSE(report.ok);
  bool mentioned = false;
  for (const auto& diag : report.diagnostics) {
    if (diag.message.find("KSPSolveBlocked") != std::string::npos) {
      mentioned = true;
    }
  }
  EXPECT_TRUE(mentioned);
}

TEST(CodeCheck, KnownSymbolsAndAllowlistPass) {
  EXPECT_TRUE(check_code({"c",
                          "PetscCall(KSPCreate(PETSC_COMM_WORLD, &ksp));\n"
                          "PetscCall(KSPDestroy(&ksp));"})
                  .ok);
}

TEST(CodeCheck, ConsoleBlocksOnlyCheckOptions) {
  // Unbalanced braces are fine in console blocks; unknown options warn.
  const CodeCheckReport ok = check_code({"console", "./app -ksp_type gmres"});
  EXPECT_TRUE(ok.ok);
  const CodeCheckReport warn =
      check_code({"console", "./app -ksp_burb_factor 2"});
  EXPECT_TRUE(warn.ok);  // warning, not error
  ASSERT_FALSE(warn.diagnostics.empty());
  EXPECT_EQ(warn.diagnostics[0].severity, CodeDiagnostic::Severity::Warning);
}

TEST(Postprocessor, MarkdownPath) {
  const ProcessedOutput out = postprocess_llm_output(
      "Use `KSPLSQR` for this.\n\n- step one\n- step two\n\n```c\n"
      "KSPSetType(ksp, KSPLSQR);\n```\n");
  EXPECT_TRUE(out.sources.empty());
  EXPECT_NE(out.plain_text.find("Use KSPLSQR for this."), std::string::npos);
  // List items appear stripped of their markers, one per line.
  EXPECT_NE(out.plain_text.find("step one\nstep two"), std::string::npos);
  EXPECT_EQ(out.plain_text.find("- step"), std::string::npos);
  ASSERT_EQ(out.code_reports.size(), 1u);
  EXPECT_TRUE(out.all_code_ok);
}

TEST(Postprocessor, JsonPath) {
  const ProcessedOutput out = postprocess_llm_output(
      R"({"answer":"Use **KSPLSQR**.","sources":["manualpages/KSP/KSPLSQR.md#0"],"model":"sim-gpt-4o"})");
  EXPECT_EQ(out.plain_text, "Use KSPLSQR.");
  ASSERT_EQ(out.sources.size(), 1u);
  EXPECT_EQ(out.sources[0], "manualpages/KSP/KSPLSQR.md#0");
}

TEST(Postprocessor, MalformedJsonFallsBackToMarkdown) {
  const ProcessedOutput out = postprocess_llm_output("{not json at all");
  EXPECT_TRUE(out.sources.empty());
  EXPECT_EQ(out.plain_text, "{not json at all");
}

// A response that opens like the JSON mode but nests without bound is
// rejected by the parser's depth limit and treated as Markdown instead of
// overflowing the stack.
TEST(Postprocessor, DeeplyNestedJsonFallsBackToMarkdown) {
  const std::string response = "{\"answer\":" + std::string(100000, '[');
  const ProcessedOutput out = postprocess_llm_output(response);
  EXPECT_TRUE(out.sources.empty());
  EXPECT_EQ(out.plain_text, response);
}

TEST(Postprocessor, BadCodeFlagsNotOk) {
  const ProcessedOutput out = postprocess_llm_output(
      "Try this:\n\n```c\nKSPSolveTurbo(ksp;\n```\n");
  EXPECT_FALSE(out.all_code_ok);
}

}  // namespace
}  // namespace pkb::post

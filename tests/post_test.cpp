#include <gtest/gtest.h>

#include <string>

#include "post/code_check.h"
#include "post/markdown_html.h"
#include "post/postprocessor.h"

namespace pkb::post {
namespace {

TEST(HtmlEscape, EscapesSpecials) {
  EXPECT_EQ(html_escape("a < b & c > \"d\""),
            "a &lt; b &amp; c &gt; &quot;d&quot;");
  EXPECT_EQ(html_escape("plain"), "plain");
}

TEST(InlineHtml, CodeEmphasisLinks) {
  EXPECT_EQ(inline_to_html("use `KSPSolve` now"),
            "use <code>KSPSolve</code> now");
  EXPECT_EQ(inline_to_html("**bold** and *em*"),
            "<strong>bold</strong> and <em>em</em>");
  EXPECT_EQ(inline_to_html("[docs](https://petsc.org)"),
            "<a href=\"https://petsc.org\">docs</a>");
}

TEST(InlineHtml, EscapesInsideCode) {
  EXPECT_EQ(inline_to_html("`a < b`"), "<code>a &lt; b</code>");
}

TEST(MarkdownHtml, FullDocument) {
  const std::string html = markdown_to_html(
      "# Title\n\npara with `code`\n\n- item one\n- item two\n\n```c\nint "
      "x;\n```\n\n| A | B |\n|---|---|\n| 1 | 2 |\n\n> quoted\n\n---\n");
  EXPECT_NE(html.find("<h1>Title</h1>"), std::string::npos);
  EXPECT_NE(html.find("<p>para with <code>code</code></p>"),
            std::string::npos);
  EXPECT_NE(html.find("<ul>"), std::string::npos);
  EXPECT_NE(html.find("<li>item one</li>"), std::string::npos);
  EXPECT_NE(html.find("<pre><code class=\"language-c\">int x;</code></pre>"),
            std::string::npos);
  EXPECT_NE(html.find("<table>"), std::string::npos);
  EXPECT_NE(html.find("<th>A</th>"), std::string::npos);
  EXPECT_NE(html.find("<blockquote>quoted</blockquote>"), std::string::npos);
  EXPECT_NE(html.find("<hr/>"), std::string::npos);
}

TEST(MarkdownHtml, OrderedList) {
  const std::string html = markdown_to_html("1. first\n2. second\n");
  EXPECT_NE(html.find("<ol>"), std::string::npos);
  EXPECT_NE(html.find("<li>second</li>"), std::string::npos);
}

TEST(CodeCheck, ExtractsBlocksWithLanguages) {
  const auto blocks = extract_code_blocks(
      "text\n\n```c\nint x;\n```\n\nmore\n\n```console\n./app -ksp_view\n"
      "```\n");
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].language, "c");
  EXPECT_EQ(blocks[1].language, "console");
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
  EXPECT_FALSE(out.was_json);
  EXPECT_NE(out.plain_text.find("KSPLSQR"), std::string::npos);
  EXPECT_NE(out.html.find("<li>step one</li>"), std::string::npos);
  ASSERT_EQ(out.list_items.size(), 2u);
  EXPECT_EQ(out.list_items[1], "step two");
  ASSERT_EQ(out.code_reports.size(), 1u);
  EXPECT_TRUE(out.all_code_ok);
}

TEST(Postprocessor, JsonPath) {
  const ProcessedOutput out = postprocess_llm_output(
      R"({"answer":"Use **KSPLSQR**.","sources":["manualpages/KSP/KSPLSQR.md#0"],"model":"sim-gpt-4o"})");
  EXPECT_TRUE(out.was_json);
  EXPECT_EQ(out.plain_text, "Use KSPLSQR.");
  ASSERT_EQ(out.sources.size(), 1u);
  EXPECT_EQ(out.sources[0], "manualpages/KSP/KSPLSQR.md#0");
}

TEST(Postprocessor, MalformedJsonFallsBackToMarkdown) {
  const ProcessedOutput out = postprocess_llm_output("{not json at all");
  EXPECT_FALSE(out.was_json);
  EXPECT_NE(out.plain_text.find("not json"), std::string::npos);
}

// A response that opens like the JSON mode but nests without bound is
// rejected by the parser's depth limit and rendered as Markdown instead of
// overflowing the stack.
TEST(Postprocessor, DeeplyNestedJsonFallsBackToMarkdown) {
  const std::string response = "{\"answer\":" + std::string(100000, '[');
  const ProcessedOutput out = postprocess_llm_output(response);
  EXPECT_FALSE(out.was_json);
  EXPECT_TRUE(out.sources.empty());
  EXPECT_NE(out.plain_text.find("answer"), std::string::npos);
}

TEST(Postprocessor, BadCodeFlagsNotOk) {
  const ProcessedOutput out = postprocess_llm_output(
      "Try this:\n\n```c\nKSPSolveTurbo(ksp;\n```\n");
  EXPECT_FALSE(out.all_code_ok);
}

}  // namespace
}  // namespace pkb::post

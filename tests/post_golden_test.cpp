// The postprocessor's outputs, pinned bit for bit.
//
// OutputsMatchGolden digests every field of ProcessedOutput that a caller
// reads (plain_text, all_code_ok, sources, and each code report's verdict
// and diagnostics) over three input sets: SimLlm answers to the Krylov
// questions for every model in both output formats, grounded on
// docs_chunks.h's contexts and parametric; every raw docs page of the
// generated corpus; and seeded synthetic responses built from Markdown and
// JSON edge-case fragments.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "docs_chunks.h"
#include "llm/model_config.h"
#include "llm/sim_llm.h"
#include "post/postprocessor.h"
#include "util/json.h"
#include "util/rng.h"

namespace pkb::post {
namespace {

/// Markdown lines that reach every block type and inline rule the
/// postprocessor flattens, plus code that passes, warns and fails.
constexpr const char* kLines[] = {
    "# Using KSPGMRES",
    "### Notes on `-ksp_type`",
    "####### not a heading",
    "Plain paragraph with **bold**, *em*, and `KSPSolve`.",
    "Nested ***bold em*** and **bold with *em* inside** and _under_.",
    "A [link to KSPLSQR](https://petsc.org/ksp) and [broken link(",
    "Unclosed `code span and ** stray markers",
    "- bullet one with `PCJacobi`",
    "* star bullet",
    "+ plus bullet [ref](x)",
    "1. first ordered",
    "2) second ordered",
    "10. tenth",
    "| Option | Meaning |",
    "|---|:---:|",
    "| `-ksp_rtol` | relative **tolerance** |",
    "| a | b | c |",
    "> quoted **advice**",
    "> second quote line",
    "---",
    "***",
    "```c",
    "```console",
    "```sh",
    "```bash",
    "```",
    "~~~",
    "KSPCreate(PETSC_COMM_WORLD, &ksp);",
    "KSPSolveTurbo(ksp, b, x);",
    "if (x) { call(;",
    "char *s = \"unterminated;",
    "/* open comment",
    "./app -ksp_type gmres -ksp_burb_factor 2",
    "mpiexec -n 4 ./ex2 -pc_type jacobi }",
    "PetscCall(MatDestroy(&A));",
    "",
    "",
    "   indented text",
    "caf\xc3\xa9 \xff\xfe bytes",
};

std::string random_markdown(util::Rng& rng, std::size_t max_lines) {
  std::string out;
  const std::size_t lines = rng.below(max_lines + 1);
  for (std::size_t i = 0; i < lines; ++i) {
    out += kLines[rng.below(std::size(kLines))];
    out += rng.chance(0.9) ? "\n" : "\r\n";
  }
  return out;
}

/// A source entry of any JSON type: only strings are read.
util::Json random_source(util::Rng& rng) {
  switch (rng.below(6)) {
    case 0:
      return util::Json(3.0);
    case 1:
      return util::Json();
    case 2:
      return util::Json::array();
    case 3:
      return util::Json::object();
    default:
      return util::Json("ctx" + std::to_string(rng.below(5)) + "#0");
  }
}

std::string random_response(util::Rng& rng) {
  const std::string md = random_markdown(rng, 14);
  switch (rng.below(8)) {
    case 0: {  // JSON mode, sources of mixed types
      util::Json obj = util::Json::object();
      obj.set("answer", md);
      util::Json sources = util::Json::array();
      for (std::size_t i = rng.below(4); i > 0; --i) {
        sources.push_back(random_source(rng));
      }
      obj.set("sources", rng.chance(0.8) ? std::move(sources)
                                          : util::Json("not-a-list"));
      obj.set("model", "sim-gpt-4o");
      return (rng.chance(0.5) ? "  " : "") + obj.dump(rng.chance(0.5) ? 2 : 0);
    }
    case 1: {  // a JSON object without "answer", or a non-string answer
      util::Json obj = util::Json::object();
      obj.set(rng.chance(0.5) ? "text" : "answer",
              rng.chance(0.5) ? util::Json(1.0) : util::Json(md));
      return obj.dump();
    }
    case 2:  // a '{' that is not JSON
      return "{" + md;
    case 3:  // JSON followed by trailing text
      return "{\"answer\":\"x\"} trailing\n" + md;
    default:
      return md;
  }
}

void digest_append(std::string& buf, std::string_view s) {
  buf += std::to_string(s.size());
  buf += ':';
  buf += s;
}

/// Every read field of `out`.
std::string serialize(const ProcessedOutput& out) {
  std::string buf;
  digest_append(buf, out.plain_text);
  buf += out.all_code_ok ? "|ok" : "|bad";
  buf += "|s" + std::to_string(out.sources.size());
  for (const std::string& s : out.sources) digest_append(buf, s);
  buf += "|r" + std::to_string(out.code_reports.size());
  for (const CodeCheckReport& report : out.code_reports) {
    buf += report.ok ? "|ok" : "|bad";
    buf += "|d" + std::to_string(report.diagnostics.size());
    for (const CodeDiagnostic& diag : report.diagnostics) {
      buf += diag.severity == CodeDiagnostic::Severity::Error ? 'E' : 'W';
      digest_append(buf, diag.message);
    }
  }
  return buf;
}

TEST(Postprocessor, OutputsMatchGolden) {
  std::vector<std::string> responses;
  for (const std::string& model : llm::model_registry()) {
    const llm::SimLlm llm(llm::model_config(model));
    for (const corpus::BenchmarkQuestion& q : corpus::krylov_benchmark()) {
      for (const bool json : {false, true}) {
        llm::LlmRequest req;
        req.system = "You are a PETSc expert. Answer from the context.";
        req.question = q.question;
        req.json_output = json;
        responses.push_back(llm.complete(req).text);  // parametric
        req.contexts = golden::chunks_for(q.question, 4);
        responses.push_back(llm.complete(req).text);  // grounded
      }
    }
  }
  for (const text::VirtualFile& file : corpus::generate_corpus()) {
    responses.push_back(file.content);
  }
  util::Rng rng(20261019);
  for (int i = 0; i < 1500; ++i) responses.push_back(random_response(rng));
  responses.push_back("{\"answer\":" + std::string(100000, '['));
  responses.push_back("");
  responses.push_back("   {   ");

  std::string all;
  std::size_t json_sourced = 0;
  std::size_t failing = 0;
  for (const std::string& response : responses) {
    const ProcessedOutput out = postprocess_llm_output(response);
    if (!out.sources.empty()) ++json_sourced;
    if (!out.all_code_ok) ++failing;
    all += serialize(out);
    all += '\n';
  }
  // The set reaches the JSON path and failing code.
  EXPECT_GT(json_sourced, 0u);
  EXPECT_GT(failing, 0u);
  // Recorded from the postprocessor that parsed each answer four times and
  // rendered it to HTML.
  EXPECT_EQ(util::fnv1a64(all), 14475764707992494999ULL)
      << all.size() << " bytes";
}

}  // namespace
}  // namespace pkb::post

#pragma once
// Structured specifications of PETSc APIs, solver types, and runtime options.
//
// This table is the ground truth behind the whole reproduction:
//  * the corpus generator renders each spec into a Markdown manual page
//    (the "official knowledge base" of the paper),
//  * the simulated LLM's parametric memory is a popularity-weighted, noisy
//    subset of these specs (what a general-purpose model would have absorbed
//    from public PETSc material during pretraining),
//  * the keyword-search augmentation (§III-C) maps query symbols to these
//    manual pages,
//  * the evaluation rubric checks answers against spec facts.
//
// The content is real public PETSc knowledge (solver semantics, defaults,
// option names), curated by hand; see DESIGN.md §1 for the substitution
// rationale.

#include <string>
#include <string_view>
#include <vector>

namespace pkb::corpus {

/// What kind of entity a spec describes.
enum class ApiKind {
  SolverType,  ///< a KSPType like KSPGMRES
  PcType,      ///< a PCType like PCJACOBI
  Function,    ///< a C API function like KSPSolve
  Option,      ///< a runtime option like -ksp_monitor
  Concept,     ///< a manual concept page (norm types, preconditioning sides)
};

/// Documentation maturity level used by real PETSc manual pages.
enum class ApiLevel { Beginner, Intermediate, Advanced, Developer };

/// One knowledge-base entity.
struct ApiSpec {
  std::string name;      ///< canonical symbol, e.g. "KSPLSQR"
  ApiKind kind = ApiKind::Function;
  ApiLevel level = ApiLevel::Beginner;
  std::string summary;   ///< one-line description (manual page "brief")
  std::string synopsis;  ///< C prototype or usage line; may be empty
  /// Body paragraphs of the manual page ("Notes" section). The first
  /// paragraph carries the decisive facts for evaluation.
  std::vector<std::string> notes;
  /// Related runtime options ("Options Database Keys" section).
  std::vector<std::string> options;
  /// Cross references ("See Also" section).
  std::vector<std::string> see_also;
  /// Pretraining-exposure proxy in [0,1]: how much public discussion of this
  /// entity a mainstream LLM plausibly saw. Drives the baseline arm's
  /// parametric-memory fidelity.
  double popularity = 0.5;
};

/// The full built-in spec table (stable order). Built once, immutable.
[[nodiscard]] const std::vector<ApiSpec>& api_table();

/// Look up a spec by exact symbol name; nullptr when unknown.
[[nodiscard]] const ApiSpec* find_spec(std::string_view name);

/// Case-insensitive / fuzzy lookup (edit distance <= 2 on lowercase forms),
/// used to resolve user typos like "KSPGmres"; nullptr when nothing close.
[[nodiscard]] const ApiSpec* find_spec_fuzzy(std::string_view name);

/// True if `symbol` names a real entity: a spec, a see-also/option reference,
/// or any API-shaped symbol that occurs anywhere in the generated knowledge
/// base (the ground-truth universe). The rubric scorer uses this to detect
/// hallucinated symbols (e.g. "KSPBurb"): a symbol the knowledge base has
/// never seen is, by construction, invented.
[[nodiscard]] bool is_known_symbol(std::string_view symbol);

/// Manual-page path for a spec, e.g. "manualpages/KSP/KSPLSQR.md".
[[nodiscard]] std::string manual_page_path(const ApiSpec& spec);

/// Human-readable names for enums (used in rendered pages and logs).
[[nodiscard]] std::string_view to_string(ApiLevel level);

}  // namespace pkb::corpus

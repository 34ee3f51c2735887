#include "corpus/api_spec.h"

#include <unordered_map>
#include <unordered_set>

#include "corpus/api_table_detail.h"
#include "corpus/generator.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace pkb::corpus {

namespace {

std::vector<ApiSpec> build_table() {
  std::vector<ApiSpec> table;
  for (auto builder :
       {detail::ksp_type_specs, detail::pc_type_specs, detail::function_specs,
        detail::option_specs, detail::concept_specs,
        detail::outer_library_specs}) {
    for (auto& spec : builder()) table.push_back(std::move(spec));
  }
  return table;
}

const std::unordered_map<std::string, std::size_t>& name_index() {
  static const auto* index = [] {
    auto* map = new std::unordered_map<std::string, std::size_t>();
    const auto& table = api_table();
    for (std::size_t i = 0; i < table.size(); ++i) {
      map->emplace(table[i].name, i);
    }
    return map;
  }();
  return *index;
}

}  // namespace

const std::vector<ApiSpec>& api_table() {
  static const std::vector<ApiSpec> table = build_table();
  return table;
}

const ApiSpec* find_spec(std::string_view name) {
  const auto& index = name_index();
  auto it = index.find(std::string(name));
  if (it == index.end()) return nullptr;
  return &api_table()[it->second];
}

const ApiSpec* find_spec_fuzzy(std::string_view name) {
  if (const ApiSpec* exact = find_spec(name)) return exact;
  // Users often write the bare algorithm/type name ("GMRES", "LSQR",
  // "JACOBI"): try the canonical class prefixes before edit distance.
  const std::string upper = pkb::util::to_upper(name);
  for (std::string_view prefix : {"KSP", "PC"}) {
    if (const ApiSpec* hit = find_spec(std::string(prefix) + upper)) {
      return hit;
    }
  }
  const std::string lowered = pkb::util::to_lower(name);
  const ApiSpec* best = nullptr;
  std::size_t best_dist = 3;  // accept distance <= 2
  for (const ApiSpec& spec : api_table()) {
    const std::string cand = pkb::util::to_lower(spec.name);
    // Cheap length gate before the O(nm) distance.
    const std::size_t len_gap = cand.size() > lowered.size()
                                    ? cand.size() - lowered.size()
                                    : lowered.size() - cand.size();
    if (len_gap >= best_dist) continue;
    const std::size_t dist = pkb::util::edit_distance(lowered, cand);
    if (dist < best_dist) {
      best_dist = dist;
      best = &spec;
    }
  }
  return best;
}

bool is_known_symbol(std::string_view symbol) {
  if (find_spec(symbol) != nullptr) return true;
  // The full ground-truth universe: every API-shaped symbol occurring in the
  // spec table (names, see-also references, option keys, and the symbol
  // tokens of every text field). Collected once.
  static const auto* universe = [] {
    auto* set = new std::unordered_set<std::string>();
    auto absorb = [set](std::string_view text) {
      for (std::string& sym : pkb::text::tokenize(text).symbols) {
        set->insert(std::move(sym));
      }
    };
    for (const ApiSpec& spec : api_table()) {
      set->insert(spec.name);
      for (const std::string& ref : spec.see_also) set->insert(ref);
      for (const std::string& opt : spec.options) {
        const auto fields = pkb::util::split_ws(opt);
        if (!fields.empty()) set->insert(std::string(fields[0]));
        absorb(opt);
      }
      absorb(spec.summary);
      absorb(spec.synopsis);
      for (const std::string& note : spec.notes) absorb(note);
    }
    // The prose chapters/FAQ/tutorial mention a few symbols beyond the spec
    // table (storage formats, helper routines); absorb the whole generated
    // corpus so the universe is exactly "everything the knowledge base says".
    for (const pkb::text::VirtualFile& file : generate_corpus()) {
      absorb(file.content);
    }
    return set;
  }();
  return universe->contains(std::string(symbol));
}

std::string manual_page_path(const ApiSpec& spec) {
  std::string dir;
  switch (spec.kind) {
    case ApiKind::SolverType:
      dir = "manualpages/KSP";
      break;
    case ApiKind::PcType:
      dir = "manualpages/PC";
      break;
    case ApiKind::Function: {
      if (pkb::util::starts_with(spec.name, "KSP")) {
        dir = "manualpages/KSP";
      } else if (pkb::util::starts_with(spec.name, "PC")) {
        dir = "manualpages/PC";
      } else if (pkb::util::starts_with(spec.name, "Mat")) {
        dir = "manualpages/Mat";
      } else if (pkb::util::starts_with(spec.name, "Vec")) {
        dir = "manualpages/Vec";
      } else if (pkb::util::starts_with(spec.name, "SNES")) {
        dir = "manualpages/SNES";
      } else if (pkb::util::starts_with(spec.name, "TS")) {
        dir = "manualpages/TS";
      } else if (pkb::util::starts_with(spec.name, "DM")) {
        dir = "manualpages/DM";
      } else {
        dir = "manualpages/Sys";
      }
      break;
    }
    case ApiKind::Option:
      dir = "manualpages/Options";
      break;
    case ApiKind::Concept:
      dir = "manualpages/Concepts";
      break;
  }
  // Option names keep their dash in the symbol but not in the filename.
  std::string file(spec.name);
  if (!file.empty() && file[0] == '-') file.erase(0, 1);
  return dir + "/" + file + ".md";
}

std::string_view to_string(ApiLevel level) {
  switch (level) {
    case ApiLevel::Beginner:
      return "beginner";
    case ApiLevel::Intermediate:
      return "intermediate";
    case ApiLevel::Advanced:
      return "advanced";
    case ApiLevel::Developer:
      return "developer";
  }
  return "?";
}

}  // namespace pkb::corpus

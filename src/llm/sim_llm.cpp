#include "llm/sim_llm.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "llm/hallucination.h"
#include "llm/parametric.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pkb::llm {

namespace {

using pkb::util::Rng;
using Span = text::TextAnalysis::Span;

/// Token-set Jaccard similarity of two texts given as sorted distinct token
/// spans, used to suppress near-duplicate sentences coming from different
/// pages (option page vs function page often state the same thing).
double jaccard(std::string_view a_text, std::span<const Span> a,
               std::string_view b_text, std::span<const Span> b) {
  if (a.empty() || b.empty()) return 0.0;
  std::size_t common = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a_text.substr(a[i].offset, a[i].size)
                        .compare(b_text.substr(b[j].offset, b[j].size));
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return static_cast<double>(common) /
         static_cast<double>(a.size() + b.size() - common);
}

std::string format_options_line(const corpus::ApiSpec& spec) {
  if (spec.options.empty()) return "";
  // "  -opt <v> : description" -> keep the first two entries verbatim.
  std::string out = "Relevant options: ";
  const std::size_t n = std::min<std::size_t>(2, spec.options.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out += "; ";
    out += spec.options[i];
  }
  out += ".";
  return out;
}

}  // namespace

SentenceScan scan_sentences(const text::QueryAnalysis& question,
                            const std::vector<ContextDoc>& contexts,
                            std::size_t attended) {
  attended = std::min(attended, contexts.size());
  SentenceScan out;

  // Every sentence of every attended context, with its span in `lower`.
  // ranges[c] is where context c starts in `lower` and in `sentences`;
  // ranges[attended] closes the last one.
  struct Range {
    std::size_t lower_begin = 0;
    std::size_t first_sentence = 0;
  };
  std::vector<Range> ranges;
  ranges.reserve(attended + 1);
  std::vector<SentenceScan::Hit>& sentences = out.hits;
  std::size_t total = 0;
  for (std::size_t c = 0; c < attended; ++c) total += contexts[c].text.size();
  out.lower.reserve(total);
  for (std::size_t c = 0; c < attended; ++c) {
    const std::string& text = contexts[c].text;
    ranges.push_back(Range{out.lower.size(), sentences.size()});
    std::size_t position = 0;
    for (const std::string_view sentence : text::split_sentences(text)) {
      SentenceScan::Hit hit;
      hit.context = c;
      hit.position = position++;
      hit.text = sentence;
      hit.lower_offset =
          out.lower.size() +
          static_cast<std::size_t>(sentence.data() - text.data());
      sentences.push_back(hit);
    }
    pkb::util::append_lower(out.lower, text);
  }
  ranges.push_back(Range{out.lower.size(), sentences.size()});

  // One search per (needle, context): counts the needle's document
  // frequency and adds its weight to each sentence holding an occurrence
  // wholly inside the sentence's span. A needle is weighted by how
  // discriminative it is ACROSS the attended contexts (a term present in
  // every context separates nothing — the in-context analogue of attention
  // sharpening).
  const std::string_view lower = out.lower;
  std::vector<std::size_t> holders;
  const auto scan = [&](std::string_view needle, double numerator) {
    holders.clear();
    std::size_t df = 0;
    for (std::size_t c = 0; c < attended; ++c) {
      const std::size_t begin = ranges[c].lower_begin;
      const std::string_view hay =
          lower.substr(begin, ranges[c + 1].lower_begin - begin);
      std::size_t pos = hay.find(needle);
      if (pos == std::string_view::npos) continue;
      ++df;
      std::size_t k = ranges[c].first_sentence;
      const std::size_t k_end = ranges[c + 1].first_sentence;
      while (pos != std::string_view::npos) {
        const std::size_t at = begin + pos;
        while (k < k_end &&
               sentences[k].lower_offset + sentences[k].text.size() <= at) {
          ++k;
        }
        if (k == k_end) break;
        const std::size_t s_begin = sentences[k].lower_offset;
        const std::size_t s_end = s_begin + sentences[k].text.size();
        if (at < s_begin) {
          pos = hay.find(needle, s_begin - begin);  // between sentences
        } else if (at + needle.size() <= s_end) {
          holders.push_back(k);
          pos = hay.find(needle, s_end - begin);
        } else {
          pos = hay.find(needle, pos + 1);  // runs past the sentence's end
        }
      }
    }
    const double weight = numerator / (0.5 + static_cast<double>(df));
    for (const std::size_t k : holders) sentences[k].score += weight;
    return df;
  };

  // Needles: the content terms (distinct, in first-appearance order), then
  // the symbols lowercased.
  std::vector<std::string_view> terms;
  for (const Span tok : question.tokens) {
    const std::string_view term = question.view(tok);
    if (text::stopwords().contains(term) || term.size() < 2) continue;
    if (std::find(terms.begin(), terms.end(), term) == terms.end()) {
      terms.push_back(term);
    }
  }
  for (const std::string_view term : terms) scan(term, 1.0);
  std::string symbol_lower;
  for (const std::string& symbol : question.symbols) {
    symbol_lower.clear();
    pkb::util::append_lower(symbol_lower, symbol);
    if (scan(symbol_lower, 3.0) == 0) out.uncovered_symbols.push_back(symbol);
  }

  // Keep the sentences that hold a needle. Mild length normalization:
  // prefer focused sentences.
  std::erase_if(sentences,
                [](const SentenceScan::Hit& hit) { return hit.score <= 0.0; });
  for (SentenceScan::Hit& hit : sentences) {
    hit.words = pkb::util::count_words(hit.text);
    const double words = static_cast<double>(hit.words);
    hit.score = hit.score / (1.0 + 0.015 * words);
  }
  return out;
}

SimLlm::SimLlm(LlmConfig config) : config_(std::move(config)) {}

SimLlm::Draft SimLlm::answer_grounded(const LlmRequest& request,
                                      Rng& rng) const {
  Draft draft;
  const text::QueryAnalysis question = text::analyze(request.question);
  const SentenceScan scan = scan_sentences(
      question, request.contexts, request.max_attended_contexts);

  struct Ranked {
    const SentenceScan::Hit* hit = nullptr;
    double score = 0.0;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(scan.hits.size());
  for (const SentenceScan::Hit& hit : scan.hits) {
    // Position bias: models attend most to the leading context and
    // progressively less to later ones ("lost in the middle"). This is
    // the mechanism that makes reranking matter — promoting the decisive
    // document to the front changes what the model actually uses.
    ranked.push_back(Ranked{
        &hit, hit.score / (1.0 + config_.attention_decay *
                                     static_cast<double>(hit.context))});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.hit->context != b.hit->context) {
                return a.hit->context < b.hit->context;
              }
              return a.hit->position < b.hit->position;
            });

  // Select under a completion budget, with fidelity-controlled drops and
  // near-duplicate suppression (the same statement often exists on both an
  // option page and a function page). The selected sentences' term spans
  // sit one after another in `selected_terms`; sentence i owns
  // [terms_begin[i], terms_begin[i + 1]).
  std::vector<const SentenceScan::Hit*> selected;
  std::vector<Span> selected_terms;
  std::vector<std::size_t> terms_begin{0};
  std::vector<Span> terms;
  std::size_t budget_words = config_.completion_budget_words;
  for (const Ranked& r : ranked) {
    if (selected.size() >= config_.max_answer_sentences || budget_words == 0) {
      break;
    }
    const std::string_view lower = scan.lower_text(*r.hit);
    text::term_spans(lower, terms);
    bool duplicate = false;
    for (std::size_t i = 0; i < selected.size() && !duplicate; ++i) {
      duplicate =
          jaccard(lower, terms, scan.lower_text(*selected[i]),
                  std::span<const Span>(selected_terms)
                      .subspan(terms_begin[i],
                               terms_begin[i + 1] - terms_begin[i])) >= 0.4;
    }
    if (duplicate) continue;
    if (!selected.empty() &&
        rng.uniform() > config_.grounding_fidelity) {
      continue;  // imperfect grounding: sentence dropped
    }
    selected.push_back(r.hit);
    selected_terms.insert(selected_terms.end(), terms.begin(), terms.end());
    terms_begin.push_back(selected_terms.size());
    budget_words -= std::min(budget_words, r.hit->words);
  }

  // Unknown-symbol caveat (the grounded KSPBurb behaviour): with no covering
  // context and sufficient model discipline, say so instead of guessing.
  std::string caveat;
  if (!scan.uncovered_symbols.empty() && selected.size() <= 2) {
    const std::string_view symbol = scan.uncovered_symbols.front();
    if (rng.uniform() < config_.quality) {
      caveat = "It appears there may be a typo or misunderstanding: there "
               "is no PETSc function or object named ";
      caveat += symbol;
      caveat += " in the documentation available to me. ";
      if (const corpus::ApiSpec* spec = corpus::find_spec_fuzzy(symbol)) {
        caveat += "Did you mean ";
        caveat += spec->name;
        caveat += "? ";
      }
      draft.mode = "grounded-caveat";
    } else {
      draft.text = fabricate_symbol_answer(symbol, rng);
      draft.mode = "hallucination";
      return draft;
    }
  }

  if (selected.empty() && caveat.empty()) {
    // Nothing in the contexts helps; a disciplined model hedges, an
    // undisciplined one free-associates from memory.
    if (rng.uniform() < config_.quality) {
      draft.text =
          "The retrieved PETSc documentation does not directly address "
          "this; could you share the exact solver configuration (-ksp_view "
          "output) so I can be specific?";
      draft.mode = "grounded-weak";
    } else {
      const TopicMatch topic =
          ParametricMemory::instance().resolve(request.question);
      draft.text = fabricate_topic_answer(request.question, topic.spec, rng);
      draft.mode = "hallucination";
    }
    return draft;
  }

  // Lead with the entity the best-matching context documents: the model
  // names the API it is recommending (as the paper's example answers do:
  // "The pivotal solver for such cases in PETSc is KSPLSQR ...").
  std::string_view title;
  if (!selected.empty()) {
    title = request.contexts[selected.front()->context].title;
    if (!text::looks_like_symbol(title)) title = {};
  }

  // Compose: keep document order within the selection for coherence. The
  // text is sized exactly up front: responses are kept (sessions, history),
  // so spare capacity would be kept with them.
  std::sort(selected.begin(), selected.end(),
            [](const SentenceScan::Hit* a, const SentenceScan::Hit* b) {
              if (a->context != b->context) return a->context < b->context;
              return a->position < b->position;
            });
  constexpr std::string_view kLeadPrefix = "Use ";
  constexpr std::string_view kLeadSuffix = ". ";
  std::size_t length = caveat.size();
  if (!title.empty()) {
    length += kLeadPrefix.size() + title.size() + kLeadSuffix.size();
  }
  for (const SentenceScan::Hit* hit : selected) length += hit->text.size();
  if (!selected.empty()) length += selected.size() - 1;  // separators
  draft.text.reserve(length);
  draft.text += caveat;
  if (!title.empty()) {
    draft.text += kLeadPrefix;
    draft.text += title;
    draft.text += kLeadSuffix;
  }
  const std::size_t body_begin = draft.text.size();
  for (const SentenceScan::Hit* hit : selected) {
    if (draft.text.size() != body_begin) draft.text += ' ';
    draft.text += hit->text;
    const std::string& id = request.contexts[hit->context].id;
    if (std::find(draft.used_context_ids.begin(), draft.used_context_ids.end(),
                  id) == draft.used_context_ids.end()) {
      draft.used_context_ids.push_back(id);
    }
  }
  if (draft.mode.empty()) draft.mode = "grounded";
  return draft;
}

SimLlm::Draft SimLlm::answer_parametric(const LlmRequest& request,
                                        Rng& rng) const {
  Draft draft;
  const TopicMatch topic =
      ParametricMemory::instance().resolve(request.question);

  if (topic.spec == nullptr) {
    if (!topic.query_symbol.empty()) {
      // Asked about an entity with zero pretraining signal: mainstream
      // models pattern-match the naming convention and fabricate.
      draft.text = fabricate_symbol_answer(topic.query_symbol, rng);
      draft.mode = "hallucination";
    } else {
      draft.text =
          "This is difficult to answer in general; it depends on the "
          "problem, the discretization, and the machine. PETSc provides "
          "many options that may help.";
      draft.mode = "refusal";
    }
    return draft;
  }

  const corpus::ApiSpec& spec = *topic.spec;
  const double exposure = spec.popularity * config_.knowledge;
  const double effective = exposure + 0.1 * (rng.uniform() - 0.5);

  if (effective >= 0.48) {
    // Well-known topic: a full, correct recall of the entity. Overview
    // (Concept) pages are recalled in broad strokes only — a model knows
    // "what KSP is" far better than the specific details buried in the
    // page (that asymmetry is precisely why RAG helps).
    std::string out = "Use " + spec.name + ". " + spec.summary;
    if (!spec.notes.empty()) out += " " + spec.notes.front();
    if (effective >= 0.62 && spec.notes.size() > 1 &&
        spec.kind != corpus::ApiKind::Concept) {
      out += " " + spec.notes[1];
    }
    const std::string options_line = format_options_line(spec);
    if (!options_line.empty()) out += " " + options_line;
    draft.text = std::move(out);
    draft.mode = "parametric";
    return draft;
  }

  if (effective >= 0.27) {
    // Partially-known topic: the headline is right, the details are thin —
    // the model recalls the gist of the summary, not its fine print.
    const auto words = pkb::util::split_ws(spec.summary);
    std::string gist;
    for (std::size_t i = 0; i < words.size() && i < 11; ++i) {
      if (i != 0) gist += ' ';
      gist += words[i];
    }
    if (words.size() > 11) gist += " ...";
    draft.text = spec.name + " is the relevant functionality here: " + gist +
                 " Check the PETSc manual for the exact calling sequence "
                 "and the related runtime options.";
    draft.mode = "parametric-partial";
    return draft;
  }

  // Thin knowledge: confidently wrong.
  draft.text = fabricate_topic_answer(request.question, &spec, rng);
  draft.mode = "hallucination";
  return draft;
}

LlmResponse SimLlm::complete(const LlmRequest& request) const {
  obs::Span span(obs::global_tracer(), obs::kSpanLlm);
  span.set_attr("model", config_.name);

  // Chaos hook: throws for injected error/timeout decisions, returns extra
  // virtual latency for a spike (added to the latency model below).
  const double spike_seconds =
      pkb::resilience::consult(fault_plan_, pkb::resilience::Stage::Llm);

  Rng rng(pkb::util::seed_from(request.question, config_.seed));

  Draft draft = request.contexts.empty() ? answer_parametric(request, rng)
                                         : answer_grounded(request, rng);

  LlmResponse resp;
  resp.mode = draft.mode;
  resp.used_context_ids = draft.used_context_ids;

  // Token accounting.
  resp.prompt_tokens = text::approx_llm_tokens(request.system) +
                       text::approx_llm_tokens(request.question);
  for (const ContextDoc& ctx : request.contexts) {
    resp.prompt_tokens += text::approx_llm_tokens(ctx.text);
  }
  resp.completion_tokens = text::approx_llm_tokens(draft.text);

  // Output formatting.
  if (request.json_output) {
    pkb::util::Json obj = pkb::util::Json::object();
    obj.set("answer", draft.text);
    pkb::util::Json sources = pkb::util::Json::array();
    for (const std::string& id : draft.used_context_ids) sources.push_back(id);
    obj.set("sources", std::move(sources));
    obj.set("model", config_.name);
    resp.text = obj.dump();
  } else {
    resp.text = std::move(draft.text);
  }

  // Latency model: prefill + decode + base, with deterministic multiplicative
  // jitter (log-uniform in [1/(1+j), (1+j)]).
  const double prefill = static_cast<double>(resp.prompt_tokens) /
                         config_.prefill_tokens_per_second;
  const double decode = static_cast<double>(resp.completion_tokens) /
                        config_.decode_tokens_per_second;
  const double jitter_span = std::log1p(config_.latency_jitter);
  const double jitter =
      std::exp(rng.uniform(-jitter_span, jitter_span));
  resp.latency_seconds =
      (config_.latency_base_seconds + prefill + decode) * jitter +
      spike_seconds;

  span.set_attr("mode", resp.mode);
  span.set_attr("prompt_tokens", resp.prompt_tokens);
  span.set_attr("completion_tokens", resp.completion_tokens);
  span.set_attr("sim_latency_s", resp.latency_seconds);
  obs::MetricsRegistry& metrics = obs::global_metrics();
  const obs::LabelSet model_label{{"model", config_.name}};
  metrics.counter(obs::kLlmRequestsTotal, model_label).inc();
  metrics.counter(obs::kLlmModeTotal, {{"mode", resp.mode}}).inc();
  metrics.counter(obs::kLlmPromptTokensTotal, model_label)
      .inc(resp.prompt_tokens);
  metrics.counter(obs::kLlmCompletionTokensTotal, model_label)
      .inc(resp.completion_tokens);
  metrics.histogram(obs::kLlmSimLatencySeconds, model_label)
      .observe(resp.latency_seconds);
  return resp;
}

}  // namespace pkb::llm

#include "embed/blend.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pkb::embed {

BlendEmbedder::BlendEmbedder(std::size_t lsa_rank, std::size_t hash_dim,
                             double lexical_weight, std::uint64_t seed)
    : lsa_(lsa_rank, /*iterations=*/6, seed),
      hash_(hash_dim),
      lexical_weight_(lexical_weight) {
  if (lexical_weight_ < 0.0 || lexical_weight_ > 1.0) {
    throw std::invalid_argument("BlendEmbedder: lexical_weight in [0,1]");
  }
}

std::string BlendEmbedder::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "sim-blend-%zu-%zu-w%02d", lsa_.dimension(),
                hash_.dimension(),
                static_cast<int>(lexical_weight_ * 100.0 + 0.5));
  return buf;
}

void BlendEmbedder::fit(std::span<const text::AnalysisPtr> docs) {
  lsa_.fit(docs);
  hash_.fit(docs);
}

Vector BlendEmbedder::embed(const text::TextAnalysis& text) const {
  Vector sem = lsa_.embed(text);    // unit norm (or zero)
  Vector lex = hash_.embed(text);   // unit norm (or zero)
  const float ws = static_cast<float>(std::sqrt(1.0 - lexical_weight_));
  const float wl = static_cast<float>(std::sqrt(lexical_weight_));
  Vector out;
  out.reserve(sem.size() + lex.size());
  for (float v : sem) out.push_back(ws * v);
  for (float v : lex) out.push_back(wl * v);
  l2_normalize(out);  // exact unit norm even if one side was zero
  return out;
}

}  // namespace pkb::embed

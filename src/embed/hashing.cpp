#include "embed/hashing.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "util/rng.h"
#include "util/strings.h"

namespace pkb::embed {

HashEmbedder::HashEmbedder(std::size_t dim) : dim_(dim) {
  if (dim_ == 0) throw std::invalid_argument("HashEmbedder: dim must be > 0");
}

std::string HashEmbedder::name() const {
  return "sim-hash-" + std::to_string(dim_);
}

Vector HashEmbedder::embed(const text::TextAnalysis& text) const {
  // Colliding buckets sum in iteration order: the same as a map keyed by
  // token strings, because the key hash and insertion sequence are.
  std::unordered_map<std::string_view, float> tf;
  for (const text::TextAnalysis::Span tok : text.tokens) {
    tf[text.view(tok)] += 1.0f;
  }
  Vector v(dim_, 0.0f);
  for (const auto& [term, count] : tf) {
    const std::uint64_t h = pkb::util::fnv1a64(term);
    const std::size_t bucket = h % dim_;
    const float sign = ((h >> 32) & 1u) != 0 ? 1.0f : -1.0f;
    v[bucket] += sign * (1.0f + std::log(count));
  }
  l2_normalize(v);
  return v;
}

CharNgramEmbedder::CharNgramEmbedder(std::size_t dim) : dim_(dim) {
  if (dim_ == 0) {
    throw std::invalid_argument("CharNgramEmbedder: dim must be > 0");
  }
}

std::string CharNgramEmbedder::name() const {
  return "sim-charngram-" + std::to_string(dim_);
}

Vector CharNgramEmbedder::embed(const text::TextAnalysis& text) const {
  Vector v(dim_, 0.0f);
  std::string padded;
  for (const text::TextAnalysis::Span tok : text.tokens) {
    // Boundary markers make prefixes/suffixes distinctive.
    padded.clear();
    padded += '^';
    padded += text.view(tok);
    padded += '$';
    for (std::size_t n = 3; n <= 5 && n <= padded.size(); ++n) {
      for (std::size_t i = 0; i + n <= padded.size(); ++i) {
        const std::uint64_t h =
            pkb::util::fnv1a64(std::string_view(padded).substr(i, n)) ^
            (0x9e3779b97f4a7c15ULL * n);
        const std::size_t bucket = h % dim_;
        const float sign = ((h >> 32) & 1u) != 0 ? 1.0f : -1.0f;
        v[bucket] += sign;
      }
    }
  }
  l2_normalize(v);
  return v;
}

}  // namespace pkb::embed

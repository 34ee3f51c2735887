#include "embed/lsa.h"

#include <cmath>
#include <stdexcept>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace pkb::embed {

namespace {

using SparseVec = std::vector<std::pair<std::size_t, float>>;

/// y[d] = sum_t A[d][t] * x[t]  for every document d (A given sparsely).
void mat_vec(const std::vector<SparseVec>& rows, const std::vector<float>& x,
             std::vector<float>& y) {
  pkb::util::parallel_for(0, rows.size(), [&](std::size_t d) {
    double acc = 0.0;
    for (const auto& [t, w] : rows[d]) acc += static_cast<double>(w) * x[t];
    y[d] = static_cast<float>(acc);
  });
}

/// x[t] += sum_d A[d][t] * y[d] (transpose product, serial: scatter writes).
void mat_t_vec(const std::vector<SparseVec>& rows, const std::vector<float>& y,
               std::vector<float>& x) {
  std::fill(x.begin(), x.end(), 0.0f);
  for (std::size_t d = 0; d < rows.size(); ++d) {
    const float yd = y[d];
    if (yd == 0.0f) continue;
    for (const auto& [t, w] : rows[d]) x[t] += w * yd;
  }
}

/// Modified Gram-Schmidt over `k` column vectors of length `n`, stored
/// column-major in `q` (q[c] is the c-th vector). Degenerate columns are
/// re-seeded deterministically.
void orthonormalize(std::vector<std::vector<float>>& q, pkb::util::Rng& rng) {
  for (std::size_t c = 0; c < q.size(); ++c) {
    for (std::size_t prev = 0; prev < c; ++prev) {
      double proj = 0.0;
      for (std::size_t i = 0; i < q[c].size(); ++i) {
        proj += static_cast<double>(q[prev][i]) * q[c][i];
      }
      for (std::size_t i = 0; i < q[c].size(); ++i) {
        q[c][i] -= static_cast<float>(proj) * q[prev][i];
      }
    }
    double nrm = 0.0;
    for (float v : q[c]) nrm += static_cast<double>(v) * v;
    nrm = std::sqrt(nrm);
    if (nrm < 1e-10) {
      for (float& v : q[c]) v = static_cast<float>(rng.normal());
      double nn = 0.0;
      for (float v : q[c]) nn += static_cast<double>(v) * v;
      nrm = std::sqrt(nn);
    }
    const float inv = static_cast<float>(1.0 / nrm);
    for (float& v : q[c]) v *= inv;
  }
}

}  // namespace

LsaEmbedder::LsaEmbedder(std::size_t rank, std::size_t iterations,
                         std::uint64_t seed)
    : rank_(rank), iterations_(iterations), seed_(seed) {
  if (rank_ == 0 || iterations_ == 0) {
    throw std::invalid_argument("LsaEmbedder: rank/iterations must be > 0");
  }
}

std::string LsaEmbedder::name() const {
  return "sim-lsa-" + std::to_string(rank_);
}

void LsaEmbedder::fit(std::span<const text::AnalysisPtr> docs) {
  vocab_.fit(docs);
  vocab_size_ = vocab_.size();
  const std::size_t k = std::min(rank_, vocab_size_);

  std::vector<SparseVec> rows;
  rows.reserve(docs.size());
  for (const text::AnalysisPtr& doc : docs) rows.push_back(vocab_.tfidf(*doc));

  // Subspace iteration on A^T A: Q <- orth((A^T A) Q).
  pkb::util::Rng rng(seed_);
  std::vector<std::vector<float>> q(k, std::vector<float>(vocab_size_));
  for (auto& col : q) {
    for (float& v : col) v = static_cast<float>(rng.normal());
  }
  orthonormalize(q, rng);

  std::vector<float> ax(rows.size());
  for (std::size_t iter = 0; iter < iterations_; ++iter) {
    for (auto& col : q) {
      mat_vec(rows, col, ax);
      mat_t_vec(rows, ax, col);
    }
    orthonormalize(q, rng);
  }

  basis_.assign(rank_ * vocab_size_, 0.0f);
  for (std::size_t c = 0; c < k; ++c) {
    std::copy(q[c].begin(), q[c].end(), basis_.begin() + c * vocab_size_);
  }
}

Vector LsaEmbedder::embed(const text::TextAnalysis& text) const {
  if (vocab_size_ == 0) {
    throw std::logic_error("LsaEmbedder::embed called before fit()");
  }
  const SparseVec sparse = vocab_.tfidf(text);
  Vector out(rank_, 0.0f);
  for (std::size_t c = 0; c < rank_; ++c) {
    const float* row = basis_.data() + c * vocab_size_;
    double acc = 0.0;
    for (const auto& [t, w] : sparse) acc += static_cast<double>(w) * row[t];
    out[c] = static_cast<float>(acc);
  }
  l2_normalize(out);
  return out;
}

}  // namespace pkb::embed

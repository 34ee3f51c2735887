#include "vectordb/vector_store.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/binio.h"
#include "util/clock.h"

namespace pkb::vectordb {

VectorStore VectorStore::from_analyses(
    std::span<const text::AnalysisPtr> docs, const embed::Embedder& embedder) {
  std::vector<embed::Vector> vecs = embedder.embed_batch(docs);
  VectorStore store(vecs.empty() ? 0 : vecs.front().size());
  store.reserve(vecs.size());
  for (embed::Vector& vec : vecs) store.add(std::move(vec));
  return store;
}

void VectorStore::add(embed::Vector vec) {
  embed::l2_normalize(vec);
  add_prenormalized(vec);
}

void VectorStore::add_prenormalized(std::span<const float> vec) {
  if (dim_ == 0 && empty()) {
    dim_ = vec.size();
  } else if (vec.size() != dim_) {
    // Either a preset dimension (VectorStore(dim), an empty load()) or the
    // dimension fixed by the first entry.
    throw std::invalid_argument("VectorStore::add: dimension mismatch");
  }
  if (packed_.rows() == 0 && packed_.dim() != dim_) {
    packed_ = kernels::PackedF32(dim_);
  }
  packed_.append(vec.data());
}

std::span<const float> VectorStore::vec(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("VectorStore::vec: row index");
  return {packed_.row(i), dim_};
}

std::vector<SearchResult> VectorStore::similarity_search(
    const embed::Vector& query, std::size_t k) const {
  if (k == 0 || empty()) return {};
  if (query.size() != dim_) {
    throw std::invalid_argument("similarity_search: dimension mismatch");
  }
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kVectordbSearchesTotal).inc();
  pkb::util::Stopwatch watch;
  embed::Vector q = query;
  embed::l2_normalize(q);

  // Score the whole packed SoA block with one streaming kernel pass on the
  // calling thread, then select top-k with a partial sort. The query is
  // packed once (padded, aligned) so every row dot runs over the same lane
  // layout; score_range applies kernel_score's dot per row, so the scores
  // are the ones every index reports.
  const std::size_t n = size();
  pkb::util::AlignedBuffer qbuf(packed_.stride() * sizeof(float));
  packed_.pack_query(q.data(), qbuf.as<float>());
  std::vector<float> scores(n);
  packed_.score_range(qbuf.as<float>(), 0, n, scores.data());

  // Score descending, lower index first on ties — the order every index
  // reproduces.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t keep = std::min(k, n);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  std::vector<SearchResult> out;
  out.reserve(keep);
  for (std::size_t r = 0; r < keep; ++r) {
    out.push_back(SearchResult{order[r], scores[order[r]]});
  }
  metrics.histogram(obs::kVectordbSearchSeconds).observe(watch.seconds());
  return out;
}

// ---------------------------------------------------------------------------
// Binary persistence.
//
// Format: magic "PKBV" | u32 version | u64 count | u64 dim |
//         count rows of dim raw IEEE-754 floats.
// Rows carry no documents — rag::Snapshot persistence writes those in its
// own chunk section. Every read is checked: a short or garbage file throws
// std::runtime_error naming the field that failed instead of yielding a
// silently corrupt store.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'P', 'K', 'B', 'V'};
constexpr std::uint32_t kVersion = 2;

/// True when `in` is seekable and has at least `bytes` left after the
/// current position; the position is restored either way.
bool stream_holds(std::istream& in, std::uint64_t bytes) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return false;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(here);
  return end != std::istream::pos_type(-1) &&
         static_cast<std::uint64_t>(end - here) >= bytes;
}

}  // namespace

void VectorStore::save(std::ostream& out) const {
  namespace bin = pkb::util;
  out.write(kMagic, sizeof kMagic);
  bin::write_u32(out, kVersion);
  bin::write_u64(out, size());
  bin::write_u64(out, dim_);
  for (std::size_t i = 0; i < size(); ++i) {
    out.write(reinterpret_cast<const char*>(packed_.row(i)),
              static_cast<std::streamsize>(dim_ * sizeof(float)));
  }
  if (!out) throw std::runtime_error("VectorStore::save: write failed");
}

VectorStore VectorStore::load(std::istream& in) {
  namespace bin = pkb::util;
  char magic[4] = {};
  bin::read_bytes(in, magic, sizeof magic, "vector store magic");
  if (std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    throw std::runtime_error("VectorStore::load: bad magic");
  }
  const std::uint32_t version = bin::read_u32(in, "vector store version");
  if (version != kVersion) {
    throw std::runtime_error("VectorStore::load: unsupported version " +
                             std::to_string(version));
  }
  const std::uint64_t count = bin::read_count(in, "entry count");
  const std::uint64_t dim =
      bin::read_count(in, "vector dimension", /*max=*/1ULL << 24);
  if (count > 0 && dim == 0) {
    throw std::runtime_error(
        "VectorStore::load: zero dimension with nonzero entry count");
  }
  // Restore the header dimension even when the store is empty: a saved
  // dim-D empty store must reload as dim-D, not as a dim-0 store that would
  // accept vectors of any size.
  VectorStore store(static_cast<std::size_t>(dim));
  // The block is sized from the header only when the stream really holds
  // that many rows; otherwise rows are added as they arrive, so a corrupt
  // count fails at the first missing row, not at an allocation sized from
  // the header.
  if (count > 0 && stream_holds(in, count * dim * sizeof(float))) {
    store.reserve(static_cast<std::size_t>(count));
  }
  std::vector<float> row(count > 0 ? dim : 0);
  for (std::uint64_t i = 0; i < count; ++i) {
    bin::read_bytes(in, row.data(), dim * sizeof(float), "entry vector");
    store.add_prenormalized(row);
  }
  return store;
}

void VectorStore::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("VectorStore::save: cannot open " + path);
  save(out);
}

VectorStore VectorStore::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("VectorStore::load: cannot open " + path);
  try {
    return load(in);
  } catch (const std::runtime_error& err) {
    throw std::runtime_error(std::string(err.what()) + " (file: " + path +
                             ")");
  }
}

}  // namespace pkb::vectordb

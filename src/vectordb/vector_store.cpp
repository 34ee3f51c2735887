#include "vectordb/vector_store.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/binio.h"
#include "util/clock.h"

namespace pkb::vectordb {

VectorStore VectorStore::from_documents(std::vector<text::Document> docs,
                                        const embed::Embedder& embedder) {
  VectorStore store;
  std::vector<embed::Vector> vecs = embedder.embed_batch(docs);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    store.add(std::move(docs[i]), std::move(vecs[i]));
  }
  return store;
}

void VectorStore::add(text::Document doc, embed::Vector vec) {
  embed::l2_normalize(vec);
  add_prenormalized(std::move(doc), std::move(vec));
}

void VectorStore::add_prenormalized(text::Document doc, embed::Vector vec) {
  if (dim_ == 0 && docs_.empty()) {
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
  docs_.push_back(std::move(doc));
  vecs_.push_back(std::move(vec));
  obs::global_metrics()
      .gauge(obs::kVectordbEntries)
      .set(static_cast<double>(docs_.size()));
}

const text::Document& VectorStore::doc(std::size_t i) const {
  return docs_.at(i);
}

const embed::Vector& VectorStore::vec(std::size_t i) const {
  return vecs_.at(i);
}

std::vector<SearchResult> VectorStore::select_top_k(
    const std::vector<float>& scores, std::size_t k,
    const MetadataFilter* filter) const {
  std::vector<std::size_t> order;
  order.reserve(docs_.size());
  for (std::size_t i = 0; i < docs_.size(); ++i) {
    if (filter != nullptr && *filter && !(*filter)(docs_[i].metadata)) {
      continue;
    }
    order.push_back(i);
  }
  const std::size_t keep = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(keep);

  std::vector<SearchResult> out;
  out.reserve(keep);
  for (std::size_t i : order) {
    out.push_back(SearchResult{i, scores[i], &docs_[i]});
  }
  return out;
}

std::vector<SearchResult> VectorStore::similarity_search(
    const embed::Vector& query, std::size_t k,
    const MetadataFilter* filter) const {
  if (k == 0 || docs_.empty()) return {};
  if (query.size() != dim_) {
    throw std::invalid_argument("similarity_search: dimension mismatch");
  }
  pkb::resilience::consult(fault_plan_,
                           pkb::resilience::Stage::VectorSearch);
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
  pkb::util::AlignedBuffer qbuf(packed_.stride() * sizeof(float));
  packed_.pack_query(q.data(), qbuf.as<float>());
  std::vector<float> scores(docs_.size());
  packed_.score_range(qbuf.as<float>(), 0, docs_.size(), scores.data());

  std::vector<SearchResult> out = select_top_k(scores, k, filter);
  metrics.histogram(obs::kVectordbSearchSeconds).observe(watch.seconds());
  return out;
}

std::vector<SearchResult> VectorStore::similarity_search_text(
    std::string_view query, std::size_t k,
    const embed::Embedder& embedder) const {
  return similarity_search(embedder.embed(query), k);
}

std::optional<std::size_t> VectorStore::find_id(std::string_view id) const {
  for (std::size_t i = 0; i < docs_.size(); ++i) {
    if (docs_[i].id == id) return i;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Binary persistence.
//
// Format: magic "PKBV" | u32 version | u64 count | u64 dim | entries.
// Entry: id | text | metadata (u64 count, key/value strings) | dim floats.
// Strings: u64 length + bytes. Every read is checked: a short or garbage
// file throws std::runtime_error naming the field that failed instead of
// yielding a silently corrupt store.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'P', 'K', 'B', 'V'};
constexpr std::uint32_t kVersion = 1;

}  // namespace

void VectorStore::save(std::ostream& out) const {
  namespace bin = pkb::util;
  out.write(kMagic, sizeof kMagic);
  bin::write_u32(out, kVersion);
  bin::write_u64(out, docs_.size());
  bin::write_u64(out, dim_);
  for (std::size_t i = 0; i < docs_.size(); ++i) {
    bin::write_str(out, docs_[i].id);
    bin::write_str(out, docs_[i].text);
    bin::write_u64(out, docs_[i].metadata.size());
    for (const auto& [k, v] : docs_[i].metadata) {
      bin::write_str(out, k);
      bin::write_str(out, v);
    }
    out.write(reinterpret_cast<const char*>(vecs_[i].data()),
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
  VectorStore store;
  // Restore the header dimension even when the store is empty: a saved
  // dim-D empty store must reload as dim-D, not as a dim-0 store that would
  // accept vectors of any size.
  store.dim_ = static_cast<std::size_t>(dim);
  for (std::uint64_t i = 0; i < count; ++i) {
    text::Document doc;
    doc.id = bin::read_str(in, "entry id");
    doc.text = bin::read_str(in, "entry text");
    const std::uint64_t meta_count = bin::read_count(in, "metadata count");
    for (std::uint64_t m = 0; m < meta_count; ++m) {
      std::string key = bin::read_str(in, "metadata key");
      std::string value = bin::read_str(in, "metadata value");
      doc.metadata.emplace(std::move(key), std::move(value));
    }
    embed::Vector vec(dim);
    bin::read_bytes(in, reinterpret_cast<char*>(vec.data()),
                    dim * sizeof(float), "entry vector");
    store.add_prenormalized(std::move(doc), std::move(vec));
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

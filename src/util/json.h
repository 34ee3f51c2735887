#pragma once
// Hand-rolled JSON value, parser, and serializer.
//
// The LLM supports a JSON output mode (§III-E: "LLMs are now making it
// possible to return their output in JSON, making postprocessing easier"):
// the simulated model writes its JSON answers with this type and the
// postprocessor parses them back. The tracer's Chrome export and the benches'
// reports are written with it too. No third-party JSON library is used.
//
// The parser accepts every JSON type; a value's type() tells which one it
// is. Nesting deeper than kJsonMaxDepth is rejected, so a hostile model
// response cannot exhaust the stack of the recursive-descent parser.
//
// Object key order is preserved (insertion order), which keeps serialized
// output stable and diffs readable.

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pkb::util {

/// Deepest array/object nesting Json::parse accepts. The parser recurses
/// once per level; past this bound it throws JsonError instead.
inline constexpr int kJsonMaxDepth = 256;

/// Error thrown by the parser on malformed input and by typed accessors on
/// type mismatch.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// A JSON value: null, bool, number (double), string, array, or object.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  /// Constructs null.
  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int v) : type_(Type::Number), num_(v) {}
  Json(std::int64_t v) : type_(Type::Number), num_(static_cast<double>(v)) {}
  Json(std::size_t v) : type_(Type::Number), num_(static_cast<double>(v)) {}
  Json(double v) : type_(Type::Number), num_(v) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), str_(s) {}
  Json(Array a) : type_(Type::Array), arr_(std::move(a)) {}
  Json(Object o) : type_(Type::Object), obj_(std::move(o)) {}

  /// Factory helpers for clarity at call sites.
  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors; throw JsonError on type mismatch.
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Object member lookup; returns nullptr when absent (throws if not an
  /// object).
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Insert or overwrite an object member (throws if not an object).
  Json& set(std::string key, Json value);

  /// Append to an array (throws if not an array).
  Json& push_back(Json value);

  /// Serialize. `indent` <= 0 produces compact single-line output; > 0
  /// pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse a complete JSON document. Throws JsonError with a byte offset on
  /// malformed input or on nesting deeper than kJsonMaxDepth; trailing
  /// non-whitespace is an error.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Escape a string for embedding in JSON (without surrounding quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace pkb::util

#pragma once
// Checked little-endian binary I/O for the PKBT trace format
// (replay/trace.cpp). Every read validates
// the stream state and throws std::runtime_error naming the field that
// failed, so a truncated or corrupt file surfaces as a clear error instead
// of a garbage in-memory structure.

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace pkb::util {

/// Upper bound accepted for any serialized string or array length. Files
/// claiming more are corrupt (the whole corpus is far smaller).
inline constexpr std::uint64_t kBinioMaxLength = 1ULL << 30;

inline void write_u8(std::ostream& out, std::uint8_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

inline void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

inline void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

inline void write_f64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

inline void write_str(std::ostream& out, const std::string& s) {
  write_u64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Counted float array (embedding vectors): length + raw IEEE-754 payload.
inline void write_f32_array(std::ostream& out, const std::vector<float>& v) {
  write_u64(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
}

inline void read_bytes(std::istream& in, void* dst, std::size_t n,
                       const char* what) {
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!in || in.gcount() != static_cast<std::streamsize>(n)) {
    throw std::runtime_error(std::string("truncated read: ") + what);
  }
}

[[nodiscard]] inline std::uint8_t read_u8(std::istream& in, const char* what) {
  std::uint8_t v = 0;
  read_bytes(in, &v, sizeof v, what);
  return v;
}

[[nodiscard]] inline std::uint32_t read_u32(std::istream& in,
                                            const char* what) {
  std::uint32_t v = 0;
  read_bytes(in, &v, sizeof v, what);
  return v;
}

[[nodiscard]] inline std::uint64_t read_u64(std::istream& in,
                                            const char* what) {
  std::uint64_t v = 0;
  read_bytes(in, &v, sizeof v, what);
  return v;
}

/// Length-checked counted read: a corrupt length fails before allocation.
[[nodiscard]] inline std::uint64_t read_count(
    std::istream& in, const char* what,
    std::uint64_t max = kBinioMaxLength) {
  const std::uint64_t n = read_u64(in, what);
  if (n > max) {
    throw std::runtime_error(std::string("implausible count for ") + what);
  }
  return n;
}

[[nodiscard]] inline double read_f64(std::istream& in, const char* what) {
  double v = 0.0;
  read_bytes(in, &v, sizeof v, what);
  return v;
}

[[nodiscard]] inline std::vector<float> read_f32_array(
    std::istream& in, const char* what,
    std::uint64_t max_len = kBinioMaxLength) {
  const std::uint64_t len = read_count(in, what, max_len);
  std::vector<float> v(len);
  if (len > 0) read_bytes(in, v.data(), len * sizeof(float), what);
  return v;
}

[[nodiscard]] inline std::string read_str(std::istream& in, const char* what,
                                          std::uint64_t max_len =
                                              kBinioMaxLength) {
  const std::uint64_t len = read_count(in, what, max_len);
  std::string s(len, '\0');
  if (len > 0) read_bytes(in, s.data(), len, what);
  return s;
}

}  // namespace pkb::util

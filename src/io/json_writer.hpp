// Minimal JSON emitter for machine-readable bench/tool output.  Not a
// general JSON library: write-only, with correct string escaping and
// streaming object/array scopes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dabs::io {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Scopes.  Keys are required inside objects, forbidden inside arrays.
  JsonWriter& begin_object(const std::string& key = "");
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key = "");
  JsonWriter& end_array();

  /// Values.  The narrow integer overloads exist so callers with int32 /
  /// uint32 fields (e.g. SolveReport::restarts) don't hit an ambiguous
  /// int64/uint64/double overload set.
  JsonWriter& value(const std::string& key, const std::string& v);
  JsonWriter& value(const std::string& key, const char* v);
  JsonWriter& value(const std::string& key, std::int64_t v);
  JsonWriter& value(const std::string& key, std::uint64_t v);
  JsonWriter& value(const std::string& key, std::int32_t v);
  JsonWriter& value(const std::string& key, std::uint32_t v);
  JsonWriter& value(const std::string& key, double v);
  JsonWriter& value(const std::string& key, bool v);

  /// Array elements.  The uint64 overload keeps full-range job ids exact
  /// (an int64 conversion would flip the top bit).
  JsonWriter& element(const std::string& v);
  JsonWriter& element(std::int64_t v);
  JsonWriter& element(std::uint64_t v);
  JsonWriter& element(double v);

  /// True once every scope is closed.
  bool complete() const noexcept { return stack_.empty() && started_; }

  /// `s` with JSON string escaping applied: the bytes the writer emits
  /// between the quotes of a key or string value.
  static std::string escape(const std::string& s);

 private:
  enum class Scope { kObject, kArray };
  void comma_and_key(const std::string& key);
  /// `s` quoted and escaped, written straight into the stream.
  void write_string(std::string_view s);

  std::ostream& out_;
  std::vector<std::pair<Scope, bool>> stack_;  // (scope, has_items)
  bool started_ = false;
};

}  // namespace dabs::io

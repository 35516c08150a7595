#include "io/json_writer.hpp"

#include <cmath>
#include <cstddef>
#include <ostream>

#include "util/assert.hpp"

namespace dabs::io {

JsonWriter::JsonWriter(std::ostream& out) : out_(out) {}

JsonWriter::~JsonWriter() {
  // Close any scopes the caller forgot; keeps output parseable even on
  // error paths.
  while (!stack_.empty()) {
    out_.put(stack_.back().first == Scope::kObject ? '}' : ']');
    stack_.pop_back();
  }
}

namespace {

/// Calls `emit(data, size)` with `s` JSON-escaped: each run of bytes that
/// needs no escape in one call, and each escape sequence where it falls.
/// Control bytes without a short form become \u00xx (lowercase hex).
template <class Emit>
void escape_into(std::string_view s, Emit&& emit) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char* run = s.data();
  const char* const end = run + s.size();
  for (const char* p = run; p != end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    if (p != run) emit(run, static_cast<std::size_t>(p - run));
    run = p + 1;
    switch (c) {
      case '"':
        emit("\\\"", 2);
        break;
      case '\\':
        emit("\\\\", 2);
        break;
      case '\n':
        emit("\\n", 2);
        break;
      case '\r':
        emit("\\r", 2);
        break;
      case '\t':
        emit("\\t", 2);
        break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        emit(u, sizeof u);
      }
    }
  }
  if (run != end) emit(run, static_cast<std::size_t>(end - run));
}

}  // namespace

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  escape_into(s, [&out](const char* p, std::size_t n) { out.append(p, n); });
  return out;
}

void JsonWriter::write_string(std::string_view s) {
  out_.put('"');
  escape_into(s, [this](const char* p, std::size_t n) {
    out_.write(p, static_cast<std::streamsize>(n));
  });
  out_.put('"');
}

void JsonWriter::comma_and_key(const std::string& key) {
  if (!stack_.empty()) {
    if (stack_.back().second) out_.put(',');
    stack_.back().second = true;
    if (stack_.back().first == Scope::kObject) {
      DABS_CHECK(!key.empty(), "object members require a key");
      write_string(key);
      out_.put(':');
    } else {
      DABS_CHECK(key.empty(), "array elements must not carry a key");
    }
  } else {
    DABS_CHECK(!started_, "only one top-level JSON value is allowed");
    DABS_CHECK(key.empty(), "the top-level value has no key");
  }
  started_ = true;
}

JsonWriter& JsonWriter::begin_object(const std::string& key) {
  comma_and_key(key);
  out_.put('{');
  stack_.emplace_back(Scope::kObject, false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  DABS_CHECK(!stack_.empty() && stack_.back().first == Scope::kObject,
             "end_object without matching begin_object");
  out_.put('}');
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& key) {
  comma_and_key(key);
  out_.put('[');
  stack_.emplace_back(Scope::kArray, false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  DABS_CHECK(!stack_.empty() && stack_.back().first == Scope::kArray,
             "end_array without matching begin_array");
  out_.put(']');
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, const std::string& v) {
  comma_and_key(key);
  write_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, const char* v) {
  comma_and_key(key);
  write_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, std::int64_t v) {
  comma_and_key(key);
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, std::uint64_t v) {
  comma_and_key(key);
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, std::int32_t v) {
  return value(key, static_cast<std::int64_t>(v));
}

JsonWriter& JsonWriter::value(const std::string& key, std::uint32_t v) {
  return value(key, static_cast<std::uint64_t>(v));
}

JsonWriter& JsonWriter::value(const std::string& key, double v) {
  comma_and_key(key);
  DABS_CHECK(std::isfinite(v), "JSON cannot represent non-finite numbers");
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, bool v) {
  comma_and_key(key);
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::element(const std::string& v) {
  comma_and_key("");
  write_string(v);
  return *this;
}

JsonWriter& JsonWriter::element(std::int64_t v) {
  comma_and_key("");
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::element(std::uint64_t v) {
  comma_and_key("");
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::element(double v) {
  comma_and_key("");
  DABS_CHECK(std::isfinite(v), "JSON cannot represent non-finite numbers");
  out_ << v;
  return *this;
}

}  // namespace dabs::io

#include "ccov/util/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace ccov::util::json {

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

bool Reader::parse(Value* out, std::string* error) {
  skip_ws();
  if (!value(out, error)) return false;
  skip_ws();
  if (p_ != end_) {
    *error = "trailing characters after JSON value";
    return false;
  }
  return true;
}

void Reader::skip_ws() {
  while (p_ != end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
}

bool Reader::literal(const char* word, std::string* error) {
  for (const char* w = word; *w; ++w, ++p_) {
    if (p_ == end_ || *p_ != *w) {
      *error = std::string("expected '") + word + "'";
      return false;
    }
  }
  return true;
}

bool Reader::value(Value* out, std::string* error) {
  if (p_ == end_) {
    *error = "unexpected end of input";
    return false;
  }
  switch (*p_) {
    case '{':
    case '[': {
      if (depth_ >= kMaxDepth) {
        *error = "nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels";
        return false;
      }
      ++depth_;
      const bool ok =
          *p_ == '{' ? object(out, error) : array(out, error);
      --depth_;
      return ok;
    }
    case '"':
      out->type = Value::Type::kString;
      return string(&out->string, error);
    case 't':
      out->type = Value::Type::kBool;
      out->boolean = true;
      return literal("true", error);
    case 'f':
      out->type = Value::Type::kBool;
      out->boolean = false;
      return literal("false", error);
    case 'n':
      out->type = Value::Type::kNull;
      return literal("null", error);
    default:
      return number(out, error);
  }
}

bool Reader::object(Value* out, std::string* error) {
  out->type = Value::Type::kObject;
  // Protocol objects are small (a request carries 2-6 fields): one
  // up-front slab beats the 1-2-4 growth copies on every parse.
  out->object.reserve(4);
  ++p_;  // '{'
  skip_ws();
  if (p_ != end_ && *p_ == '}') {
    ++p_;
    return true;
  }
  for (;;) {
    skip_ws();
    std::string key;
    if (p_ == end_ || *p_ != '"' || !string(&key, error)) {
      if (error->empty()) *error = "expected object key";
      return false;
    }
    skip_ws();
    if (p_ == end_ || *p_ != ':') {
      *error = "expected ':' after key '" + key + "'";
      return false;
    }
    ++p_;
    skip_ws();
    Value val;
    if (!value(&val, error)) return false;
    out->object.emplace_back(std::move(key), std::move(val));
    skip_ws();
    if (p_ != end_ && *p_ == ',') {
      ++p_;
      continue;
    }
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    *error = "expected ',' or '}' in object";
    return false;
  }
}

bool Reader::array(Value* out, std::string* error) {
  out->type = Value::Type::kArray;
  ++p_;  // '['
  skip_ws();
  if (p_ != end_ && *p_ == ']') {
    ++p_;
    return true;
  }
  for (;;) {
    skip_ws();
    Value val;
    if (!value(&val, error)) return false;
    out->array.push_back(std::move(val));
    skip_ws();
    if (p_ != end_ && *p_ == ',') {
      ++p_;
      continue;
    }
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    *error = "expected ',' or ']' in array";
    return false;
  }
}

bool Reader::string(std::string* out, std::string* error) {
  ++p_;  // '"'
  out->clear();
  while (p_ != end_ && *p_ != '"') {
    char c = *p_++;
    if (c == '\\') {
      if (p_ == end_) break;
      const char esc = *p_++;
      switch (esc) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        default:
          *error = "unsupported escape sequence";
          return false;
      }
    }
    out->push_back(c);
  }
  if (p_ == end_) {
    *error = "unterminated string";
    return false;
  }
  ++p_;  // closing '"'
  return true;
}

bool Reader::number(Value* out, std::string* error) {
  const char* start = p_;
  if (p_ != end_ && *p_ == '-') ++p_;
  while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
  if (p_ == start || (*start == '-' && p_ == start + 1)) {
    *error = "invalid number";
    return false;
  }
  if (p_ != end_ && (*p_ == '.' || *p_ == 'e' || *p_ == 'E')) {
    *error = "non-integer numbers are not part of the serve protocol";
    return false;
  }
  errno = 0;
  out->type = Value::Type::kInt;
  out->integer = std::strtoll(std::string(start, p_).c_str(), nullptr, 10);
  if (errno == ERANGE) {
    *error = "integer out of range";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void append_escaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(&out, s);
  return out;
}

void JsonWriter::comma_for_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_.push_back(',');
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_for_value();
  out_.push_back('{');
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_.push_back('}');
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_for_value();
  out_.push_back('[');
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_.push_back(']');
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (!has_element_.empty()) {
    if (has_element_.back()) out_.push_back(',');
    has_element_.back() = true;
  }
  out_.push_back('"');
  out_ += k;
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_for_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_for_value();
  // to_chars into a stack buffer: responses render dozens of integers
  // per line, and a std::to_string temporary each would dominate the
  // serve hot path. Bytes are identical either way.
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // 20 digits always fit an int64
  out_.append(buf, end);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_for_value();
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out_.append(buf, end);
  return *this;
}

JsonWriter& JsonWriter::value_string(std::string_view v) {
  comma_for_value();
  append_escaped(&out_, v);
  return *this;
}

}  // namespace ccov::util::json

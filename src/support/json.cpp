#include "support/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace certkit::support {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  // Artifacts are shallow by construction; the depth cap turns a malicious
  // deeply-nested input into a parse error instead of a stack overflow.
  static constexpr int kMaxDepth = 64;

  bool Fail(const std::string& what) {
    if (error_->empty()) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->members[key] = std::move(value);
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->items.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("dangling escape");
        const char esc = text_[pos_];
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Fail("short \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text_[pos_ + i];
              if (!std::isxdigit(static_cast<unsigned char>(h))) {
                return Fail("bad \\u escape");
              }
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0'
                                  : (h | 0x20) - 'a' + 10);
            }
            // Our emitter only \u-escapes control characters; decode the
            // single-byte range and reject the rest rather than silently
            // mangling surrogate pairs.
            if (code > 0xFF) return Fail("non-latin \\u escape unsupported");
            out->push_back(static_cast<char>(code));
            pos_ += 4;
            break;
          }
          default:
            return Fail("unknown escape");
        }
        ++pos_;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      } else {
        out->push_back(c);
        ++pos_;
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    double value = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (res.ec == std::errc::result_out_of_range) {
      // from_chars reports the nearest representable magnitude; a replay
      // artifact never emits such literals (JsonNumber is round-trip), so
      // surface it rather than clamp silently.
      return Fail("numeric literal out of range");
    }
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_) {
      return Fail("malformed number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    out->literal = std::string(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  std::string local_error;
  Parser parser(text, error != nullptr ? error : &local_error);
  if (error != nullptr) error->clear();
  *out = JsonValue();
  return parser.Parse(out);
}

namespace {

void AppendJson(const JsonValue& v, std::string* out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += v.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      if (!v.literal.empty()) {
        *out += v.literal;
      } else {
        *out += JsonNumber(v.number);
      }
      break;
    case JsonValue::Kind::kString:
      *out += JsonEscape(v.string);
      break;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items) {
        if (!first) out->push_back(',');
        first = false;
        AppendJson(item, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members) {
        if (!first) out->push_back(',');
        first = false;
        *out += JsonEscape(key);
        out->push_back(':');
        AppendJson(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

// Exact integer literal of type T: fractions, exponents and overflow fail.
template <class T>
const char* IntegerLiteral(const JsonValue* v, T* out, const char* what) {
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    return "missing or not a number";
  }
  const char* end = v->literal.data() + v->literal.size();
  const auto res = std::from_chars(v->literal.data(), end, *out);
  return res.ec == std::errc() && res.ptr == end ? nullptr : what;
}

bool Member(const std::string& key, const char* what, std::string* error) {
  if (what != nullptr) *error = "field '" + key + "': " + what;
  return what == nullptr;
}

}  // namespace

std::string JsonToString(const JsonValue& v) {
  std::string out;
  AppendJson(v, &out);
  return out;
}

const char* JsonAs(const JsonValue* v, std::int64_t* out) {
  return IntegerLiteral(v, out, "not a 64-bit integer");
}

const char* JsonAs(const JsonValue* v, std::uint64_t* out) {
  return IntegerLiteral(v, out, "not a 64-bit unsigned integer");
}

const char* JsonAs(const JsonValue* v, int* out) {
  return IntegerLiteral(v, out, "not an integer in int range");
}

const char* JsonAs(const JsonValue* v, double* out) {
  const bool number = v != nullptr && v->kind == JsonValue::Kind::kNumber;
  const bool null = v != nullptr && v->is_null();
  *out = number ? v->number : std::numeric_limits<double>::quiet_NaN();
  return number || null ? nullptr : "missing or not a number";
}

const char* JsonAs(const JsonValue* v, bool* out) {
  const bool ok = v != nullptr && v->kind == JsonValue::Kind::kBool;
  if (ok) *out = v->boolean;
  return ok ? nullptr : "missing or not a bool";
}

const char* JsonAs(const JsonValue* v, std::string* out) {
  const bool ok = v != nullptr && v->kind == JsonValue::Kind::kString;
  if (ok) *out = v->string;
  return ok ? nullptr : "missing or not a string";
}

bool JsonGetI64(const JsonValue& obj, const std::string& key,
                std::int64_t* out, std::string* error) {
  return Member(key, JsonAs(obj.Find(key), out), error);
}

bool JsonGetU64(const JsonValue& obj, const std::string& key,
                std::uint64_t* out, std::string* error) {
  return Member(key, JsonAs(obj.Find(key), out), error);
}

bool JsonGetInt(const JsonValue& obj, const std::string& key, int* out,
                std::string* error) {
  return Member(key, JsonAs(obj.Find(key), out), error);
}

bool JsonGetBool(const JsonValue& obj, const std::string& key, bool* out,
                 std::string* error) {
  return Member(key, JsonAs(obj.Find(key), out), error);
}

bool JsonGetString(const JsonValue& obj, const std::string& key,
                   std::string* out, std::string* error) {
  return Member(key, JsonAs(obj.Find(key), out), error);
}

}  // namespace certkit::support

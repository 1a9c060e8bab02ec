// certkit support: minimal JSON emit + parse helpers.
//
// The toolkit's JSON emitters were historically printf-built, which is fine
// for human-facing reports but breaks the moment an artifact has to *parse
// back* — %.3f loses double precision, raw string interpolation breaks on a
// quote, and non-finite floats emit tokens JSON does not have. This header
// provides the three primitives every round-trip emitter needs:
//
//   JsonEscape(s)   - quoted, escaped JSON string literal for s
//   JsonNumber(d)   - shortest representation that parses back to exactly
//                     d (std::to_chars round-trip); non-finite -> "null",
//                     because JSON has no Inf/NaN tokens and a replay
//                     artifact must stay machine-parseable
//   JsonValue/ParseJson - a small recursive-descent parser for reading
//                     artifacts back (objects, arrays, numbers, strings
//                     with escapes, bools, null)
//
// This is certkit's one JSON reader: round-trip artifact IO and the obs
// validators (trace and flight dump, behind tools/trace_lint) all parse
// with it. The validators stay independent of the emitters they check,
// which escape and format with their own code. The record reader
// (support/record.h) reads every persisted campaign record through the
// typed JsonAs/JsonGet* reads below, as do serve requests and validators.
#ifndef CERTKIT_SUPPORT_JSON_H_
#define CERTKIT_SUPPORT_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace certkit::support {

// Quoted JSON string literal: JsonEscape("a\"b") == "\"a\\\"b\"".
// Control characters are \u-escaped; the output is pure ASCII-safe JSON
// (bytes >= 0x80 pass through untouched, which is valid for UTF-8 input).
std::string JsonEscape(std::string_view s);

// Shortest decimal form that round-trips to exactly `v` through strtod.
// Integral values print without an exponent or trailing ".0" where the
// shortest form allows (to_chars general format). Non-finite values emit
// "null" — the parse side reads that as JsonValue null, and consumers
// decide what a missing sample means.
std::string JsonNumber(double v);

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  // kNumber: the raw token text. Doubles above 2^53 (e.g. 64-bit seeds
  // printed as integers) do not survive the double `number` field; integer
  // consumers re-parse this literal with from_chars instead.
  std::string literal;
  std::string string;
  std::vector<JsonValue> items;                 // kArray
  std::map<std::string, JsonValue> members;     // kObject

  bool is_null() const { return kind == Kind::kNull; }
  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Parses `text` (one JSON document, trailing whitespace allowed) into *out.
// On failure returns false and sets *error to a byte-offset diagnostic.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

// Serializes `v` back to one-line JSON text. Numbers re-emit their raw
// parsed token (JsonValue::literal) when present — so 64-bit integer
// literals survive the double field — and fall back to JsonNumber(number)
// otherwise. Object members emit in key (map) order, so emit → parse →
// emit is byte-identical; this is the normal form every checkpoint and
// corpus-store payload is compared in.
std::string JsonToString(const JsonValue& v);

// Typed reads of one value (`v` == nullptr: absent): nullptr on success,
// else what is wrong ("missing or not a number", ...). Integers re-parse
// JsonValue::literal as an exact literal of the target type (the double
// `number` loses precision above 2^53, and a cast double is undefined out
// of range), so "1e3", "2.0" and out-of-range values fail. A double reads
// null, JsonNumber's encoding of a non-finite value, as NaN.
const char* JsonAs(const JsonValue* v, std::int64_t* out);
const char* JsonAs(const JsonValue* v, std::uint64_t* out);
const char* JsonAs(const JsonValue* v, int* out);
const char* JsonAs(const JsonValue* v, double* out);
const char* JsonAs(const JsonValue* v, bool* out);
const char* JsonAs(const JsonValue* v, std::string* out);

// The same reads of an object member. All return false with
// *error = "field '<key>': <what>" on absence or type mismatch.
bool JsonGetI64(const JsonValue& obj, const std::string& key,
                std::int64_t* out, std::string* error);
bool JsonGetU64(const JsonValue& obj, const std::string& key,
                std::uint64_t* out, std::string* error);
bool JsonGetInt(const JsonValue& obj, const std::string& key, int* out,
                std::string* error);
bool JsonGetBool(const JsonValue& obj, const std::string& key, bool* out,
                 std::string* error);
bool JsonGetString(const JsonValue& obj, const std::string& key,
                   std::string* out, std::string* error);

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_JSON_H_

// certkit support: one field list per persisted record, walked by one JSON
// writer and one validating reader. A record lists its members once, in a
// static member template (Self is the record type, const when written):
//
//   template <class Io, class Self>
//   static void Fields(Io& io, Self& r) {
//     io("id", r.id);                        // a member, in list order
//     io("digest", support::Hex{r.digest});  // u64s as 16 hex digits
//     io("faults", r.faults);                // an array of records
//     io.Check(r, ValidateR);                // reader: reject, not abort
//   }
//
// Scalars map to JSON scalars (doubles via JsonNumber), ranges and Pair(a,
// b) to arrays, std::map<std::string, V> and any type with Fields (a view
// holding a reference included) to objects; Named{e, name, count} is an
// enum's name and Keyed{"id", map} a std::map<K, V> as an array of V
// objects carrying their key as "id". The reader requires every listed
// member, ignores unlisted ones, reads integers as exact literals (JsonAs),
// and stops at the first failure: "field '<key>': <what>", naming the
// innermost member or, for a Check, the key the record sits under.
//
// BinaryWriter and BinaryReader walk the same lists in a compact host-order
// form, for records the writing machine reads back (the analysis cache,
// whose frame carries the digest). Members follow list order, without keys:
// bool, Named and Bits take one byte; int32, uint32, int64 and Hex u64s are
// fixed-width; other u64s (sizes), string lengths and vector counts are
// LEB128. Item types without a field list (Elided among them) go to the
// Codec, an Encode/Decode overload set that uses the primitives below; a
// Codec with EncodeAll/DecodeAll for a vector type writes and reads whole
// vectors of it, count included. The reader bounds-checks every read,
// refuses a count larger than the bytes left, range-checks each Named
// against its count and reports the first failure as JsonReader does.
#ifndef CERTKIT_SUPPORT_RECORD_H_
#define CERTKIT_SUPPORT_RECORD_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <ranges>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/fnv.h"
#include "support/json.h"

namespace certkit::support {

template <class T>
struct Hex {
  T& value;
};

template <class E, class NameFn>
struct Named {
  E& value;
  NameFn name;
  int count;  // `name` covers the enum values 0..count-1
};

template <class Map>
struct Keyed {
  const char* key;
  Map& map;
};

template <class A, class B>
std::pair<A&, B&> Pair(A& a, B& b) {
  return {a, b};
}

// Up to eight flags packed into one byte, the first in bit 0 (binary only).
template <class B, std::size_t N>
struct Bits {
  std::array<B*, N> flags;
};
template <class B, class... More>
Bits<B, 1 + sizeof...(More)> PackBits(B& first, More&... more) {
  static_assert(sizeof...(More) < 8);
  return {{&first, &more...}};
}

// A string the reader already holds (binary only): the Codec writes what
// stands for it and checks that on reading.
template <class S>
struct Elided {
  S& text;
};

class JsonWriter {
 public:
  // One-line JSON of `value`: a record, a container or a scalar.
  template <class T>
  static std::string Write(const T& value) {
    JsonWriter w;
    w.Put(value);
    return std::move(w.out_);
  }

  // A versioned document: "schema" first, then the members of each record.
  template <class... R>
  static std::string Document(int schema, const R&... records) {
    JsonWriter w;
    w.Object([&] {
      w("schema", schema);
      (R::Fields(w, records), ...);
    });
    return std::move(w.out_);
  }

  // The field-list interface.
  template <class T>
  void operator()(const char* key, const T& value) {
    out_ += first_ ? "" : ",";
    first_ = false;
    out_ += JsonEscape(key) + ':';
    Put(value);
  }
  template <class R, class Validate>
  void Check(const R&, Validate) {}

 private:
  JsonWriter() = default;

  void Put(bool v) { out_ += v ? "true" : "false"; }
  void Put(int v) { out_ += std::to_string(v); }
  void Put(std::int64_t v) { out_ += std::to_string(v); }
  void Put(std::uint64_t v) {
    out_ += hex_ ? '"' + HexU64(v) + '"' : std::to_string(v);
  }
  void Put(double v) { out_ += JsonNumber(v); }
  void Put(const std::string& v) { out_ += JsonEscape(v); }
  template <class T>
  void Put(const Hex<T>& hex) {
    hex_ = true;
    Put(hex.value);
    hex_ = false;
  }
  template <class E, class NameFn>
  void Put(const Named<E, NameFn>& named) {
    out_ += JsonEscape(named.name(named.value));
  }
  template <class Map>
  void Put(const Keyed<Map>& keyed) {
    Array(keyed.map, [&](const auto& entry) {
      Object([&] {
        (*this)(keyed.key, entry.first);
        std::remove_const_t<Map>::mapped_type::Fields(*this, entry.second);
      });
    });
  }
  template <class A, class B>
  void Put(const std::pair<A, B>& pair) {
    out_ += '[';
    Put(pair.first);
    out_ += ',';
    Put(pair.second);
    out_ += ']';
  }
  template <std::ranges::range C>
  void Put(const C& items) {
    Array(items, [&](const auto& item) { Put(item); });
  }
  template <class V>
  void Put(const std::map<std::string, V>& map) {
    Object([&] {
      for (const auto& [key, value] : map) (*this)(key.c_str(), value);
    });
  }
  template <class R>
  void Put(const R& record) {
    Object([&] { R::Fields(*this, record); });
  }

  template <class C, class Each>
  void Array(const C& items, Each each) {
    out_ += '[';
    const char* separator = "";
    for (const auto& item : items) {
      out_ += separator;
      separator = ",";
      each(item);
    }
    out_ += ']';
  }
  template <class Body>
  void Object(Body body) {
    out_ += '{';
    const bool outer_first = first_;
    first_ = true;
    body();
    first_ = outer_first;
    out_ += '}';
  }

  std::string out_;
  bool first_ = true;  // no member written yet in the innermost object
  bool hex_ = false;   // inside a Hex: u64s print as hex strings
};

class JsonReader {
 public:
  // Reads `v` into *out: a record, a container or a scalar. False with
  // *error set to the first failure.
  template <class T>
  static bool Read(const JsonValue& v, T* out, std::string* error) {
    JsonReader reader(error);
    reader.Get(&v, *out);
    return reader.ok_;
  }

  explicit JsonReader(std::string* error) : error_(error) {}
  JsonReader(const JsonReader&) = delete;  // at_ points into root_
  JsonReader& operator=(const JsonReader&) = delete;

  // Parses `text` as a versioned document: one JSON object whose "schema"
  // is `schema` ("unsupported <what> schema N" otherwise). Fields then reads
  // a record's members from it; both return false once anything failed.
  bool Open(std::string_view text, const char* what, int schema);
  template <class R>
  bool Fields(R* record) {
    if (ok_) R::Fields(*this, *record);
    return ok_;
  }

  // The field-list interface.
  template <class T>
  void operator()(const char* key, T&& field) {
    if (ok_) {
      at_.key = key;
      Get(at_.obj->Find(key), field);
    }
  }
  template <class R, class Validate>
  void Check(const R& record, Validate validate) {
    const std::string reason = ok_ ? validate(record) : "";
    at_.key = at_.record_key;
    Report(reason.empty() ? nullptr : reason.c_str());
  }

 private:
  // Records the first failure; nullptr means none.
  void Report(const char* what);
  // The items of array `v`, exactly `size` of them unless size is 0; none
  // once anything failed.
  const std::vector<JsonValue>& Items(const JsonValue* v, std::size_t size);

  void Get(const JsonValue* v, bool& out) { Report(JsonAs(v, &out)); }
  void Get(const JsonValue* v, int& out) { Report(JsonAs(v, &out)); }
  void Get(const JsonValue* v, std::int64_t& out) { Report(JsonAs(v, &out)); }
  void Get(const JsonValue* v, std::uint64_t& out);
  void Get(const JsonValue* v, double& out) { Report(JsonAs(v, &out)); }
  void Get(const JsonValue* v, std::string& out) { Report(JsonAs(v, &out)); }
  template <class T>
  void Get(const JsonValue* v, Hex<T>& hex) {
    hex_ = true;
    Get(v, hex.value);
    hex_ = false;
  }
  template <class E, class NameFn>
  void Get(const JsonValue* v, Named<E, NameFn>& named) {
    std::string name;
    Report(JsonAs(v, &name));
    int i = 0;
    while (i < named.count && name != named.name(static_cast<E>(i))) ++i;
    Report(i < named.count ? nullptr : "unknown name");
    if (ok_) named.value = static_cast<E>(i);
  }
  template <class Map>
  void Get(const JsonValue* v, Keyed<Map>& keyed) {
    keyed.map.clear();
    for (const JsonValue& item : Items(v, 0)) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      Enter(&item, [&] {
        (*this)(keyed.key, key);
        Map::mapped_type::Fields(*this, value);
      });
      keyed.map[key] = std::move(value);
    }
  }
  template <class A, class B>
  void Get(const JsonValue* v, std::pair<A, B>& pair) {
    const std::vector<JsonValue>& items = Items(v, 2);
    if (!items.empty()) {
      Get(&items[0], pair.first);
      Get(&items[1], pair.second);
    }
  }
  template <class T, std::size_t N>
  void Get(const JsonValue* v, std::array<T, N>& out) {
    std::size_t i = 0;
    for (const JsonValue& item : Items(v, N)) Get(&item, out[i++]);
  }
  template <std::ranges::range C>
  void Get(const JsonValue* v, C& out) {
    out.clear();
    for (const JsonValue& item : Items(v, 0)) {
      typename C::value_type value{};
      Get(&item, value);
      out.insert(out.end(), std::move(value));
    }
  }
  template <class V>
  void Get(const JsonValue* v, std::map<std::string, V>& out) {
    out.clear();
    Enter(v, [&] {
      for (const auto& [key, member] : at_.obj->members) {
        at_.key = key.c_str();
        Get(&member, out[key]);
      }
    });
  }
  template <class R>
  void Get(const JsonValue* v, R& record) {
    Enter(v, [&] { R::Fields(*this, record); });
  }

  // Runs `body` with `v`, which must be an object, as the current object.
  template <class Body>
  void Enter(const JsonValue* v, Body body) {
    const bool object = v != nullptr && v->kind == JsonValue::Kind::kObject;
    Report(object ? nullptr : "missing or not an object");
    const Position outer = at_;
    at_ = {v, at_.key, at_.key};
    if (ok_) body();
    at_ = outer;
  }

  struct Position {
    const JsonValue* obj = nullptr;    // the object being read
    const char* key = nullptr;         // the member being read
    const char* record_key = nullptr;  // the key obj sits under
  };

  std::string* error_;
  bool ok_ = true;
  JsonValue root_;  // the Open()ed document
  Position at_;
  bool hex_ = false;  // inside a Hex
  const std::vector<JsonValue> no_items_;
};

struct NoCodec {};

template <class Codec = NoCodec>
class BinaryWriter {
 public:
  explicit BinaryWriter(Codec codec = {}) : codec_(codec) {}

  // The bytes of `values`, one after another.
  template <class... T>
  static std::string Write(const T&... values) {
    return BinaryWriter().Append(values...).Take();
  }

  template <class... T>
  BinaryWriter& Append(const T&... values) {
    (Put(values), ...);
    return *this;
  }
  std::string Take() { return std::move(out_); }

  // The field-list interface.
  template <class T>
  void operator()(const char*, const T& value) {
    Put(value);
  }
  template <class R, class Validate>
  void Check(const R&, Validate) {}

  // Primitives for the Codec.
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Var(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) U8((v & 0x7F) | 0x80);
    U8(v);
  }
  void Str(std::string_view s) {
    Var(s.size());
    out_.append(s);
  }

 private:
  template <class T>
  void Fixed(T v) {
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    out_.append(bytes, sizeof v);
  }

  void Put(bool v) { U8(v ? 1 : 0); }
  void Put(std::int32_t v) { Fixed(v); }
  void Put(std::uint32_t v) { Fixed(v); }
  void Put(std::int64_t v) { Fixed(v); }
  void Put(std::uint64_t v) { Var(v); }
  void Put(const std::string& v) { Str(v); }
  template <class T>
  void Put(const Hex<T>& hex) {
    Fixed<std::uint64_t>(hex.value);
  }
  template <class E, class NameFn>
  void Put(const Named<E, NameFn>& named) {
    U8(static_cast<std::uint8_t>(named.value));
  }
  template <class B, std::size_t N>
  void Put(const Bits<B, N>& bits) {
    unsigned byte = 0;
    for (std::size_t i = 0; i < N; ++i) byte |= (*bits.flags[i] ? 1u : 0u) << i;
    U8(byte);
  }
  template <class T>
  void Put(const std::vector<T>& items) {
    if constexpr (requires { codec_.EncodeAll(*this, items); }) {
      codec_.EncodeAll(*this, items);
    } else {
      Var(items.size());
      for (const T& item : items) Put(item);
    }
  }
  template <class R>
  void Put(const R& record) {
    if constexpr (requires { R::Fields(*this, record); }) {
      R::Fields(*this, record);
    } else {
      codec_.Encode(*this, record);
    }
  }

  Codec codec_;
  std::string out_;
};

template <class Codec = NoCodec>
class BinaryReader {
 public:
  BinaryReader(std::string_view bytes, std::string* error, Codec codec = {})
      : bytes_(bytes), error_(error), codec_(codec) {}

  // Reads `values` one after another. False with *error set to the first
  // failure, which includes bytes left over.
  template <class... T>
  bool Read(T&... values) {
    (Get(values), ...);
    Report(pos_ == bytes_.size() ? nullptr : "trailing bytes");
    if (!ok_) {
      *error_ = failed_key_ == nullptr
                    ? std::string(what_)
                    : "field '" + std::string(failed_key_) + "': " + what_;
    }
    return ok_;
  }

  // The field-list interface.
  template <class T>
  void operator()(const char* key, T&& field) {
    if (ok_) {
      key_ = key;
      Get(field);
    }
  }
  template <class R, class Validate>
  void Check(const R& record, Validate validate) {
    if (ok_) reason_ = validate(record);
    key_ = record_key_;
    Report(reason_.empty() ? nullptr : reason_.c_str());
  }

  // Primitives for the Codec. Report records the first failure (nullptr
  // means none); after one, the values read are unspecified.
  bool ok() const { return ok_; }
  void Report(const char* what) {
    if (what != nullptr && ok_) {
      ok_ = false;
      what_ = what;
      failed_key_ = key_;
    }
  }
  std::uint8_t U8() { return Fixed<std::uint8_t>(); }
  // Inlined, like Fixed: every count, size and LEB128 field is one.
  [[gnu::always_inline]] std::uint64_t Var() {
    std::uint64_t v = 0;
    std::size_t pos = pos_;
    const std::size_t end = bytes_.size();
    std::uint8_t byte = 0x80;
    for (int shift = 0; (byte & 0x80) != 0 && shift < 64 && pos < end;
         shift += 7) {
      byte = bytes_[pos++];
      v |= std::uint64_t{byte & 0x7Fu} << shift;
    }
    pos_ = pos;
    Report((byte & 0x80) == 0 ? nullptr : "truncated or overlong varint");
    return v;
  }
  std::string Str() {
    const std::uint64_t n = Count();
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  // A count no larger than the bytes left, so a damaged count cannot make
  // a reader allocate gigabytes before its element reads fail.
  std::uint64_t Count() {
    const std::uint64_t n = Var();
    Report(n <= bytes_.size() - pos_ ? nullptr : "count past the end");
    return ok_ ? n : 0;
  }
  // The bytes not read yet, for a Codec that decodes a run of them in
  // place and then Skips the ones it used (at most Rest().size()).
  std::string_view Rest() const { return bytes_.substr(pos_); }
  void Skip(std::size_t n) { pos_ += n; }

 private:
  template <class T>
  [[gnu::always_inline]] T Fixed() {
    T v{};
    const bool fits = sizeof v <= bytes_.size() - pos_;
    Report(fits ? nullptr : "truncated");
    if (fits) {
      std::memcpy(&v, bytes_.data() + pos_, sizeof v);
      pos_ += sizeof v;
    }
    return v;
  }

  void Get(bool& v) {
    const std::uint8_t byte = U8();
    Report(byte > 1 ? "not 0 or 1" : nullptr);
    v = byte == 1;
  }
  void Get(std::int32_t& v) { v = Fixed<std::int32_t>(); }
  void Get(std::uint32_t& v) { v = Fixed<std::uint32_t>(); }
  void Get(std::int64_t& v) { v = Fixed<std::int64_t>(); }
  void Get(std::uint64_t& v) { v = Var(); }
  void Get(std::string& v) { v = Str(); }
  template <class T>
  void Get(Hex<T>& hex) {
    hex.value = Fixed<std::uint64_t>();
  }
  template <class E, class NameFn>
  void Get(Named<E, NameFn>& named) {
    const int v = U8();
    Report(v < named.count ? nullptr : "out of range");
    if (ok_) named.value = static_cast<E>(v);
  }
  template <class B, std::size_t N>
  void Get(Bits<B, N>& bits) {
    const unsigned byte = U8();
    Report(byte >> N == 0 ? nullptr : "unknown flag bits");
    for (std::size_t i = 0; i < N; ++i) *bits.flags[i] = (byte >> i & 1u) != 0;
  }
  template <class T>
  void Get(std::vector<T>& items) {
    if constexpr (requires { codec_.DecodeAll(*this, items); }) {
      codec_.DecodeAll(*this, items);
    } else {
      items.resize(Count());
      for (auto it = items.begin(); ok_ && it != items.end(); ++it) Get(*it);
    }
  }
  template <class R>
  void Get(R& record) {
    if constexpr (requires { R::Fields(*this, record); }) {
      const char* outer = record_key_;
      record_key_ = key_;
      R::Fields(*this, record);
      record_key_ = outer;
    } else {
      codec_.Decode(*this, record);
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  std::string* error_;
  Codec codec_;
  bool ok_ = true;
  const char* key_ = nullptr;         // the member being read
  const char* record_key_ = nullptr;  // the key the current record sits under
  const char* what_ = nullptr;        // the first failure, under failed_key_
  const char* failed_key_ = nullptr;
  std::string reason_;  // a failed Check's
};

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_RECORD_H_

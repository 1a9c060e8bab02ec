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
#ifndef CERTKIT_SUPPORT_RECORD_H_
#define CERTKIT_SUPPORT_RECORD_H_

#include <array>
#include <cstdint>
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

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_RECORD_H_

#include "support/record.h"

namespace certkit::support {

bool JsonReader::Open(std::string_view text, const char* what, int schema) {
  ok_ = ParseJson(text, &root_, error_);
  Report(root_.kind == JsonValue::Kind::kObject ? nullptr : "not an object");
  at_.obj = &root_;
  int found = schema;
  (*this)("schema", found);
  const std::string skew = "unsupported " + std::string(what) + " schema " +
                           std::to_string(found);
  at_.key = nullptr;
  Report(found == schema ? nullptr : skew.c_str());
  return ok_;
}

void JsonReader::Report(const char* what) {
  if (ok_ && what != nullptr) {
    ok_ = false;
    *error_ = at_.key == nullptr
                  ? std::string(what)
                  : "field '" + std::string(at_.key) + "': " + what;
  }
}

const std::vector<JsonValue>& JsonReader::Items(const JsonValue* v,
                                                std::size_t size) {
  const bool array = v != nullptr && v->kind == JsonValue::Kind::kArray &&
                     (size == 0 || v->items.size() == size);
  Report(array ? nullptr : "missing, not an array, or of the wrong length");
  return ok_ ? v->items : no_items_;
}

void JsonReader::Get(const JsonValue* v, std::uint64_t& out) {
  std::string digits;
  Report(hex_ ? JsonAs(v, &digits) : JsonAs(v, &out));
  const bool hex_ok = !hex_ || !ok_ || ParseHexU64(digits, &out);
  Report(hex_ok ? nullptr : "not a 16-digit lowercase hex value");
}

}  // namespace certkit::support

#include "obs/trace_validate.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "support/json.h"

namespace certkit::obs {

namespace {

using support::JsonValue;

bool EventError(std::size_t index, const std::string& what,
                std::string* error) {
  *error = "event " + std::to_string(index) + ": " + what;
  return false;
}

struct Interval {
  std::int64_t begin;
  std::int64_t end;  // exclusive
};

// Reads member `key` as an exact 64-bit integer from its raw literal, so a
// value no int64 holds (1e300, 2^63) fails instead of being cast.
bool GetInt(const JsonValue& obj, const char* key, std::int64_t* out) {
  std::string ignored;
  return support::JsonGetI64(obj, key, out, &ignored);
}

bool CheckEvents(const std::vector<JsonValue>& events, std::string* error) {
  std::map<std::int64_t, std::vector<Interval>> by_tid;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& ev = events[i];
    if (ev.kind != JsonValue::Kind::kObject) {
      return EventError(i, "not an object", error);
    }
    const JsonValue* name = ev.Find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) {
      return EventError(i, "missing string \"name\"", error);
    }
    const JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->string.size() != 1) {
      return EventError(i, "missing one-char string \"ph\"", error);
    }
    std::int64_t pid = 0, tid = 0;
    if (!GetInt(ev, "pid", &pid)) {
      return EventError(i, "missing integer \"pid\"", error);
    }
    if (!GetInt(ev, "tid", &tid)) {
      return EventError(i, "missing integer \"tid\"", error);
    }
    if (ph->string == "M") {
      const JsonValue* args = ev.Find("args");
      if (args == nullptr || args->kind != JsonValue::Kind::kObject) {
        return EventError(i, "metadata event without \"args\" object", error);
      }
      continue;
    }
    if (ph->string == "X") {
      std::int64_t ts = 0, dur = 0;
      if (!GetInt(ev, "ts", &ts) || ts < 0) {
        return EventError(i, "X event needs integer ts >= 0", error);
      }
      if (!GetInt(ev, "dur", &dur) || dur < 1) {
        return EventError(i, "X event needs integer dur >= 1", error);
      }
      if (ts > std::numeric_limits<std::int64_t>::max() - dur) {
        return EventError(i, "X event ts + dur overflows int64", error);
      }
      by_tid[tid].push_back(Interval{ts, ts + dur});
      continue;
    }
    return EventError(i, "unsupported phase \"" + ph->string + "\"", error);
  }

  // Nesting check per tid: sorted by (begin, -length), a stack of enclosing
  // intervals must always contain the next one or be disjoint from it.
  for (auto& [tid, intervals] : by_tid) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.end > b.end;
              });
    std::vector<Interval> stack;
    for (const Interval& iv : intervals) {
      while (!stack.empty() && stack.back().end <= iv.begin) {
        stack.pop_back();
      }
      if (!stack.empty() && iv.end > stack.back().end) {
        std::ostringstream msg;
        msg << "tid " << tid << ": span [" << iv.begin << "," << iv.end
            << ") partially overlaps [" << stack.back().begin << ","
            << stack.back().end << ")";
        *error = msg.str();
        return false;
      }
      stack.push_back(iv);
    }
  }
  return true;
}

}  // namespace

bool ValidateChromeTrace(const std::string& json, std::string* error) {
  JsonValue root;
  if (!support::ParseJson(json, &root, error)) return false;

  const std::vector<JsonValue>* events = nullptr;
  if (root.kind == JsonValue::Kind::kArray) {
    events = &root.items;
  } else if (root.kind == JsonValue::Kind::kObject) {
    const JsonValue* te = root.Find("traceEvents");
    if (te == nullptr || te->kind != JsonValue::Kind::kArray) {
      *error = "top-level object has no \"traceEvents\" array";
      return false;
    }
    events = &te->items;
  } else {
    *error = "top level is neither an object nor an array";
    return false;
  }
  return CheckEvents(*events, error);
}

}  // namespace certkit::obs

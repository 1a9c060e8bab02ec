#include "obs/flight_validate.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "support/json.h"

namespace certkit::obs {

namespace {

using support::JsonValue;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// The validator keeps its own vocabulary tables (independent of the
// flight_recorder.cpp name functions) so a table typo in the emitter is a
// validation failure, not a silently shared constant.
bool KnownStage(const std::string& s) {
  static const std::set<std::string> kStages = {
      "tick",    "scenario", "perception", "prediction",  "planning",
      "control", "safety",   "canbus",     "localization"};
  return kStages.count(s) > 0;
}

bool KnownSafetyState(const std::string& s) {
  return s == "nominal" || s == "limp_home" || s == "safe_stop";
}

bool KnownMonitor(const std::string& s) {
  static const std::set<std::string> kMonitors = {
      "range", "plausibility", "deadline", "control_flow", "command",
      "can_bus"};
  return kMonitors.count(s) > 0;
}

bool KnownTriggerKind(const std::string& s) {
  return s == "signal" || s == "oracle" || s == "explicit";
}

bool RequireNumber(const JsonValue& obj, const std::string& key,
                   const std::string& where, std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    return Fail(error, where + ": missing numeric '" + key + "'");
  }
  return true;
}

bool RequireString(const JsonValue& obj, const std::string& key,
                   const std::string& where, std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    return Fail(error, where + ": missing string '" + key + "'");
  }
  return true;
}

// A quantile field is a finite number or the string "+inf".
bool ValidQuantile(const JsonValue* v) {
  if (v == nullptr) return false;
  if (v->kind == JsonValue::Kind::kNumber) return true;
  return v->kind == JsonValue::Kind::kString && v->string == "+inf";
}

bool ValidateEvent(const JsonValue& event, std::uint64_t* prev_seq,
                   bool* first, const std::string& where, std::string* error) {
  if (event.kind != JsonValue::Kind::kObject) {
    return Fail(error, where + ": event is not an object");
  }
  std::string getter_error;
  std::uint64_t seq = 0;
  if (!support::JsonGetU64(event, "seq", &seq, &getter_error)) {
    return Fail(error, where + ": " + getter_error);
  }
  if (seq == 0) return Fail(error, where + ": seq must be >= 1");
  if (!*first && seq <= *prev_seq) {
    return Fail(error, where + ": sequence clock not strictly increasing");
  }
  *first = false;
  *prev_seq = seq;

  std::string type;
  if (!support::JsonGetString(event, "type", &type, &getter_error)) {
    return Fail(error, where + ": " + getter_error);
  }
  if (type == "stage_begin" || type == "stage_end") {
    std::string stage;
    if (!support::JsonGetString(event, "stage", &stage, &getter_error)) {
      return Fail(error, where + ": " + getter_error);
    }
    if (!KnownStage(stage)) {
      return Fail(error, where + ": unknown stage '" + stage + "'");
    }
    if (!RequireNumber(event, "tick", where, error)) return false;
  } else if (type == "monitor") {
    std::string monitor;
    if (!support::JsonGetString(event, "monitor", &monitor, &getter_error)) {
      return Fail(error, where + ": " + getter_error);
    }
    if (!KnownMonitor(monitor)) {
      return Fail(error, where + ": unknown monitor '" + monitor + "'");
    }
    if (!RequireNumber(event, "severity", where, error)) return false;
    bool handled = false;
    if (!support::JsonGetBool(event, "handled", &handled, &getter_error)) {
      return Fail(error, where + ": " + getter_error);
    }
    if (!RequireNumber(event, "tick", where, error)) return false;
  } else if (type == "safety_state") {
    std::string state, from;
    if (!support::JsonGetString(event, "state", &state, &getter_error) ||
        !support::JsonGetString(event, "from", &from, &getter_error)) {
      return Fail(error, where + ": " + getter_error);
    }
    if (!KnownSafetyState(state) || !KnownSafetyState(from)) {
      return Fail(error, where + ": unknown safety state");
    }
    if (!RequireNumber(event, "transition", where, error)) return false;
  } else if (type == "candidate_begin" || type == "candidate_end" ||
             type == "candidate_kept") {
    if (!RequireNumber(event, "candidate", where, error)) return false;
  } else if (type == "serve_begin") {
    if (!RequireNumber(event, "request", where, error)) return false;
  } else if (type == "serve_end") {
    if (!RequireNumber(event, "request", where, error)) return false;
    bool ok = false;
    if (!support::JsonGetBool(event, "ok", &ok, &getter_error)) {
      return Fail(error, where + ": " + getter_error);
    }
  } else {
    return Fail(error, where + ": unknown event type '" + type + "'");
  }
  const JsonValue* wall = event.Find("wall_ns");
  if (wall != nullptr && wall->kind != JsonValue::Kind::kNumber) {
    return Fail(error, where + ": wall_ns must be a number");
  }
  return true;
}

bool ValidateHistogramRow(const std::string& name, const JsonValue& row,
                          std::string* error) {
  const std::string where = "histogram '" + name + "'";
  if (row.kind != JsonValue::Kind::kObject) {
    return Fail(error, where + ": not an object");
  }
  std::string getter_error;
  std::int64_t count = 0;
  if (!support::JsonGetI64(row, "count", &count, &getter_error)) {
    return Fail(error, where + ": " + getter_error);
  }
  if (count < 0) return Fail(error, where + ": negative count");
  const JsonValue* bounds = row.Find("bounds");
  if (bounds == nullptr || bounds->kind != JsonValue::Kind::kArray ||
      bounds->items.empty()) {
    return Fail(error, where + ": missing bounds array");
  }
  std::vector<double> bound_values;
  for (const JsonValue& b : bounds->items) {
    if (b.kind != JsonValue::Kind::kNumber) {
      return Fail(error, where + ": bounds must be numbers");
    }
    bound_values.push_back(b.number);
  }
  if (!std::is_sorted(bound_values.begin(), bound_values.end())) {
    return Fail(error, where + ": bounds not ascending");
  }
  // Wall-clock fields are optional (present only for --timing dumps) but
  // must be coherent when present.
  const JsonValue* buckets = row.Find("buckets");
  if (buckets != nullptr) {
    if (buckets->kind != JsonValue::Kind::kArray ||
        buckets->items.size() != bound_values.size() + 1) {
      return Fail(error,
                  where + ": buckets must have length bounds + 1 (overflow)");
    }
    // Each bucket is an exact integer literal in [0, count - total], so
    // the running sum never passes count (nor overflows).
    std::int64_t total = 0;
    for (const JsonValue& b : buckets->items) {
      std::int64_t n = 0;
      if (support::JsonAs(&b, &n) != nullptr || n < 0) {
        return Fail(error, where + ": bucket counts must be integers >= 0");
      }
      if (n > count - total) {
        return Fail(error, where + ": bucket sum exceeds count");
      }
      total += n;
    }
    if (total != count) {
      return Fail(error, where + ": bucket sum does not equal count");
    }
    for (const char* q : {"p50", "p90", "p99"}) {
      if (!ValidQuantile(row.Find(q))) {
        return Fail(error, where + ": missing or malformed '" +
                               std::string(q) + "'");
      }
    }
  }
  return true;
}

}  // namespace

bool ValidateFlightDump(const std::string& json, std::string* error) {
  JsonValue root;
  std::string parse_error;
  if (!support::ParseJson(json, &root, &parse_error)) {
    return Fail(error, "parse error: " + parse_error);
  }
  const JsonValue* dump = root.Find("flight_dump");
  if (dump == nullptr || dump->kind != JsonValue::Kind::kObject) {
    return Fail(error, "missing 'flight_dump' root object");
  }
  std::string getter_error;
  std::int64_t schema = 0;
  if (!support::JsonGetI64(*dump, "schema", &schema, &getter_error)) {
    return Fail(error, getter_error);
  }
  if (schema != 1) {
    return Fail(error, "unsupported schema version " + std::to_string(schema));
  }

  const JsonValue* trigger = dump->Find("trigger");
  if (trigger == nullptr || trigger->kind != JsonValue::Kind::kObject) {
    return Fail(error, "missing 'trigger' object");
  }
  std::string kind;
  if (!support::JsonGetString(*trigger, "kind", &kind, &getter_error)) {
    return Fail(error, getter_error);
  }
  if (!KnownTriggerKind(kind)) {
    return Fail(error, "unknown trigger kind '" + kind + "'");
  }
  if (kind == "signal") {
    if (!RequireNumber(*trigger, "signal", "trigger", error)) return false;
    if (!RequireString(*trigger, "name", "trigger", error)) return false;
  }

  std::string last_stage;
  if (!support::JsonGetString(*dump, "last_completed_stage", &last_stage,
                              &getter_error)) {
    return Fail(error, getter_error);
  }
  if (last_stage != "none" && !KnownStage(last_stage)) {
    return Fail(error, "unknown last_completed_stage '" + last_stage + "'");
  }
  std::string safety_state;
  if (!support::JsonGetString(*dump, "safety_state", &safety_state,
                              &getter_error)) {
    return Fail(error, getter_error);
  }
  if (!KnownSafetyState(safety_state)) {
    return Fail(error, "unknown safety_state '" + safety_state + "'");
  }
  std::int64_t recorded = 0, dropped = 0;
  if (!support::JsonGetI64(*dump, "events_recorded", &recorded,
                           &getter_error) ||
      !support::JsonGetI64(*dump, "events_dropped", &dropped, &getter_error)) {
    return Fail(error, getter_error);
  }
  if (recorded < 0 || dropped < 0) {
    return Fail(error, "negative event counters");
  }
  const JsonValue* artifact = dump->Find("artifact");
  if (artifact != nullptr && artifact->kind != JsonValue::Kind::kString) {
    return Fail(error, "artifact must be a string path");
  }

  const JsonValue* threads = dump->Find("threads");
  if (threads == nullptr || threads->kind != JsonValue::Kind::kArray) {
    return Fail(error, "missing 'threads' array");
  }
  for (std::size_t t = 0; t < threads->items.size(); ++t) {
    const JsonValue& thread = threads->items[t];
    const std::string where = "thread " + std::to_string(t);
    if (thread.kind != JsonValue::Kind::kObject) {
      return Fail(error, where + ": not an object");
    }
    std::int64_t ring = 0;
    if (!support::JsonGetI64(thread, "ring", &ring, &getter_error)) {
      return Fail(error, where + ": " + getter_error);
    }
    if (ring < 0) return Fail(error, where + ": negative ring index");
    const JsonValue* events = thread.Find("events");
    if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
      return Fail(error, where + ": missing 'events' array");
    }
    std::uint64_t prev_seq = 0;
    bool first = true;
    for (std::size_t e = 0; e < events->items.size(); ++e) {
      if (!ValidateEvent(events->items[e], &prev_seq, &first,
                         where + " event " + std::to_string(e), error)) {
        return false;
      }
    }
  }

  const JsonValue* metrics = dump->Find("metrics");
  if (metrics == nullptr || metrics->kind != JsonValue::Kind::kObject) {
    return Fail(error, "missing 'metrics' object");
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* obj = metrics->Find(section);
    if (obj == nullptr || obj->kind != JsonValue::Kind::kObject) {
      return Fail(error, std::string("metrics missing '") + section + "'");
    }
  }
  for (const auto& [name, value] : metrics->Find("counters")->members) {
    if (value.kind != JsonValue::Kind::kNumber) {
      return Fail(error, "counter '" + name + "' is not a number");
    }
  }
  for (const auto& [name, value] : metrics->Find("gauges")->members) {
    if (value.kind != JsonValue::Kind::kNumber) {
      return Fail(error, "gauge '" + name + "' is not a number");
    }
  }
  for (const auto& [name, value] : metrics->Find("histograms")->members) {
    if (!ValidateHistogramRow(name, value, error)) return false;
  }
  return true;
}

}  // namespace certkit::obs

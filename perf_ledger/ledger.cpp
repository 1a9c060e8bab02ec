// certkit perf ledger: one binary, one workload per run.
//
//   perf_ledger --workload <tick_release|campaign_fleet|analysis_corpus>
//               --seed <n> --seconds <s> --trace <0|1>
//               --spec <BENCHMARK.json> --out-dir <dir>
//
// Prints two JSON lines on stdout. The first is the full ledger: every row
// with its unit and the number of samples behind it. The last is the
// result line: {"correct", "attempted", "failed", "metrics"}, where
// metrics holds exactly the rows BENCHMARK.json names (end_to_end without
// --trace, per_layer with it; a per-layer metric of a layer the workload
// bypasses reads 0). Before printing, the result is parsed back with
// support::ParseJson and checked against the spec; a missing metric or
// unit exits 1 without a result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>

#include "ledger.h"
#include "support/io.h"
#include "support/json.h"
#include "timing/timing.h"

namespace ledger {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return certkit::timing::NearestRankQuantile(samples, q);
}

double TimerQuantile(const certkit::timing::ExecutionTimer& timer, double q) {
  const std::int64_t n = timer.sample_count();
  if (n == 0) return 0.0;
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n))));
  // The smallest d with at least `rank` samples <= d is the rank-th sample.
  const certkit::timing::TimingStats stats = timer.GetStats();
  double lo = stats.min, hi = stats.max;
  if (timer.CountOver(lo) <= n - rank) return lo;
  while (hi - lo > 1e-9) {
    const double mid = lo + (hi - lo) / 2.0;
    (timer.CountOver(mid) <= n - rank ? hi : lo) = mid;
  }
  return hi;
}

std::size_t Fastest(const std::vector<double>& seconds) {
  return static_cast<std::size_t>(
      std::min_element(seconds.begin(), seconds.end()) - seconds.begin());
}

double Sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void CpuSeconds(double* user, double* sys) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  *user = static_cast<double>(usage.ru_utime.tv_sec) +
          static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  *sys = static_cast<double>(usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
}

}  // namespace ledger

namespace {

using certkit::support::JsonValue;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perf_ledger: %s\nusage: perf_ledger --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --spec <json> "
               "--out-dir <dir>\n",
               why);
  return 2;
}

JsonValue Number(double v) {
  JsonValue j;
  j.kind = JsonValue::Kind::kNumber;
  j.number = v;
  return j;
}

JsonValue String(const std::string& s) {
  JsonValue j;
  j.kind = JsonValue::Kind::kString;
  j.string = s;
  return j;
}

JsonValue Object() {
  JsonValue j;
  j.kind = JsonValue::Kind::kObject;
  return j;
}

JsonValue Array() {
  JsonValue j;
  j.kind = JsonValue::Kind::kArray;
  return j;
}

JsonValue Bool(bool b) {
  JsonValue j;
  j.kind = JsonValue::Kind::kBool;
  j.boolean = b;
  return j;
}

// The metric names and units the spec lists for this kind of run.
bool SpecMetrics(const std::string& spec_path, bool trace,
                 std::vector<std::pair<std::string, std::string>>* out,
                 std::string* error) {
  auto text = certkit::support::ReadFile(spec_path);
  if (!text.ok()) {
    *error = text.status().ToString();
    return false;
  }
  JsonValue spec;
  if (!certkit::support::ParseJson(text.value(), &spec, error)) return false;
  const JsonValue* list = spec.Find(trace ? "per_layer" : "end_to_end");
  if (list == nullptr || list->kind != JsonValue::Kind::kArray) {
    *error = "spec has no metric list";
    return false;
  }
  for (const JsonValue& m : list->items) {
    const JsonValue* name = m.Find("name");
    const JsonValue* unit = m.Find("unit");
    if (name == nullptr || unit == nullptr ||
        name->kind != JsonValue::Kind::kString ||
        unit->kind != JsonValue::Kind::kString) {
      *error = "spec metric without a name or unit";
      return false;
    }
    out->emplace_back(name->string, unit->string);
  }
  return true;
}

// The layers each workload measures, by metric-name prefix.
bool OwnsLayer(const std::string& workload, const std::string& metric) {
  static const std::vector<std::pair<std::string, std::string>> kOwners = {
      {"tick_release", "ad."},         {"tick_release", "nn."},
      {"tick_release", "kernels."},    {"campaign_fleet", "campaign."},
      {"campaign_fleet", "coverage."}, {"analysis_corpus", "driver."},
      {"analysis_corpus", "lex."},     {"analysis_corpus", "ast."},
      {"analysis_corpus", "metrics."}, {"analysis_corpus", "rules."},
  };
  for (const auto& [owner, prefix] : kOwners) {
    if (owner == workload && metric.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// Parses the result line back and checks every spec metric is there with
// a finite value and the spec's unit.
bool SelfCheck(const std::string& line,
               const std::vector<std::pair<std::string, std::string>>& spec,
               std::string* error) {
  JsonValue parsed;
  if (!certkit::support::ParseJson(line, &parsed, error)) return false;
  const JsonValue* metrics = parsed.Find("metrics");
  if (metrics == nullptr) {
    *error = "result has no metrics";
    return false;
  }
  for (const auto& [name, unit] : spec) {
    const JsonValue* m = metrics->Find(name);
    const JsonValue* value = m == nullptr ? nullptr : m->Find("value");
    const JsonValue* got_unit = m == nullptr ? nullptr : m->Find("unit");
    if (value == nullptr || value->kind != JsonValue::Kind::kNumber) {
      *error = "metric " + name + " is missing or has no numeric value";
      return false;
    }
    if (got_unit == nullptr || got_unit->kind != JsonValue::Kind::kString ||
        got_unit->string != unit) {
      *error = "metric " + name + " has no unit " + unit;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Args args;
  std::string spec_path;
  std::string trace_flag;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace_flag = value;
    } else if (key == "--spec") {
      spec_path = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags come in --name value pairs");
  if (trace_flag != "0" && trace_flag != "1") return Usage("--trace is 0 or 1");
  args.trace = trace_flag == "1";
  if (spec_path.empty() || args.out_dir.empty()) {
    return Usage("--spec and --out-dir are required");
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  std::vector<std::pair<std::string, std::string>> spec;
  std::string error;
  if (!SpecMetrics(spec_path, args.trace, &spec, &error)) {
    std::fprintf(stderr, "perf_ledger: %s: %s\n", spec_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::filesystem::create_directories(args.out_dir);

  ledger::Outcome out;
  if (args.trace) ledger::EnableSpans();
  if (args.workload == "tick_release") {
    ledger::RunTickRelease(args, &out);
  } else if (args.workload == "campaign_fleet") {
    ledger::RunCampaignFleet(args, &out);
  } else if (args.workload == "analysis_corpus") {
    ledger::RunAnalysisCorpus(args, &out);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  out.Add("peak_rss_mb", ledger::PeakRssMb(), "MB");
  out.Add("fail_ratio",
          out.attempted > 0 ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 1.0,
          "ratio");

  bool trace_ok = true;
  if (args.trace) {
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    trace_ok = ledger::WriteChromeTrace(path, &error);
    if (!trace_ok) out.failures.push_back("trace: " + error);
  }

  // Per-layer metrics of layers this workload bypasses read 0. A missing
  // metric of one of its own layers is an error the self-check reports.
  if (args.trace) {
    for (const auto& [name, unit] : spec) {
      const bool present =
          std::any_of(out.rows.begin(), out.rows.end(),
                      [&](const ledger::Row& r) { return r.name == name; });
      if (!present && !OwnsLayer(args.workload, name)) {
        out.Add(name, 0.0, unit);
      }
    }
  }

  // The full ledger, every row with its sample count.
  JsonValue rows = Array();
  for (const ledger::Row& row : out.rows) {
    JsonValue r = Object();
    r.members["name"] = String(row.name);
    r.members["value"] = Number(row.value);
    r.members["unit"] = String(row.unit);
    r.members["n"] = Number(static_cast<double>(row.n));
    rows.items.push_back(std::move(r));
  }
  JsonValue failures = Array();
  for (const std::string& f : out.failures) failures.items.push_back(String(f));
  JsonValue ledger_doc = Object();
  ledger_doc.members["workload"] = String(args.workload);
  ledger_doc.members["seed"] = Number(static_cast<double>(args.seed));
  ledger_doc.members["trace"] = Bool(args.trace);
  ledger_doc.members["quantile_rule"] = String("nearest-rank");
  ledger_doc.members["rows"] = std::move(rows);
  ledger_doc.members["failures"] = std::move(failures);
  JsonValue details = Object();
  details.members["ledger"] = std::move(ledger_doc);
  std::printf("%s\n", certkit::support::JsonToString(details).c_str());

  // The result line: exactly the spec's metrics.
  JsonValue metrics = Object();
  for (const auto& [name, unit] : spec) {
    for (const ledger::Row& row : out.rows) {
      if (row.name != name) continue;
      JsonValue m = Object();
      m.members["value"] = Number(row.value);
      m.members["unit"] = String(row.unit);
      metrics.members[name] = std::move(m);
    }
  }
  JsonValue result = Object();
  result.members["correct"] = Bool(out.failed == 0 && trace_ok);
  result.members["attempted"] = Number(static_cast<double>(out.attempted));
  result.members["failed"] = Number(static_cast<double>(out.failed));
  result.members["metrics"] = std::move(metrics);
  const std::string line = certkit::support::JsonToString(result);
  if (out.attempted < 1 || !SelfCheck(line, spec, &error)) {
    std::fprintf(stderr, "perf_ledger: self-check failed: %s\n",
                 out.attempted < 1 ? "no operation attempted" : error.c_str());
    return 1;
  }
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "perf_ledger: FAILURE: %s\n", f.c_str());
  }
  std::fflush(stdout);
  std::printf("%s\n", line.c_str());
  return 0;
}

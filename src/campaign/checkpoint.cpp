#include "campaign/checkpoint.h"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>
#include <utility>

#include "ad/safety/monitors.h"
#include "campaign/corpus_store.h"
#include "campaign/replay.h"
#include "support/fnv.h"
#include "support/io.h"
#include "support/json.h"

namespace certkit::campaign {

namespace fs = std::filesystem;

using support::JsonValue;

namespace {

constexpr char kCheckpointMagic[4] = {'C', 'K', 'P', '1'};
constexpr char kShardMagic[4] = {'C', 'K', 'S', '1'};

std::string RngJson(const std::array<std::uint64_t, 4>& s) {
  std::ostringstream out;
  out << "[";
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out << ",";
    out << support::JsonEscape(HexU64(s[i]));
  }
  out << "]";
  return out.str();
}

bool ParseRng(const JsonValue& obj, const std::string& key,
              std::array<std::uint64_t, 4>* out, std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kArray ||
      v->items.size() != 4) {
    *error = "field '" + key + "': not a 4-word rng state";
    return false;
  }
  for (int i = 0; i < 4; ++i) {
    const JsonValue& word = v->items[static_cast<std::size_t>(i)];
    if (word.kind != JsonValue::Kind::kString ||
        !ParseHexU64(word.string, &(*out)[static_cast<std::size_t>(i)])) {
      *error = "field '" + key + "': word " + std::to_string(i) +
               " is not a 16-digit hex value";
      return false;
    }
  }
  return true;
}

// Ratios are stored with JsonNumber (exact shortest round-trip), so a
// resumed run re-renders the campaign JSON's %.4f rows from bit-identical
// doubles. "null" (non-finite) reads back as NaN.
std::string RatioExact(double v) { return support::JsonNumber(v); }

bool GetRatio(const JsonValue& obj, const std::string& key, double* out,
              std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    *error = "field '" + key + "': missing";
    return false;
  }
  if (v->kind == JsonValue::Kind::kNull) {
    *out = std::nan("");
    return true;
  }
  if (v->kind != JsonValue::Kind::kNumber) {
    *error = "field '" + key + "': not a number";
    return false;
  }
  *out = v->number;
  return true;
}

std::string CoverageRowExactJson(const cov::CoverageRow& row) {
  std::ostringstream out;
  out << "{\"unit\":" << support::JsonEscape(row.unit)
      << ",\"statement\":" << RatioExact(row.statement)
      << ",\"branch\":" << RatioExact(row.branch)
      << ",\"mcdc\":" << RatioExact(row.mcdc) << "}";
  return out.str();
}

bool ParseCoverageRow(const JsonValue& v, cov::CoverageRow* out,
                      std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "coverage row is not an object";
    return false;
  }
  return support::JsonGetString(v, "unit", &out->unit, error) &&
         GetRatio(v, "statement", &out->statement, error) &&
         GetRatio(v, "branch", &out->branch, error) &&
         GetRatio(v, "mcdc", &out->mcdc, error);
}

std::string SafetySummaryJson(const adpilot::SafetySummary& s) {
  std::ostringstream out;
  out << "{\"violations\":" << s.total << ",\"warnings\":" << s.warnings
      << ",\"criticals\":" << s.criticals << ",\"handled\":" << s.handled
      << ",\"by_monitor\":{";
  for (int m = 0; m < adpilot::kNumMonitors; ++m) {
    if (m > 0) out << ",";
    out << support::JsonEscape(
               adpilot::MonitorName(static_cast<adpilot::MonitorId>(m)))
        << ":" << s.by_monitor[m];
  }
  out << "}}";
  return out.str();
}

bool ParseSafetySummary(const JsonValue& v, adpilot::SafetySummary* out,
                        std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "safety summary is not an object";
    return false;
  }
  if (!support::JsonGetI64(v, "violations", &out->total, error) ||
      !support::JsonGetI64(v, "warnings", &out->warnings, error) ||
      !support::JsonGetI64(v, "criticals", &out->criticals, error) ||
      !support::JsonGetI64(v, "handled", &out->handled, error)) {
    return false;
  }
  const JsonValue* monitors = v.Find("by_monitor");
  if (monitors == nullptr || monitors->kind != JsonValue::Kind::kObject) {
    *error = "field 'by_monitor': missing or not an object";
    return false;
  }
  for (int m = 0; m < adpilot::kNumMonitors; ++m) {
    const char* name =
        adpilot::MonitorName(static_cast<adpilot::MonitorId>(m));
    if (!support::JsonGetI64(*monitors, name, &out->by_monitor[m], error)) {
      return false;
    }
  }
  return true;
}

std::string GenerationStatsJson(const GenerationStats& s) {
  std::ostringstream out;
  out << "{\"generation\":" << s.generation << ",\"evaluated\":" << s.evaluated
      << ",\"kept\":" << s.kept << ",\"new_facts\":" << s.new_facts
      << ",\"distinct_outcomes\":" << s.distinct_outcomes << ",\"rows\":[";
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    if (i > 0) out << ",";
    out << CoverageRowExactJson(s.rows[i]);
  }
  out << "],\"average\":" << CoverageRowExactJson(s.average)
      << ",\"seconds\":" << support::JsonNumber(s.seconds) << "}";
  return out.str();
}

bool ParseGenerationStats(const JsonValue& v, GenerationStats* out,
                          std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "generation stats is not an object";
    return false;
  }
  if (!support::JsonGetInt(v, "generation", &out->generation, error) ||
      !support::JsonGetInt(v, "evaluated", &out->evaluated, error) ||
      !support::JsonGetInt(v, "kept", &out->kept, error) ||
      !support::JsonGetI64(v, "new_facts", &out->new_facts, error) ||
      !support::JsonGetI64(v, "distinct_outcomes", &out->distinct_outcomes,
                           error)) {
    return false;
  }
  const JsonValue* rows = v.Find("rows");
  if (rows == nullptr || rows->kind != JsonValue::Kind::kArray) {
    *error = "field 'rows': missing or not an array";
    return false;
  }
  out->rows.clear();
  out->rows.reserve(rows->items.size());
  for (const JsonValue& r : rows->items) {
    cov::CoverageRow row;
    if (!ParseCoverageRow(r, &row, error)) return false;
    out->rows.push_back(std::move(row));
  }
  const JsonValue* average = v.Find("average");
  if (average == nullptr) {
    *error = "field 'average': missing";
    return false;
  }
  if (!ParseCoverageRow(*average, &out->average, error)) return false;
  return GetRatio(v, "seconds", &out->seconds, error);
}

}  // namespace

std::uint64_t ConfigFingerprint(const CampaignConfig& config) {
  std::uint64_t h = support::kFnvOffsetBasis;
  h = support::FnvU64(config.seed, h);
  h = support::FnvI64(config.population, h);
  h = support::FnvI64(config.generations, h);
  h = support::FnvI64(config.ticks, h);
  h = support::FnvStr(config.unit_prefix, h);
  h = support::FnvU64(config.seed_with_fig5 ? 1 : 0, h);
  return h;
}

std::string CheckpointJson(const CampaignConfig& config,
                           const CampaignState& state) {
  std::ostringstream out;
  out << "{\"schema\":" << kCheckpointSchema << ",\"fingerprint\":"
      << support::JsonEscape(HexU64(ConfigFingerprint(config)))
      << ",\"next_generation\":" << state.next_generation
      << ",\"scheduler\":{\"rng\":" << RngJson(state.scheduler.rng)
      << ",\"next_id\":" << state.scheduler.next_id
      << "},\"select_rng\":" << RngJson(state.select_rng)
      << ",\"evaluated_total\":" << state.evaluated_total
      << ",\"oracle\":{\"seen\":[";
  bool first = true;
  for (const std::string& sig : state.oracle.seen()) {
    if (!first) out << ",";
    first = false;
    out << support::JsonEscape(sig);
  }
  out << "],\"totals\":" << SafetySummaryJson(state.oracle.totals())
      << ",\"collisions\":" << state.oracle.collisions()
      << ",\"non_finite_commands\":" << state.oracle.non_finite_commands()
      << ",\"safe_stops\":" << state.oracle.safe_stops()
      << "},\"cover\":{\"total_facts\":" << state.cover.total_facts()
      << ",\"merged\":" << CoverSetJson(state.cover.merged())
      << "},\"corpus\":[";
  for (std::size_t i = 0; i < state.corpus.size(); ++i) {
    if (i > 0) out << ",";
    out << CandidateJson(state.corpus[i]);
  }
  out << "],\"generations\":[";
  for (std::size_t i = 0; i < state.generations.size(); ++i) {
    if (i > 0) out << ",";
    out << GenerationStatsJson(state.generations[i]);
  }
  out << "]}";
  return out.str();
}

bool ParseCheckpoint(std::string_view payload, std::uint64_t fingerprint,
                     CampaignState* out, bool* mismatch, std::string* error) {
  *mismatch = false;
  JsonValue root;
  if (!support::ParseJson(payload, &root, error)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "checkpoint is not an object";
    return false;
  }
  int schema = 0;
  if (!support::JsonGetInt(root, "schema", &schema, error)) return false;
  if (schema != kCheckpointSchema) {
    *error = "unsupported checkpoint schema " + std::to_string(schema);
    return false;
  }
  std::string fp_hex;
  std::uint64_t fp = 0;
  if (!support::JsonGetString(root, "fingerprint", &fp_hex, error) ||
      !ParseHexU64(fp_hex, &fp)) {
    *error = "field 'fingerprint': not a 16-digit hex value";
    return false;
  }
  if (fp != fingerprint) {
    *mismatch = true;
    *error = "configuration fingerprint mismatch";
    return false;
  }

  CampaignState state;
  if (!support::JsonGetInt(root, "next_generation", &state.next_generation,
                           error)) {
    return false;
  }
  const JsonValue* scheduler = root.Find("scheduler");
  if (scheduler == nullptr || scheduler->kind != JsonValue::Kind::kObject) {
    *error = "field 'scheduler': missing or not an object";
    return false;
  }
  if (!ParseRng(*scheduler, "rng", &state.scheduler.rng, error) ||
      !support::JsonGetI64(*scheduler, "next_id", &state.scheduler.next_id,
                           error) ||
      !ParseRng(root, "select_rng", &state.select_rng, error) ||
      !support::JsonGetI64(root, "evaluated_total", &state.evaluated_total,
                           error)) {
    return false;
  }

  const JsonValue* oracle = root.Find("oracle");
  if (oracle == nullptr || oracle->kind != JsonValue::Kind::kObject) {
    *error = "field 'oracle': missing or not an object";
    return false;
  }
  const JsonValue* seen = oracle->Find("seen");
  if (seen == nullptr || seen->kind != JsonValue::Kind::kArray) {
    *error = "field 'seen': missing or not an array";
    return false;
  }
  std::set<std::string> signatures;
  for (const JsonValue& sig : seen->items) {
    if (sig.kind != JsonValue::Kind::kString) {
      *error = "field 'seen': non-string signature";
      return false;
    }
    signatures.insert(sig.string);
  }
  const JsonValue* totals = oracle->Find("totals");
  if (totals == nullptr) {
    *error = "field 'totals': missing";
    return false;
  }
  adpilot::SafetySummary summary;
  std::int64_t collisions = 0;
  std::int64_t non_finite = 0;
  std::int64_t safe_stops = 0;
  if (!ParseSafetySummary(*totals, &summary, error) ||
      !support::JsonGetI64(*oracle, "collisions", &collisions, error) ||
      !support::JsonGetI64(*oracle, "non_finite_commands", &non_finite,
                           error) ||
      !support::JsonGetI64(*oracle, "safe_stops", &safe_stops, error)) {
    return false;
  }
  state.oracle.Restore(std::move(signatures), summary, collisions, non_finite,
                       safe_stops);

  const JsonValue* cover = root.Find("cover");
  if (cover == nullptr || cover->kind != JsonValue::Kind::kObject) {
    *error = "field 'cover': missing or not an object";
    return false;
  }
  std::int64_t total_facts = 0;
  if (!support::JsonGetI64(*cover, "total_facts", &total_facts, error)) {
    return false;
  }
  const JsonValue* merged = cover->Find("merged");
  if (merged == nullptr) {
    *error = "field 'merged': missing";
    return false;
  }
  cov::CoverSet merged_cover;
  if (!ParseCoverSet(*merged, &merged_cover, error)) return false;
  state.cover.Restore(std::move(merged_cover), total_facts);

  const JsonValue* corpus = root.Find("corpus");
  if (corpus == nullptr || corpus->kind != JsonValue::Kind::kArray) {
    *error = "field 'corpus': missing or not an array";
    return false;
  }
  for (const JsonValue& c : corpus->items) {
    Candidate candidate;
    if (!ParseCandidate(c, &candidate, error)) return false;
    state.corpus.push_back(std::move(candidate));
  }

  const JsonValue* generations = root.Find("generations");
  if (generations == nullptr ||
      generations->kind != JsonValue::Kind::kArray) {
    *error = "field 'generations': missing or not an array";
    return false;
  }
  for (const JsonValue& g : generations->items) {
    GenerationStats stats;
    if (!ParseGenerationStats(g, &stats, error)) return false;
    state.generations.push_back(std::move(stats));
  }

  *out = std::move(state);
  return true;
}

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.ckpt";
}

std::string ShardDeltaPath(const std::string& dir, int generation,
                           int shard_index, int shard_count) {
  std::ostringstream out;
  out << dir << "/shard_g" << generation << "_" << shard_index << "of"
      << shard_count << ".ckshard";
  return out.str();
}

CheckpointLoad LoadCampaignCheckpoint(const std::string& dir,
                                      const CampaignConfig& config,
                                      CampaignState* state,
                                      std::string* error) {
  error->clear();
  const std::string path = CheckpointPath(dir);
  std::error_code ec;
  if (!fs::exists(path, ec)) return CheckpointLoad::kFresh;
  const auto bytes = support::ReadFile(path);
  if (!bytes.ok()) {
    *error = bytes.status().ToString();
    return CheckpointLoad::kCorrupt;
  }
  std::string_view payload;
  if (!UnframeBlob(kCheckpointMagic,
                   static_cast<std::uint32_t>(kCheckpointSchema),
                   bytes.value(), &payload)) {
    *error = "frame check failed (truncated, damaged, or version-skewed)";
    return CheckpointLoad::kCorrupt;
  }
  bool mismatch = false;
  if (!ParseCheckpoint(payload, ConfigFingerprint(config), state, &mismatch,
                       error)) {
    return mismatch ? CheckpointLoad::kMismatch : CheckpointLoad::kCorrupt;
  }
  return CheckpointLoad::kResumed;
}

support::Status WriteCampaignCheckpoint(const std::string& dir,
                                        const CampaignConfig& config,
                                        const CampaignState& state) {
  const std::string blob =
      FrameBlob(kCheckpointMagic, static_cast<std::uint32_t>(kCheckpointSchema),
                CheckpointJson(config, state));
  return support::AtomicWriteFile(CheckpointPath(dir), blob);
}

std::string CheckpointDiagnostic(CheckpointLoad load, const std::string& dir,
                                 const std::string& error) {
  switch (load) {
    case CheckpointLoad::kMismatch:
      return "checkpoint in '" + dir +
             "' was written by a different campaign configuration "
             "(--seed/--population/--generations/--ticks/--baseline must "
             "match); use a fresh --checkpoint-dir or the original flags";
    case CheckpointLoad::kCorrupt:
      return "checkpoint in '" + dir + "' is unreadable: " + error +
             "; delete '" + CheckpointPath(dir) + "' to start over";
    default:
      return "";
  }
}

std::string ShardDeltaJson(const CampaignConfig& config,
                           const ShardDelta& delta) {
  std::ostringstream out;
  out << "{\"schema\":" << kShardDeltaSchema << ",\"fingerprint\":"
      << support::JsonEscape(HexU64(ConfigFingerprint(config)))
      << ",\"generation\":" << delta.generation
      << ",\"shard_index\":" << delta.shard_index
      << ",\"shard_count\":" << delta.shard_count << ",\"evals\":[";
  for (std::size_t i = 0; i < delta.evals.size(); ++i) {
    const ShardEval& se = delta.evals[i];
    if (i > 0) out << ",";
    out << "{\"index\":" << se.index << ",\"candidate\":"
        << support::JsonEscape(HexU64(se.candidate_hash))
        << ",\"verdict\":" << VerdictJson(se.verdict)
        << ",\"outcome\":" << support::JsonEscape(se.outcome)
        << ",\"report_digest\":"
        << support::JsonEscape(HexU64(se.report_digest))
        << ",\"cover\":" << CoverSetJson(se.cover) << "}";
  }
  out << "]}";
  return out.str();
}

bool ParseShardDelta(std::string_view payload, ShardDelta* out,
                     std::uint64_t* fingerprint, std::string* error) {
  JsonValue root;
  if (!support::ParseJson(payload, &root, error)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "shard delta is not an object";
    return false;
  }
  int schema = 0;
  if (!support::JsonGetInt(root, "schema", &schema, error)) return false;
  if (schema != kShardDeltaSchema) {
    *error = "unsupported shard delta schema " + std::to_string(schema);
    return false;
  }
  std::string fp_hex;
  if (!support::JsonGetString(root, "fingerprint", &fp_hex, error) ||
      !ParseHexU64(fp_hex, fingerprint)) {
    *error = "field 'fingerprint': not a 16-digit hex value";
    return false;
  }
  if (!support::JsonGetInt(root, "generation", &out->generation, error) ||
      !support::JsonGetInt(root, "shard_index", &out->shard_index, error) ||
      !support::JsonGetInt(root, "shard_count", &out->shard_count, error)) {
    return false;
  }
  const JsonValue* evals = root.Find("evals");
  if (evals == nullptr || evals->kind != JsonValue::Kind::kArray) {
    *error = "field 'evals': missing or not an array";
    return false;
  }
  out->evals.clear();
  out->evals.reserve(evals->items.size());
  for (const JsonValue& e : evals->items) {
    if (e.kind != JsonValue::Kind::kObject) {
      *error = "field 'evals': non-object entry";
      return false;
    }
    ShardEval se;
    std::string candidate_hex;
    std::string digest_hex;
    if (!support::JsonGetInt(e, "index", &se.index, error) ||
        !support::JsonGetString(e, "candidate", &candidate_hex, error) ||
        !ParseHexU64(candidate_hex, &se.candidate_hash)) {
      if (error->empty()) *error = "field 'candidate': bad hex";
      return false;
    }
    const JsonValue* verdict = e.Find("verdict");
    if (verdict == nullptr) {
      *error = "field 'verdict': missing";
      return false;
    }
    if (!ParseVerdict(*verdict, &se.verdict, error)) return false;
    if (!support::JsonGetString(e, "outcome", &se.outcome, error) ||
        !support::JsonGetString(e, "report_digest", &digest_hex, error) ||
        !ParseHexU64(digest_hex, &se.report_digest)) {
      if (error->empty()) *error = "field 'report_digest': bad hex";
      return false;
    }
    const JsonValue* cover = e.Find("cover");
    if (cover == nullptr) {
      *error = "field 'cover': missing";
      return false;
    }
    if (!ParseCoverSet(*cover, &se.cover, error)) return false;
    out->evals.push_back(std::move(se));
  }
  return true;
}

support::Status WriteShardDelta(const std::string& dir,
                                const CampaignConfig& config,
                                const ShardDelta& delta) {
  const std::string blob =
      FrameBlob(kShardMagic, static_cast<std::uint32_t>(kShardDeltaSchema),
                ShardDeltaJson(config, delta));
  return support::AtomicWriteFile(
      ShardDeltaPath(dir, delta.generation, delta.shard_index,
                     delta.shard_count),
      blob);
}

bool LoadShardDeltas(const std::string& dir, const CampaignConfig& config,
                     int generation, std::vector<ShardDelta>* out,
                     std::string* error) {
  out->clear();
  const auto files = support::ListFiles(dir, {".ckshard"});
  if (!files.ok()) {
    *error = files.status().ToString();
    return false;
  }
  const std::uint64_t want_fp = ConfigFingerprint(config);
  for (const std::string& path : files.value()) {
    const auto bytes = support::ReadFile(path);
    if (!bytes.ok()) {
      *error = "shard delta '" + path + "' is unreadable; re-run that shard";
      return false;
    }
    std::string_view payload;
    if (!UnframeBlob(kShardMagic,
                     static_cast<std::uint32_t>(kShardDeltaSchema),
                     bytes.value(), &payload)) {
      *error = "shard delta '" + path +
               "' failed its frame check (truncated or damaged); re-run "
               "that shard";
      return false;
    }
    ShardDelta delta;
    std::uint64_t fp = 0;
    std::string parse_error;
    if (!ParseShardDelta(payload, &delta, &fp, &parse_error)) {
      *error = "shard delta '" + path + "' does not parse (" + parse_error +
               "); re-run that shard";
      return false;
    }
    if (fp != want_fp) {
      *error = "shard delta '" + path +
               "' was produced by a different campaign configuration";
      return false;
    }
    if (delta.generation != generation) continue;  // stale or future
    out->push_back(std::move(delta));
  }
  if (out->empty()) {
    *error = "no shard deltas for generation " + std::to_string(generation) +
             " in '" + dir + "'";
    return false;
  }
  return true;
}

int RemoveShardDeltas(const std::string& dir, int generation) {
  const auto files = support::ListFiles(dir, {".ckshard"});
  if (!files.ok()) return 0;
  const std::string prefix = "shard_g" + std::to_string(generation) + "_";
  int removed = 0;
  for (const std::string& path : files.value()) {
    const std::string name = fs::path(path).filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    std::error_code ec;
    if (fs::remove(path, ec) && !ec) ++removed;
  }
  return removed;
}

bool ParseShardSpec(std::string_view spec, int* index, int* count,
                    std::string* error) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string_view::npos || slash == 0 ||
      slash + 1 >= spec.size()) {
    *error = "--shard expects i/N (e.g. 0/4), got '" + std::string(spec) + "'";
    return false;
  }
  const std::string_view index_part = spec.substr(0, slash);
  const std::string_view count_part = spec.substr(slash + 1);
  const auto parse_int = [](std::string_view s, int* out) {
    const auto res = std::from_chars(s.data(), s.data() + s.size(), *out);
    return res.ec == std::errc() && res.ptr == s.data() + s.size();
  };
  if (!parse_int(index_part, index) || !parse_int(count_part, count)) {
    *error = "--shard expects numeric i/N, got '" + std::string(spec) + "'";
    return false;
  }
  if (*count < 1) {
    *error = "--shard count must be >= 1, got " + std::to_string(*count);
    return false;
  }
  if (*count > 1024) {
    *error = "--shard count must be <= 1024, got " + std::to_string(*count);
    return false;
  }
  if (*index < 0 || *index >= *count) {
    *error = "--shard index " + std::to_string(*index) +
             " out of range for " + std::to_string(*count) +
             " shard(s); expected 0 <= i < N";
    return false;
  }
  return true;
}

}  // namespace certkit::campaign

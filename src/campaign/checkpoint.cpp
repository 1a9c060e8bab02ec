#include "campaign/checkpoint.h"

#include <charconv>
#include <filesystem>
#include <sstream>
#include <utility>

#include "campaign/corpus_store.h"
#include "support/fnv.h"
#include "support/io.h"
#include "support/record.h"

namespace certkit::campaign {

namespace fs = std::filesystem;

namespace {

constexpr char kCheckpointMagic[4] = {'C', 'K', 'P', '2'};
constexpr char kShardMagic[4] = {'C', 'K', 'S', '2'};

// The campaign identity both payloads carry right after their schema.
struct ConfigStamp {
  std::uint64_t fingerprint = 0;
  template <class Io, class Self>
  static void Fields(Io& io, Self& s) {
    io("fingerprint", support::Hex{s.fingerprint});
  }
};

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
  return support::JsonWriter::Document(
      kCheckpointSchema, ConfigStamp{ConfigFingerprint(config)}, state);
}

bool ParseCheckpoint(std::string_view payload, std::uint64_t fingerprint,
                     CampaignState* out, bool* mismatch, std::string* error) {
  // Schema, then fingerprint, then the body: a foreign campaign's
  // checkpoint is a mismatch even when its body would not parse.
  support::JsonReader doc(error);
  ConfigStamp stamp;
  *mismatch = doc.Open(payload, "checkpoint", kCheckpointSchema) &&
              doc.Fields(&stamp) && stamp.fingerprint != fingerprint;
  if (*mismatch) *error = "configuration fingerprint mismatch";
  CampaignState state;
  const bool ok = !*mismatch && doc.Fields(&state);
  if (ok) *out = std::move(state);
  return ok;
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
  std::string bytes;
  std::string_view payload;
  const support::Status read = support::ReadFrame(
      path, kCheckpointMagic, kCheckpointSchema, &bytes, &payload);
  if (!read.ok()) {
    *error = read.message();
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
  return support::WriteFrame(CheckpointPath(dir), kCheckpointMagic,
                             kCheckpointSchema, CheckpointJson(config, state));
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
  return support::JsonWriter::Document(
      kShardDeltaSchema, ConfigStamp{ConfigFingerprint(config)}, delta);
}

bool ParseShardDelta(std::string_view payload, ShardDelta* out,
                     std::uint64_t* fingerprint, std::string* error) {
  support::JsonReader doc(error);
  ConfigStamp stamp;
  const bool ok = doc.Open(payload, "shard delta", kShardDeltaSchema) &&
                  doc.Fields(&stamp) && doc.Fields(out);
  *fingerprint = stamp.fingerprint;
  return ok;
}

support::Status WriteShardDelta(const std::string& dir,
                                const CampaignConfig& config,
                                const ShardDelta& delta) {
  return support::WriteFrame(ShardDeltaPath(dir, delta.generation,
                                            delta.shard_index,
                                            delta.shard_count),
                             kShardMagic, kShardDeltaSchema,
                             ShardDeltaJson(config, delta));
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
    std::string bytes;
    std::string_view payload;
    const support::Status read = support::ReadFrame(
        path, kShardMagic, kShardDeltaSchema, &bytes, &payload);
    if (!read.ok()) {
      *error = "shard delta '" + path + "': " + read.message() +
               "; re-run that shard";
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

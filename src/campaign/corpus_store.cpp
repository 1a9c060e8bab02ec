#include "campaign/corpus_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>

#include "campaign/replay.h"
#include "support/fnv.h"
#include "support/io.h"

namespace certkit::campaign {

namespace fs = std::filesystem;

using support::JsonValue;

std::uint64_t CandidateHash(const Candidate& candidate) {
  return support::FnvStr(CandidateJson(candidate));
}

std::string CoverSetJson(const cov::CoverSet& cover) {
  std::ostringstream out;
  out << "{";
  bool first_unit = true;
  for (const auto& [unit, uc] : cover) {
    if (!first_unit) out << ",";
    first_unit = false;
    out << support::JsonEscape(unit) << ":{\"stmts\":[";
    bool first = true;
    for (const int id : uc.stmts) {
      if (!first) out << ",";
      first = false;
      out << id;
    }
    out << "],\"decisions\":[";
    first = true;
    for (const auto& [id, dec] : uc.decisions) {
      if (!first) out << ",";
      first = false;
      out << "{\"id\":" << id << ",\"conds\":" << dec.num_conditions
          << ",\"t\":" << (dec.seen_true ? "true" : "false")
          << ",\"f\":" << (dec.seen_false ? "true" : "false")
          << ",\"vectors\":[";
      bool first_vec = true;
      for (const auto& [mask, outcome] : dec.vectors) {
        if (!first_vec) out << ",";
        first_vec = false;
        out << "[" << support::JsonEscape(HexU64(mask)) << ","
            << (outcome ? "true" : "false") << "]";
      }
      out << "]}";
    }
    out << "]}";
  }
  out << "}";
  return out.str();
}

bool ParseCoverSet(const JsonValue& v, cov::CoverSet* out,
                   std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "cover is not an object";
    return false;
  }
  out->clear();
  for (const auto& [unit, uv] : v.members) {
    if (uv.kind != JsonValue::Kind::kObject) {
      *error = "cover unit '" + unit + "' is not an object";
      return false;
    }
    cov::UnitCover uc;
    const JsonValue* stmts = uv.Find("stmts");
    if (stmts == nullptr || stmts->kind != JsonValue::Kind::kArray) {
      *error = "field 'stmts': missing or not an array";
      return false;
    }
    for (const JsonValue& s : stmts->items) {
      if (s.kind != JsonValue::Kind::kNumber) {
        *error = "field 'stmts': non-numeric id";
        return false;
      }
      uc.stmts.insert(static_cast<int>(s.number));
    }
    const JsonValue* decisions = uv.Find("decisions");
    if (decisions == nullptr || decisions->kind != JsonValue::Kind::kArray) {
      *error = "field 'decisions': missing or not an array";
      return false;
    }
    for (const JsonValue& d : decisions->items) {
      if (d.kind != JsonValue::Kind::kObject) {
        *error = "field 'decisions': non-object entry";
        return false;
      }
      int id = 0;
      cov::DecisionCover dec;
      if (!support::JsonGetInt(d, "id", &id, error) ||
          !support::JsonGetInt(d, "conds", &dec.num_conditions, error) ||
          !support::JsonGetBool(d, "t", &dec.seen_true, error) ||
          !support::JsonGetBool(d, "f", &dec.seen_false, error)) {
        return false;
      }
      const JsonValue* vectors = d.Find("vectors");
      if (vectors == nullptr || vectors->kind != JsonValue::Kind::kArray) {
        *error = "field 'vectors': missing or not an array";
        return false;
      }
      for (const JsonValue& vec : vectors->items) {
        if (vec.kind != JsonValue::Kind::kArray || vec.items.size() != 2 ||
            vec.items[0].kind != JsonValue::Kind::kString ||
            vec.items[1].kind != JsonValue::Kind::kBool) {
          *error = "field 'vectors': entry is not a [mask, outcome] pair";
          return false;
        }
        std::uint64_t mask = 0;
        if (!ParseHexU64(vec.items[0].string, &mask)) {
          *error = "field 'vectors': mask is not a 16-digit hex value";
          return false;
        }
        dec.vectors.emplace(mask, vec.items[1].boolean);
      }
      uc.decisions[id] = std::move(dec);
    }
    (*out)[unit] = std::move(uc);
  }
  return true;
}

std::int64_t CoverFacts(const cov::CoverSet& cover) {
  // Exactly MergeCover's accounting against an empty destination, so "facts
  // in this cover" and "facts this cover would add first" agree by
  // construction.
  cov::CoverSet empty;
  return cov::MergeCover(&empty, cover);
}

std::uint64_t CoverDigest(const cov::CoverSet& cover) {
  return support::FnvStr(CoverSetJson(cover));
}

std::string CorpusEntryJson(const CorpusEntry& entry) {
  std::ostringstream out;
  out << "{\"schema\":" << kCorpusSchema
      << ",\"candidate\":" << CandidateJson(entry.candidate)
      << ",\"verdict\":" << VerdictJson(entry.verdict)
      << ",\"outcome\":" << support::JsonEscape(entry.outcome)
      << ",\"report_digest\":" << support::JsonEscape(HexU64(entry.report_digest))
      << ",\"cover\":" << CoverSetJson(entry.cover) << "}";
  return out.str();
}

bool ParseCorpusEntry(std::string_view json, CorpusEntry* out,
                      std::string* error) {
  JsonValue root;
  if (!support::ParseJson(json, &root, error)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "corpus entry is not an object";
    return false;
  }
  int schema = 0;
  if (!support::JsonGetInt(root, "schema", &schema, error)) return false;
  if (schema != kCorpusSchema) {
    *error = "unsupported corpus schema " + std::to_string(schema);
    return false;
  }
  const JsonValue* candidate = root.Find("candidate");
  if (candidate == nullptr) {
    *error = "field 'candidate': missing";
    return false;
  }
  if (!ParseCandidate(*candidate, &out->candidate, error)) return false;
  const JsonValue* verdict = root.Find("verdict");
  if (verdict == nullptr) {
    *error = "field 'verdict': missing";
    return false;
  }
  if (!ParseVerdict(*verdict, &out->verdict, error)) return false;
  if (!support::JsonGetString(root, "outcome", &out->outcome, error)) {
    return false;
  }
  std::string digest;
  if (!support::JsonGetString(root, "report_digest", &digest, error)) {
    return false;
  }
  if (!ParseHexU64(digest, &out->report_digest)) {
    *error = "field 'report_digest': not a 16-digit hex digest";
    return false;
  }
  const JsonValue* cover = root.Find("cover");
  if (cover == nullptr) {
    *error = "field 'cover': missing";
    return false;
  }
  return ParseCoverSet(*cover, &out->cover, error);
}

namespace {

constexpr std::size_t kFrameHeaderSize = 4 + 4 + 8;

void AppendU32Le(std::uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64Le(std::uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t ReadU32Le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t ReadU64Le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

}  // namespace

std::string FrameBlob(const char magic[4], std::uint32_t schema,
                      std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(magic, 4);
  AppendU32Le(schema, &out);
  AppendU64Le(support::FnvStr(payload), &out);
  out.append(payload);
  return out;
}

bool UnframeBlob(const char magic[4], std::uint32_t schema,
                 std::string_view blob, std::string_view* payload) {
  if (blob.size() < kFrameHeaderSize) return false;
  if (std::memcmp(blob.data(), magic, 4) != 0) return false;
  if (ReadU32Le(blob.data() + 4) != schema) return false;
  const std::uint64_t digest = ReadU64Le(blob.data() + 8);
  const std::string_view body = blob.substr(kFrameHeaderSize);
  if (support::FnvStr(body) != digest) return false;
  *payload = body;
  return true;
}

namespace {

constexpr char kCorpusMagic[4] = {'C', 'K', 'C', '1'};

}  // namespace

CorpusStore::CorpusStore(std::string dir) : dir_(std::move(dir)) {}

std::string CorpusStore::EntryPath(std::uint64_t candidate_hash) const {
  return dir_ + "/" + HexU64(candidate_hash) + ".ckcorp";
}

support::Status CorpusStore::Put(const CorpusEntry& entry) const {
  if (!enabled()) return support::Status::Ok();
  const std::string blob =
      FrameBlob(kCorpusMagic, static_cast<std::uint32_t>(kCorpusSchema),
                CorpusEntryJson(entry));
  return support::AtomicWriteFile(EntryPath(CandidateHash(entry.candidate)),
                                  blob);
}

bool CorpusStore::Load(std::uint64_t candidate_hash, CorpusEntry* out) const {
  if (!enabled()) return false;
  const auto bytes = support::ReadFile(EntryPath(candidate_hash));
  if (!bytes.ok()) return false;
  std::string_view payload;
  if (!UnframeBlob(kCorpusMagic, static_cast<std::uint32_t>(kCorpusSchema),
                   bytes.value(), &payload)) {
    return false;
  }
  std::string error;
  if (!ParseCorpusEntry(payload, out, &error)) return false;
  // The filename is the content address; an entry whose candidate hashes
  // differently is another candidate's data (or a collision) — recompute.
  return CandidateHash(out->candidate) == candidate_hash;
}

std::vector<CorpusEntry> CorpusStore::LoadAll() const {
  std::vector<CorpusEntry> entries;
  if (!enabled()) return entries;
  const auto files = support::ListFiles(dir_, {".ckcorp"});
  if (!files.ok()) return entries;
  std::set<std::uint64_t> seen;
  for (const std::string& path : files.value()) {
    const std::string name = fs::path(path).filename().string();
    // <hex16>.ckcorp exactly; anything else is a foreign file.
    if (name.size() != 16 + 7) continue;
    std::uint64_t hash = 0;
    if (!ParseHexU64(std::string_view(name).substr(0, 16), &hash)) continue;
    if (!seen.insert(hash).second) continue;
    CorpusEntry entry;
    if (Load(hash, &entry)) entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) {
              if (a.candidate.id != b.candidate.id) {
                return a.candidate.id < b.candidate.id;
              }
              return CandidateHash(a.candidate) < CandidateHash(b.candidate);
            });
  return entries;
}

int CorpusStore::CountEntries() const {
  return static_cast<int>(LoadAll().size());
}

}  // namespace certkit::campaign

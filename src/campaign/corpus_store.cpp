#include "campaign/corpus_store.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "support/fnv.h"
#include "support/io.h"
#include "support/record.h"

namespace certkit::campaign {

namespace fs = std::filesystem;

std::uint64_t CandidateHash(const Candidate& candidate) {
  return support::FnvStr(CandidateJson(candidate));
}

std::string CoverSetJson(const cov::CoverSet& cover) {
  return support::JsonWriter::Write(cover);
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
  return support::JsonWriter::Document(kCorpusSchema, entry);
}

bool ParseCorpusEntry(std::string_view json, CorpusEntry* out,
                      std::string* error) {
  support::JsonReader doc(error);
  return doc.Open(json, "corpus", kCorpusSchema) && doc.Fields(out);
}

namespace {

constexpr char kCorpusMagic[4] = {'C', 'K', 'C', '2'};

}  // namespace

CorpusStore::CorpusStore(std::string dir) : dir_(std::move(dir)) {}

std::string CorpusStore::EntryPath(std::uint64_t candidate_hash) const {
  return dir_ + "/" + support::HexU64(candidate_hash) + ".ckcorp";
}

support::Status CorpusStore::Put(const CorpusEntry& entry) const {
  if (!enabled()) return support::Status::Ok();
  return support::WriteFrame(EntryPath(CandidateHash(entry.candidate)),
                             kCorpusMagic, kCorpusSchema,
                             CorpusEntryJson(entry));
}

bool CorpusStore::Load(std::uint64_t candidate_hash, CorpusEntry* out) const {
  if (!enabled()) return false;
  std::string bytes;
  std::string_view payload;
  if (!support::ReadFrame(EntryPath(candidate_hash), kCorpusMagic,
                          kCorpusSchema, &bytes, &payload)
           .ok()) {
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
    if (!support::ParseHexU64(name.substr(0, 16), &hash)) continue;
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

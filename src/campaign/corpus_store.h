// certkit campaign: the content-addressed persistent corpus store.
//
// A long-running campaign accumulates a corpus (candidates worth mutating)
// and the coverage facts that justified keeping them. This store persists
// both across process exits with the same discipline as the driver's
// ArtifactCache:
//
//  * content addressing — every entry is keyed by the FNV-1a/64 hash of its
//    candidate's canonical JSON, so identical candidates from different
//    shards or sessions dedup to one file;
//  * framed entries — a 4-byte magic, a u32 schema version, and a u64
//    payload digest precede the JSON payload. Truncated, bit-flipped, or
//    version-skewed entries fail the frame check and are *silently
//    recomputed* (Evaluate is a pure function of the candidate), never
//    trusted, never fatal;
//  * atomic writes — entries land under a unique temp name and are renamed
//    into place, so concurrent writers (shards on a shared directory) and
//    readers only ever see whole entries.
//
// The binary format is documented in DESIGN.md; the corruption suite in
// tests/campaign/corpus_store_test.cpp locks the recovery behavior.
#ifndef CERTKIT_CAMPAIGN_CORPUS_STORE_H_
#define CERTKIT_CAMPAIGN_CORPUS_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/candidate.h"
#include "campaign/oracle.h"
#include "coverage/coverage.h"
#include "support/json.h"
#include "support/status.h"

namespace certkit::campaign {

// Bump when CorpusEntryJson changes shape; readers recompute entries whose
// schema they do not understand.
inline constexpr int kCorpusSchema = 1;

// Content address of a candidate: FNV-1a/64 over its canonical JSON. Two
// candidates hash equal iff their serialized forms are identical.
std::uint64_t CandidateHash(const Candidate& candidate);

// --- cover serialization --------------------------------------------------
// One-line JSON for a detached cover set (stable order: units and probe ids
// ascending, vectors in set order). MC/DC vector masks are u64 bitmasks and
// ride as 16-digit hex strings, like every digest in the replay format.
std::string CoverSetJson(const cov::CoverSet& cover);
bool ParseCoverSet(const support::JsonValue& v, cov::CoverSet* out,
                   std::string* error);

// Number of probe facts in `cover` (statements + decision outcomes + MC/DC
// vectors) — what merging it into an empty map would return.
std::int64_t CoverFacts(const cov::CoverSet& cover);

// FNV-1a/64 over CoverSetJson(cover): the per-request coverage attribution
// digest the serve loop reports.
std::uint64_t CoverDigest(const cov::CoverSet& cover);

// --- entries --------------------------------------------------------------

// Everything the campaign needs back from a kept candidate's evaluation.
struct CorpusEntry {
  Candidate candidate;
  OracleVerdict verdict;
  std::string outcome;  // OutcomeSignature(verdict)
  std::uint64_t report_digest = 0;
  cov::CoverSet cover;
};

// Emit -> parse -> emit is byte-identical (the resume determinism tests
// compare stored entry *bytes* across runs).
std::string CorpusEntryJson(const CorpusEntry& entry);
bool ParseCorpusEntry(std::string_view json, CorpusEntry* out,
                      std::string* error);

// --- framing --------------------------------------------------------------
// blob := magic[4] | schema u32 LE | fnv64(payload) u64 LE | payload.
// UnframeBlob returns false on any mismatch (wrong magic, short header,
// schema skew, digest mismatch) — the caller recomputes.
std::string FrameBlob(const char magic[4], std::uint32_t schema,
                      std::string_view payload);
bool UnframeBlob(const char magic[4], std::uint32_t schema,
                 std::string_view blob, std::string_view* payload);

// --- the store ------------------------------------------------------------

class CorpusStore {
 public:
  // Empty `dir` disables the store (Put/Load become no-ops); campaigns
  // without --checkpoint-dir run exactly as before.
  explicit CorpusStore(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // `<dir>/<hex16-candidate-hash>.ckcorp`.
  std::string EntryPath(std::uint64_t candidate_hash) const;

  // Frames and atomically writes `entry` under its candidate hash.
  // Overwrites (identical content) are harmless.
  support::Status Put(const CorpusEntry& entry) const;

  // Loads the entry for `candidate_hash`. False when absent, corrupt,
  // schema-skewed, or its payload hashes to a different candidate — all of
  // which the caller treats as "recompute".
  bool Load(std::uint64_t candidate_hash, CorpusEntry* out) const;

  // Every valid entry, deduped by candidate hash and sorted by candidate id
  // (ties by hash). Corrupt or foreign files are skipped silently.
  std::vector<CorpusEntry> LoadAll() const;

  // Valid entries on disk (corrupt/foreign files excluded).
  int CountEntries() const;

 private:
  std::string dir_;
};

}  // namespace certkit::campaign

#endif  // CERTKIT_CAMPAIGN_CORPUS_STORE_H_

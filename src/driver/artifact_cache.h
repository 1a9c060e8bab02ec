// certkit driver: content-hash artifact cache for per-file analysis.
//
// Every FileAnalysis is a pure function of (path, module, file bytes,
// analysis options). The cache exploits that: the file bytes' content key
// (HashBytes) and an FNV-1a/64 digest over it and the other three inputs
// name a serialized artifact on disk, so a re-run only pays for files whose
// bytes (or options) changed — the merge layer cannot tell a cached
// artifact from a freshly computed one, keeping the CodebaseAnalysis
// bit-identical for any cached/fresh mix and any --jobs count.
//
// Entry format: the frame of support/io.h (magic "CKA2", payload digest)
// around
//   u64 options_fingerprint | u64 content_hash | FileAnalysis | model
// written by the records' field lists (FileAnalysis::Fields,
// ast::SourceFileModel::Fields and the records they name) through
// support::BinaryWriter: fixed-width fields in host order, counts and
// positions LEB128, since warm runs are IO + decode bound. Tokens and
// comments go through the codecs in artifact_cache.cpp as views into the
// file text — stored once — with an inline-bytes escape for the rare
// lexemes that are not a contiguous source slice (spliced string literals
// / line comments). Schema 2 delta-codes token vectors (kind, gap from the
// previous slice, length, line delta, column: five bytes for almost every
// token, decoded eight bytes at a time) and stands for the text by its
// size alone.
//
// A second entry kind ("CKM2", *.ckmod) caches the per-module phase
// (rules::AnalyzeUnitDesign + rules::AnalyzeDefensive), keyed by the module
// name and the member files' (path, content-hash) list in merge order — the
// phase is a pure function of those inputs, and on a warm run it would
// otherwise dominate the wall time by re-walking every token.
//
// Invalidation is implicit: any change to the file bytes, the path, the
// module key, or the options fingerprint selects a different entry name; a
// bump of kArtifactSchemaVersion orphans every old entry. Unreadable,
// truncated, or damaged entries (the frame digest is checked on every
// load) fail Load() and are silently recomputed — the cache is an
// accelerator, never a source of truth.
#ifndef CERTKIT_DRIVER_ARTIFACT_CACHE_H_
#define CERTKIT_DRIVER_ARTIFACT_CACHE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ast/source_model.h"
#include "driver/analysis_driver.h"

namespace certkit::driver {

// Bump when the serialized layout of any payload struct changes, and also
// when the analysis of unchanged bytes changes (a parser or rule fix), so
// that entries an older build wrote miss once instead of serving its
// results.
inline constexpr std::uint32_t kArtifactSchemaVersion = 4;

// The content key of a file's bytes: a 64-bit hash read eight bytes at a
// time in four lanes, with an avalanche at the end, so that any change to
// the bytes moves the key (a hit would otherwise return a stale analysis).
// The driver computes it once per file per pass.
std::uint64_t HashBytes(std::string_view bytes);

// Digest of the per-file analysis options — part of every cache key, so a
// changed MISRA/style/lex configuration never resurrects stale artifacts.
std::uint64_t OptionsFingerprint(const DriverOptions& options);

// Serializes one file's complete analysis (public artifact + parsed model).
// `model.lexed` must be the model the artifact was computed from. The
// source text itself is NOT stored — only its (hash, size) — because every
// load site already holds the bytes (it just hashed them to find the
// entry); re-shipping ~half the blob would double warm-run IO.
std::string SerializeArtifact(const FileAnalysis& analysis,
                              const ast::SourceFileModel& model);

// Parses `bytes` into (*analysis, *model), rebuilding FileAnalysis::text
// and the zero-copy token buffer from `content` — which must be the exact
// bytes the artifact was serialized from (the cache verifies this via the
// content hash in the entry's stamp before calling). Returns false on any
// truncation, overrun, out-of-range enum or token range, or trailing byte;
// outputs are unspecified on failure.
bool DeserializeArtifact(std::string_view bytes, std::string_view content,
                         FileAnalysis* analysis, ast::SourceFileModel* model);

// The *.ckmod payload: a module's unit-design and defensive results. The
// reader has Deserialize's contract.
std::string SerializeModulePhase(const rules::UnitDesignResult& unit_design,
                                 const rules::DefensiveResult& defensive);
bool DeserializeModulePhase(std::string_view bytes,
                            rules::UnitDesignResult* unit_design,
                            rules::DefensiveResult* defensive);

// Order-independent digest of a merged analysis: an FNV-1a/64 chain over
// every per-file artifact in a canonical encoding (absolute token offsets,
// the text by its FnvStr digest and size; independent of the entry layout)
// plus the module-phase reports and the skipped list. Two CodebaseAnalysis
// values digest equal iff the analysis output is the same — the
// bit-identity check used by the cache tests and the incremental bench.
std::uint64_t DigestAnalysis(const CodebaseAnalysis& analysis);

class ArtifactCache {
 public:
  // `dir` is created on first Store. An empty dir disables the cache
  // (Load always misses, Store is a no-op).
  ArtifactCache(std::string dir, std::uint64_t options_fingerprint);

  bool enabled() const { return !dir_.empty(); }

  // Looks up the artifact for (path, module, content). On a hit, fills
  // *analysis / *model (module_index/file_index are left for the merge to
  // assign) and returns true. Any miss, version skew, or corruption returns
  // false. The overload taking `content_hash` (== HashBytes(content)) lets
  // a caller that already hashed the bytes skip the second pass.
  bool Load(const std::string& path, const std::string& module,
            const std::string& content, FileAnalysis* analysis,
            ast::SourceFileModel* model) const;
  bool Load(const std::string& path, const std::string& module,
            const std::string& content, std::uint64_t content_hash,
            FileAnalysis* analysis, ast::SourceFileModel* model) const;

  // Writes the artifact for later runs. Best-effort: IO failures are
  // swallowed (the run already has its result). Atomic via temp + rename so
  // concurrent workers and concurrent processes never observe torn entries.
  // The overload taking `content_hash` (== HashBytes(content)) is the
  // driver's, which hashed the bytes once already.
  void Store(const std::string& content, const FileAnalysis& analysis,
             const ast::SourceFileModel& model) const;
  void Store(std::uint64_t content_hash, const FileAnalysis& analysis,
             const ast::SourceFileModel& model) const;

  // The on-disk entry file for (path, module, content) under this cache's
  // options fingerprint. Exposed for tests.
  std::string EntryPath(const std::string& path, const std::string& module,
                        const std::string& content) const;
  // Same entry with a precomputed content hash — the form the driver holds
  // after a run, when the file bytes themselves are already consumed.
  std::string EntryPathForHash(const std::string& path,
                               const std::string& module,
                               std::uint64_t content_hash) const;

  // Removes every cache entry (*.ckart / *.ckmod) whose file is not named
  // in `live` (entry paths as returned by EntryPath / EntryPathForHash /
  // ModulePhaseEntryPath). Entries orphaned by edits, renames, deletions,
  // or option changes otherwise accumulate forever — the entry name IS the
  // content key, so nothing ever overwrites them. Returns the number of
  // entries removed; foreign files in the directory are left alone.
  int GarbageCollect(const std::vector<std::string>& live) const;

  // --- per-module phase entries ---------------------------------------

  // Key of the module phase for `module` over `files`, a (path,
  // content-hash) list in merge (path) order. Includes the options
  // fingerprint, so the same invalidation rules apply.
  std::uint64_t ModulePhaseKey(
      const std::string& module,
      const std::vector<std::pair<std::string, std::uint64_t>>& files) const;

  // The on-disk entry file for a module-phase key; lets GC callers and
  // tests name live module entries.
  std::string ModulePhaseEntryPath(std::uint64_t key) const;

  // Load/store of the cached module phase under `key`. Same contract as the
  // per-file entries: corrupt or mismatched entries miss and are recomputed.
  bool LoadModulePhase(std::uint64_t key, rules::UnitDesignResult* unit_design,
                       rules::DefensiveResult* defensive) const;
  void StoreModulePhase(std::uint64_t key,
                        const rules::UnitDesignResult& unit_design,
                        const rules::DefensiveResult& defensive) const;

 private:
  std::string EntryFile(std::uint64_t key, const char* extension) const;

  std::string dir_;
  std::uint64_t options_fingerprint_ = 0;
};

}  // namespace certkit::driver

#endif  // CERTKIT_DRIVER_ARTIFACT_CACHE_H_

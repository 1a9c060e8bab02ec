#include "driver/artifact_cache.h"

#include <deque>
#include <filesystem>
#include <memory>
#include <set>
#include <vector>

#include "support/fnv.h"
#include "support/io.h"
#include "support/record.h"

namespace certkit::driver {

namespace fs = std::filesystem;

namespace {

constexpr char kFileMagic[4] = {'C', 'K', 'A', '2'};
constexpr char kModuleMagic[4] = {'C', 'K', 'M', '2'};

// ---- token / lexeme codec -------------------------------------------------
//
// Tokens and comments are views into the file text, so they have no field
// list. Each starts with a lead byte: the token kind (0 for a comment) in
// the low bits, the inline flag in bit 7. A slice lexeme then carries
// varint (offset, length) into the text, stored once; an inline one (a
// spliced string literal or line comment, rare) carries its bytes. A token
// ends with its varint line and column, a comment with its line.

constexpr std::uint8_t kInlineBit = 0x80;

struct LexemeCodec {
  const std::string* text = nullptr;  // the text slices index
  lex::LexedFile* owner = nullptr;    // decoding: keeps inline lexemes

  template <class Writer>
  void Encode(Writer& w, const lex::Token& t) const {
    Lexeme(w, static_cast<std::uint8_t>(t.kind), t.text);
    w.Var(static_cast<std::uint32_t>(t.line));
    w.Var(static_cast<std::uint32_t>(t.column));
  }
  template <class Writer>
  void Encode(Writer& w, const lex::Comment& c) const {
    Lexeme(w, 0, c.text);
    w("line", c.line);
  }
  template <class Reader>
  void Decode(Reader& r, lex::Token& t) const {
    const std::uint8_t lead = r.U8();
    const int kind = lead & ~kInlineBit;
    r.Report(kind < lex::kNumTokenKinds ? nullptr : "token kind out of range");
    t.kind = static_cast<lex::TokenKind>(kind);
    t.text = Lexeme(r, lead);
    t.line = static_cast<std::int32_t>(static_cast<std::uint32_t>(r.Var()));
    t.column = static_cast<std::int32_t>(static_cast<std::uint32_t>(r.Var()));
  }
  template <class Reader>
  void Decode(Reader& r, lex::Comment& c) const {
    const std::uint8_t lead = r.U8();
    r.Report((lead & ~kInlineBit) == 0 ? nullptr : "not a comment");
    c.text = Lexeme(r, lead);
    r("line", c.line);
  }

  template <class Writer>
  void Lexeme(Writer& w, std::uint8_t lead, std::string_view lexeme) const {
    const bool slice = text != nullptr && lexeme.data() >= text->data() &&
                       lexeme.data() + lexeme.size() <=
                           text->data() + text->size();
    w.U8(slice ? lead : lead | kInlineBit);
    if (slice) {
      w.Var(lexeme.data() - text->data());
      w.Var(lexeme.size());
    } else {
      w.Str(lexeme);
    }
  }
  // Inlined into the token loop, which dominates a warm load.
  template <class Reader>
  [[gnu::always_inline]] std::string_view Lexeme(Reader& r,
                                                 std::uint8_t lead) const {
    std::string_view lexeme;
    if ((lead & kInlineBit) != 0) {
      lexeme = Keep(r.Str());
    } else {
      const std::uint64_t offset = r.Var();
      const std::uint64_t size = r.Var();
      const bool inside = text != nullptr && offset <= text->size() &&
                          size <= text->size() - offset;
      r.Report(inside ? nullptr : "lexeme outside the text");
      if (inside) lexeme = std::string_view(text->data() + offset, size);
    }
    return lexeme;
  }
  // Out of line: inline lexemes are rare.
  [[gnu::noinline]] std::string_view Keep(std::string lexeme) const {
    if (!owner->owned_lexemes) {
      owner->owned_lexemes = std::make_shared<std::deque<std::string>>();
    }
    return owner->owned_lexemes->emplace_back(std::move(lexeme));
  }
};

using Writer = support::BinaryWriter<LexemeCodec>;
using Reader = support::BinaryReader<LexemeCodec>;

// What every entry's payload starts with: the options fingerprint and the
// key (content hash or module-phase key) the entry was stored under. It
// sits inside the digested payload, so a damaged stamp misses too.
std::string Stamp(std::uint64_t fingerprint, std::uint64_t key) {
  return support::BinaryWriter<>::Write(support::Hex{fingerprint},
                                        support::Hex{key});
}

// Points *body past the stamp of the entry at `path`; false when the entry
// is missing, fails its frame check or carries another stamp.
bool ReadEntry(const std::string& path, const char* magic,
               const std::string& stamp, std::string* bytes,
               std::string_view* body) {
  const bool found =
      support::ReadFrame(path, magic, kArtifactSchemaVersion, bytes, body)
          .ok() &&
      body->starts_with(stamp);
  if (found) body->remove_prefix(stamp.size());
  return found;
}

}  // namespace

std::uint64_t HashBytes(std::string_view bytes, std::uint64_t seed) {
  return support::FnvStr(bytes, seed);
}

std::uint64_t OptionsFingerprint(const DriverOptions& options) {
  return HashBytes(support::BinaryWriter<>::Write(
      kArtifactSchemaVersion, options.keep_comments,
      options.misra.include_dialect_analogues,
      options.misra.check_unused_params, options.style_max_line_length));
}

std::string SerializeArtifact(const FileAnalysis& analysis,
                              const ast::SourceFileModel& model) {
  return Writer(LexemeCodec{model.lexed.buffer.get()})
      .Append(analysis, model)
      .Take();
}

bool DeserializeArtifact(std::string_view bytes, std::string_view content,
                         FileAnalysis* analysis,
                         ast::SourceFileModel* model) {
  analysis->text = std::string(content);
  analysis->module_index = 0;
  analysis->file_index = 0;
  // The zero-copy backing store the token views point into.
  model->lexed.buffer = std::make_shared<const std::string>(content);
  std::string error;
  return Reader(bytes, &error,
                LexemeCodec{model->lexed.buffer.get(), &model->lexed})
      .Read(*analysis, *model);
}

std::string SerializeModulePhase(const rules::UnitDesignResult& unit_design,
                                 const rules::DefensiveResult& defensive) {
  return support::BinaryWriter<>::Write(unit_design.stats, unit_design.report,
                                        defensive.stats, defensive.report);
}

bool DeserializeModulePhase(std::string_view bytes,
                            rules::UnitDesignResult* unit_design,
                            rules::DefensiveResult* defensive) {
  std::string error;
  return support::BinaryReader<>(bytes, &error)
      .Read(unit_design->stats, unit_design->report, defensive->stats,
            defensive->report);
}

std::uint64_t DigestAnalysis(const CodebaseAnalysis& analysis) {
  std::uint64_t h = HashBytes("certkit-analysis-digest");
  for (const auto& fa : analysis.files) {
    const ast::SourceFileModel& model =
        analysis.modules[fa.module_index].files[fa.file_index];
    h = HashBytes(SerializeArtifact(fa, model), h);
  }
  support::BinaryWriter<> w;
  for (const auto& ud : analysis.unit_design) w.Append(ud.stats, ud.report);
  for (const auto& d : analysis.defensive) w.Append(d.stats, d.report);
  for (const auto& s : analysis.skipped) w.Append(s);
  return HashBytes(w.Take(), h);
}

ArtifactCache::ArtifactCache(std::string dir,
                             std::uint64_t options_fingerprint)
    : dir_(std::move(dir)), options_fingerprint_(options_fingerprint) {}

std::string ArtifactCache::EntryFile(std::uint64_t key,
                                     const char* extension) const {
  return (fs::path(dir_) / (support::HexU64(key) + extension)).string();
}

std::string ArtifactCache::EntryPath(const std::string& path,
                                     const std::string& module,
                                     const std::string& content) const {
  return EntryPathForHash(path, module, HashBytes(content));
}

std::string ArtifactCache::EntryPathForHash(const std::string& path,
                                            const std::string& module,
                                            std::uint64_t content_hash) const {
  return EntryFile(HashBytes(support::BinaryWriter<>::Write(
                       support::Hex{options_fingerprint_}, path, module,
                       support::Hex{content_hash})),
                   ".ckart");
}

std::string ArtifactCache::ModulePhaseEntryPath(std::uint64_t key) const {
  return EntryFile(key, ".ckmod");
}

int ArtifactCache::GarbageCollect(const std::vector<std::string>& live) const {
  if (!enabled()) return 0;
  // Compare by entry file name: the key hash is the name, and matching on
  // names keeps the check independent of how the caller spelled the cache
  // directory (relative vs absolute).
  std::set<std::string> keep;
  for (const std::string& path : live) {
    keep.insert(fs::path(path).filename().string());
  }
  int removed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const std::string ext = entry.path().extension().string();
    if (ext != ".ckart" && ext != ".ckmod") continue;  // not ours
    if (keep.count(name) != 0) continue;
    if (fs::remove(entry.path(), ec)) ++removed;
  }
  return removed;
}

bool ArtifactCache::Load(const std::string& path, const std::string& module,
                         const std::string& content, FileAnalysis* analysis,
                         ast::SourceFileModel* model) const {
  return Load(path, module, content, HashBytes(content), analysis, model);
}

bool ArtifactCache::Load(const std::string& path, const std::string& module,
                         const std::string& content,
                         std::uint64_t content_hash, FileAnalysis* analysis,
                         ast::SourceFileModel* model) const {
  std::string bytes;
  std::string_view body;
  // The entry name hashes (path, module, content); the payload must agree,
  // so a hash collision can never smuggle in another file's result.
  return enabled() &&
         ReadEntry(EntryPathForHash(path, module, content_hash), kFileMagic,
                   Stamp(options_fingerprint_, content_hash), &bytes,
                   &body) &&
         DeserializeArtifact(body, content, analysis, model) &&
         analysis->path == path && analysis->module == module;
}

void ArtifactCache::Store(const std::string& content,
                          const FileAnalysis& analysis,
                          const ast::SourceFileModel& model) const {
  if (!enabled()) return;
  // Best effort: a failed store only costs a recompute on a later run.
  const std::uint64_t content_hash = HashBytes(content);
  support::WriteFrame(
      EntryPathForHash(analysis.path, analysis.module, content_hash),
      kFileMagic, kArtifactSchemaVersion,
      Stamp(options_fingerprint_, content_hash) +
          SerializeArtifact(analysis, model));
}

std::uint64_t ArtifactCache::ModulePhaseKey(
    const std::string& module,
    const std::vector<std::pair<std::string, std::uint64_t>>& files) const {
  support::BinaryWriter<> w;
  w.Append(support::Hex{options_fingerprint_}, module, files.size());
  for (const auto& [path, content_hash] : files) {
    w.Append(path, support::Hex{content_hash});
  }
  return HashBytes(w.Take());
}

bool ArtifactCache::LoadModulePhase(std::uint64_t key,
                                    rules::UnitDesignResult* unit_design,
                                    rules::DefensiveResult* defensive) const {
  std::string bytes;
  std::string_view body;
  return enabled() &&
         ReadEntry(ModulePhaseEntryPath(key), kModuleMagic,
                   Stamp(options_fingerprint_, key), &bytes, &body) &&
         DeserializeModulePhase(body, unit_design, defensive);
}

void ArtifactCache::StoreModulePhase(
    std::uint64_t key, const rules::UnitDesignResult& unit_design,
    const rules::DefensiveResult& defensive) const {
  if (!enabled()) return;
  support::WriteFrame(ModulePhaseEntryPath(key), kModuleMagic,
                      kArtifactSchemaVersion,
                      Stamp(options_fingerprint_, key) +
                          SerializeModulePhase(unit_design, defensive));
}

}  // namespace certkit::driver

#include "driver/artifact_cache.h"

#include <bit>
#include <cstring>
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

// ---- token / lexeme codecs -----------------------------------------------
//
// Tokens and comments are views into the file text, so they have no field
// list. Each starts with a lead byte: the token kind (0 for a comment) in
// the low bits, the inline flag in bit 7. A slice lexeme is stored as its
// place in the text, stored once; an inline one (a spliced string literal
// or line comment, rare) carries its bytes. Two forms share this:
//
//   canonical (what DigestAnalysis hashes; encode only): a token is its
//     lexeme as varint (offset, length), then varint line and column; the
//     text stands as its FnvStr digest and size.
//   entry (the .ckart payload): a token vector is a count, then per token
//     its id (lex::TokenId, which names its kind) as the lead byte, varint
//     zigzag gap from the end of the previous slice, varint length, varint
//     zigzag line delta and varint column (inline: kInlineLead plus the
//     kind, the bytes, line delta and column, the id recomputed on load);
//     the text stands as its size, since the stamp already carries its
//     content key.
//
// Comments take the canonical form in both: lexeme, then the line.

constexpr std::uint8_t kInlineBit = 0x80;
// An entry token's lead byte from here up is an inline lexeme's, the
// kind added; below, it is the token's id.
constexpr std::uint8_t kInlineLead = 0xF8;
static_assert(lex::kNumTokenIds <= kInlineLead &&
              kInlineLead + lex::kNumTokenKinds <= 0x100);

// Zigzag over an unsigned difference: small ones of either sign map to
// small values, which fit one varint byte.
template <class U>
U ZigZag(U difference) {
  return difference << 1 ^ (U{0} - (difference >> (8 * sizeof(U) - 1)));
}
template <class U>
U UnZigZag(U z) {
  return z >> 1 ^ (U{0} - (z & 1));
}

struct LexemeCodec {
  const std::string* text = nullptr;  // the text slices index
  lex::LexedFile* owner = nullptr;    // decoding: keeps inline lexemes

  bool IsSlice(std::string_view lexeme) const {
    return text != nullptr && lexeme.data() >= text->data() &&
           lexeme.data() + lexeme.size() <= text->data() + text->size();
  }

  template <class Writer>
  void Encode(Writer& w, const lex::Comment& c) const {
    Lexeme(w, 0, c.text);
    w("line", c.line);
  }
  template <class Reader>
  void Decode(Reader& r, lex::Comment& c) const {
    const std::uint8_t lead = r.U8();
    r.Report((lead & ~kInlineBit) == 0 ? nullptr : "not a comment");
    if ((lead & kInlineBit) != 0) {
      c.text = Keep(r.Str());
    } else {
      const std::uint64_t offset = r.Var();
      c.text = Slice(r, offset, r.Var());
    }
    r("line", c.line);
  }

  template <class Writer>
  void Lexeme(Writer& w, std::uint8_t lead, std::string_view lexeme) const {
    const bool slice = IsSlice(lexeme);
    w.U8(slice ? lead : lead | kInlineBit);
    if (slice) {
      w.Var(lexeme.data() - text->data());
      w.Var(lexeme.size());
    } else {
      w.Str(lexeme);
    }
  }
  // The text's [offset, offset + size), which must lie inside it.
  template <class Reader>
  std::string_view Slice(Reader& r, std::uint64_t offset,
                         std::uint64_t size) const {
    const bool inside = text != nullptr && offset <= text->size() &&
                        size <= text->size() - offset;
    r.Report(inside ? nullptr : "lexeme outside the text");
    return inside ? std::string_view(text->data() + offset, size)
                  : std::string_view();
  }
  // Out of line: inline lexemes are rare.
  [[gnu::noinline]] std::string_view Keep(std::string lexeme) const {
    if (!owner->owned_lexemes) {
      owner->owned_lexemes = std::make_shared<std::deque<std::string>>();
    }
    return owner->owned_lexemes->emplace_back(std::move(lexeme));
  }
};

struct CanonicalCodec : LexemeCodec {
  using LexemeCodec::Encode;

  template <class Writer>
  void Encode(Writer& w, const lex::Token& t) const {
    Lexeme(w, static_cast<std::uint8_t>(t.kind), t.text);
    const std::uint32_t line = t.line;
    const std::uint32_t column = t.column;
    w.Var(line);
    w.Var(column);
  }
  template <class Writer, class S>
  void Encode(Writer& w, const support::Elided<S>& elided) const {
    const std::uint64_t digest = support::FnvStr(elided.text);
    w("digest", support::Hex{digest});
    w.Var(elided.text.size());
  }
};

class EntryCodec : public LexemeCodec {
 public:
  using LexemeCodec::Decode;
  using LexemeCodec::Encode;

  template <class Writer>
  void EncodeAll(Writer& w, const std::vector<lex::Token>& tokens) const {
    w.Var(tokens.size());
    Delta at;
    for (const lex::Token& t : tokens) {
      if (IsSlice(t.text)) {
        const std::uint64_t offset = t.text.data() - text->data();
        w.U8(t.id);
        w.Var(ZigZag(offset - at.end));
        w.Var(t.text.size());
        at.end = offset + t.text.size();
      } else {
        w.U8(kInlineLead + static_cast<std::uint8_t>(t.kind));
        w.Str(t.text);
      }
      const std::uint32_t line = t.line;
      const std::uint32_t column = t.column;
      w.Var(ZigZag(line - at.line));
      w.Var(column);
      at.line = line;
    }
  }
  // Most tokens take one byte per field: one 8-byte load decodes them
  // (FastRun). The rest (a long line, gap or lexeme, an inline lexeme, the
  // last bytes of the payload) and any token that fails a check take the
  // checked varint path, which reports the failure.
  template <class Reader>
  void DecodeAll(Reader& r, std::vector<lex::Token>& tokens) const {
    tokens.resize(r.Count());
    Delta at;
    auto it = tokens.begin();
    while (r.ok() && it != tokens.end()) {
      it = FastRun(r, &at, it, tokens.end());
      if (it != tokens.end()) SlowToken(r, &at, &*it++);
    }
  }

  template <class Writer, class S>
  void Encode(Writer& w, const support::Elided<S>& elided) const {
    w.Var(elided.text.size());
  }
  template <class Reader, class S>
  void Decode(Reader& r, support::Elided<S>& elided) const {
    r.Report(r.Var() == elided.text.size() ? nullptr
                                           : "not the held text's size");
  }

 private:
  // Bit 7 of the four varints' bytes after the lead byte.
  static constexpr std::uint64_t kContinuationBits = 0x8080808000ull;

  // Where the previous token left off.
  struct Delta {
    std::uint64_t end = 0;   // the end of the previous slice
    std::uint32_t line = 0;  // the previous token's line
  };

  // Decodes tokens from `it` on while they take one byte per field and
  // pass the id and slice checks, in locals: the reader's cursor moves
  // once, at the end of the run. Returns the first token it left.
  template <class Reader, class Iterator>
  Iterator FastRun(Reader& r, Delta* at, Iterator it, Iterator end) const {
    static_assert(std::endian::native == std::endian::little);
    const std::string_view rest = r.Rest();
    Delta d = *at;
    std::size_t used = 0;
    for (; it != end && used + 8 <= rest.size(); ++it, used += 5) {
      std::uint64_t word = 0;
      std::memcpy(&word, rest.data() + used, sizeof word);
      const std::uint8_t id = word & 0xFF;
      const std::uint64_t offset = d.end + UnZigZag(word >> 8 & 0xFF);
      const std::uint64_t size = word >> 16 & 0xFF;
      if ((word & kContinuationBits) != 0 || id >= lex::kNumTokenIds ||
          offset > text->size() || size > text->size() - offset) {
        break;
      }
      d.end = offset + size;
      d.line += UnZigZag<std::uint32_t>(word >> 24 & 0xFF);
      it->id = lex::TokenId{id};
      it->kind = lex::KindOf(it->id);
      it->text = std::string_view(text->data() + offset, size);
      it->line = d.line;
      it->column = word >> 32 & 0xFF;
    }
    r.Skip(used);
    *at = d;
    return it;
  }
  template <class Reader>
  [[gnu::noinline]] void SlowToken(Reader& r, Delta* at,
                                   lex::Token* t) const {
    const std::uint8_t lead = r.U8();
    const bool inline_lexeme = lead >= kInlineLead;
    const bool known = inline_lexeme ? lead - kInlineLead < lex::kNumTokenKinds
                                     : lead < lex::kNumTokenIds;
    r.Report(known ? nullptr : "token id out of range");
    // An unknown lead decodes as an unlisted punctuator; the failure stands.
    t->id = known && !inline_lexeme ? lex::TokenId{lead}
                                    : lex::kIdUnlistedPunct;
    t->kind = known && inline_lexeme ? lex::TokenKind{lead - kInlineLead}
                                     : lex::KindOf(t->id);
    if (inline_lexeme) {
      t->text = Keep(r.Str());
      t->id = lex::IdOf(t->kind, t->text);
    } else {
      const std::uint64_t offset = at->end + UnZigZag(r.Var());
      const std::uint64_t size = r.Var();
      t->text = Slice(r, offset, size);
      at->end = offset + size;
    }
    at->line += UnZigZag<std::uint32_t>(r.Var());
    t->line = at->line;
    t->column = r.Var();
  }
};

using Writer = support::BinaryWriter<EntryCodec>;
using Reader = support::BinaryReader<EntryCodec>;

// The content key: four lanes of multiply-rotate rounds over 32-byte
// stripes, then the tail and an avalanche (the xxHash64 construction).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

std::uint64_t Word(const char* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

std::uint64_t Round(std::uint64_t lane, std::uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

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

std::uint64_t HashBytes(std::string_view bytes) {
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  std::uint64_t h = kPrime5;
  if (bytes.size() >= 32) {
    // Four named lanes, so that they stay in registers.
    std::uint64_t v1 = kPrime1 + kPrime2, v2 = kPrime2, v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Word(p));
      v2 = Round(v2, Word(p + 8));
      v3 = Round(v3, Word(p + 16));
      v4 = Round(v4, Word(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    for (const std::uint64_t v : {v1, v2, v3, v4}) {
      h = (h ^ Round(0, v)) * kPrime1 + kPrime4;
    }
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ Round(0, Word(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    std::uint32_t half = 0;
    std::memcpy(&half, p, sizeof half);
    h = std::rotl(h ^ half * kPrime1, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    const std::uint8_t byte = *p;
    h = std::rotl(h ^ byte * kPrime5, 11) * kPrime1;
  }
  h = (h ^ h >> 33) * kPrime2;
  h = (h ^ h >> 29) * kPrime3;
  return h ^ h >> 32;
}

std::uint64_t OptionsFingerprint(const DriverOptions& options) {
  return support::FnvStr(support::BinaryWriter<>::Write(
      kArtifactSchemaVersion, options.keep_comments,
      options.misra.include_dialect_analogues,
      options.misra.check_unused_params, options.style_max_line_length));
}

std::string SerializeArtifact(const FileAnalysis& analysis,
                              const ast::SourceFileModel& model) {
  return Writer(EntryCodec{{model.lexed.buffer.get()}})
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
                EntryCodec{{model->lexed.buffer.get(), &model->lexed}})
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
  std::uint64_t h = support::FnvStr("certkit-analysis-digest");
  for (const auto& fa : analysis.files) {
    const ast::SourceFileModel& model =
        analysis.modules[fa.module_index].files[fa.file_index];
    h = support::FnvStr(
        support::BinaryWriter(CanonicalCodec{{model.lexed.buffer.get()}})
            .Append(fa, model)
            .Take(),
        h);
  }
  support::BinaryWriter<> w;
  for (const auto& ud : analysis.unit_design) w.Append(ud.stats, ud.report);
  for (const auto& d : analysis.defensive) w.Append(d.stats, d.report);
  for (const auto& s : analysis.skipped) w.Append(s);
  return support::FnvStr(w.Take(), h);
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
  return EntryFile(support::FnvStr(support::BinaryWriter<>::Write(
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
  Store(HashBytes(content), analysis, model);
}

void ArtifactCache::Store(std::uint64_t content_hash,
                          const FileAnalysis& analysis,
                          const ast::SourceFileModel& model) const {
  if (!enabled()) return;
  // Best effort: a failed store only costs a recompute on a later run.
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
  return support::FnvStr(w.Take());
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

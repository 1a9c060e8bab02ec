#include "driver/artifact_cache.h"

#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <set>
#include <vector>

#include "support/fnv.h"
#include "support/io.h"

namespace certkit::driver {

namespace fs = std::filesystem;

namespace {

constexpr char kFileMagic[4] = {'C', 'K', 'A', '1'};
constexpr char kModuleMagic[4] = {'C', 'K', 'M', '1'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;

// ---- binary writer ------------------------------------------------------
//
// Fixed-width fields are memcpy'd in host order; the cache is machine-local
// (entries are keyed, never shipped), so host order is self-consistent.
// Counts and positions use LEB128 varints: the token stream dominates the
// entry size, and its lines/columns/offsets are small.

class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I32(std::int32_t v) { Raw(&v, sizeof v); }
  void I64(std::int64_t v) { Raw(&v, sizeof v); }
  void Var(std::uint64_t v) {
    while (v >= 0x80) {
      U8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    U8(static_cast<std::uint8_t>(v));
  }
  void Str(std::string_view s) {
    Var(s.size());
    out_.append(s);
  }

  std::string Take() { return std::move(out_); }

 private:
  void Raw(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }

  std::string out_;
};

// ---- binary reader (every primitive is bounds-checked) ------------------

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  std::uint8_t U8() {
    if (pos_ + 1 > bytes_.size()) return Fail<std::uint8_t>();
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t U32() { return Fixed<std::uint32_t>(); }
  std::uint64_t U64() { return Fixed<std::uint64_t>(); }
  std::int32_t I32() { return Fixed<std::int32_t>(); }
  std::int64_t I64() { return Fixed<std::int64_t>(); }
  std::uint64_t Var() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= bytes_.size()) return Fail<std::uint64_t>();
      const std::uint8_t byte = static_cast<std::uint8_t>(bytes_[pos_++]);
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return Fail<std::uint64_t>();
  }
  std::string Str() {
    const std::uint64_t n = Var();
    if (!ok_ || n > bytes_.size() - pos_) return Fail<std::string>();
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  // Element-count guard: a corrupt count larger than the remaining bytes
  // could make callers resize to gigabytes before the per-element reads
  // fail.
  std::uint64_t Count() {
    const std::uint64_t n = Var();
    if (!ok_ || n > bytes_.size() - pos_) return Fail<std::uint64_t>();
    return n;
  }

 private:
  template <typename T>
  T Fixed() {
    if (pos_ + sizeof(T) > bytes_.size()) return Fail<T>();
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  T Fail() {
    ok_ = false;
    return T{};
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- token / lexeme encoding -------------------------------------------
//
// Lead byte: token kind in the low bits, the inline-lexeme flag in bit 7.
// Slice lexemes then carry varint (offset, length) into the file text;
// inline lexemes (spliced strings / line comments, rare) carry the bytes.

constexpr std::uint8_t kInlineBit = 0x80;

void WriteLexeme(Writer& w, std::uint8_t lead, std::string_view text,
                 const lex::LexedFile& lexed) {
  if (lexed.buffer) {
    const char* base = lexed.buffer->data();
    const char* data = text.data();
    if (data >= base && data + text.size() <= base + lexed.buffer->size()) {
      w.U8(lead);
      w.Var(static_cast<std::uint64_t>(data - base));
      w.Var(text.size());
      return;
    }
  }
  w.U8(lead | kInlineBit);
  w.Str(text);
}

bool ReadLexeme(Reader& r, std::uint8_t lead, lex::LexedFile& lexed,
                std::string_view* out) {
  if ((lead & kInlineBit) == 0) {
    const std::uint64_t offset = r.Var();
    const std::uint64_t size = r.Var();
    if (!r.ok() || !lexed.buffer || offset > lexed.buffer->size() ||
        size > lexed.buffer->size() - offset) {
      return false;
    }
    *out = std::string_view(lexed.buffer->data() + offset, size);
    return true;
  }
  std::string s = r.Str();
  if (!r.ok()) return false;
  if (!lexed.owned_lexemes) {
    lexed.owned_lexemes = std::make_shared<std::deque<std::string>>();
  }
  lexed.owned_lexemes->push_back(std::move(s));
  *out = lexed.owned_lexemes->back();
  return true;
}

void WriteToken(Writer& w, const lex::Token& t, const lex::LexedFile& lexed) {
  WriteLexeme(w, static_cast<std::uint8_t>(t.kind), t.text, lexed);
  w.Var(static_cast<std::uint32_t>(t.line));
  w.Var(static_cast<std::uint32_t>(t.column));
}

bool ReadToken(Reader& r, lex::LexedFile& lexed, lex::Token* t) {
  const std::uint8_t lead = r.U8();
  const std::uint8_t kind = lead & ~kInlineBit;
  if (!r.ok() || kind > static_cast<std::uint8_t>(lex::TokenKind::kPunct)) {
    return false;
  }
  t->kind = static_cast<lex::TokenKind>(kind);
  if (!ReadLexeme(r, lead, lexed, &t->text)) return false;
  t->line = static_cast<std::int32_t>(static_cast<std::uint32_t>(r.Var()));
  t->column = static_cast<std::int32_t>(static_cast<std::uint32_t>(r.Var()));
  return r.ok();
}

// ---- report payloads ----------------------------------------------------

void WriteCheckReport(Writer& w, const rules::CheckReport& rep) {
  w.Str(rep.checker);
  w.Var(rep.findings.size());
  for (const auto& f : rep.findings) {
    w.Str(f.rule_id);
    w.U8(static_cast<std::uint8_t>(f.severity));
    w.Str(f.file);
    w.I32(f.line);
    w.Str(f.message);
  }
  w.I64(rep.entities_checked);
}

bool ReadCheckReport(Reader& r, rules::CheckReport* rep) {
  rep->checker = r.Str();
  const std::uint64_t n = r.Count();
  if (!r.ok()) return false;
  rep->findings.resize(n);
  for (auto& f : rep->findings) {
    f.rule_id = r.Str();
    const std::uint8_t sev = r.U8();
    if (sev > static_cast<std::uint8_t>(rules::Severity::kRequired)) {
      return false;
    }
    f.severity = static_cast<rules::Severity>(sev);
    f.file = r.Str();
    f.line = r.I32();
    f.message = r.Str();
  }
  rep->entities_checked = r.I64();
  return r.ok();
}

void WriteTraceReport(Writer& w, const rules::TraceReport& t) {
  w.Var(t.links.size());
  for (const auto& l : t.links) {
    w.Str(l.requirement);
    w.Str(l.file);
    w.I32(l.comment_line);
    w.Str(l.function);
  }
  w.Var(t.untraced_functions.size());
  for (const auto& f : t.untraced_functions) w.Str(f);
  w.I64(t.functions_total);
}

bool ReadTraceReport(Reader& r, rules::TraceReport* t) {
  std::uint64_t n = r.Count();
  if (!r.ok()) return false;
  t->links.resize(n);
  for (auto& l : t->links) {
    l.requirement = r.Str();
    l.file = r.Str();
    l.comment_line = r.I32();
    l.function = r.Str();
  }
  n = r.Count();
  if (!r.ok()) return false;
  t->untraced_functions.resize(n);
  for (auto& f : t->untraced_functions) f = r.Str();
  t->functions_total = r.I64();
  return r.ok();
}

void WriteFunctionMetrics(Writer& w, const metrics::FunctionMetrics& m) {
  w.Str(m.name);
  w.Str(m.qualified_name);
  w.I32(m.start_line);
  w.I32(m.end_line);
  w.I32(m.cyclomatic_complexity);
  w.I32(m.nloc);
  w.I32(m.token_count);
  w.I32(m.param_count);
  w.I32(m.max_nesting_depth);
  w.I32(m.return_count);
  w.I32(m.goto_count);
  w.U8(m.is_recursive_direct ? 1 : 0);
  w.Var(m.callees.size());
  for (const auto& c : m.callees) w.Str(c);
}

bool ReadFunctionMetrics(Reader& r, metrics::FunctionMetrics* m) {
  m->name = r.Str();
  m->qualified_name = r.Str();
  m->start_line = r.I32();
  m->end_line = r.I32();
  m->cyclomatic_complexity = r.I32();
  m->nloc = r.I32();
  m->token_count = r.I32();
  m->param_count = r.I32();
  m->max_nesting_depth = r.I32();
  m->return_count = r.I32();
  m->goto_count = r.I32();
  m->is_recursive_direct = r.U8() != 0;
  const std::uint64_t n = r.Count();
  if (!r.ok()) return false;
  m->callees.resize(n);
  for (auto& c : m->callees) c = r.Str();
  return r.ok();
}

// ---- model payload ------------------------------------------------------

void WriteLexedFile(Writer& w, const lex::LexedFile& lexed) {
  w.Str(lexed.path);
  w.Var(lexed.tokens.size());
  for (const auto& t : lexed.tokens) WriteToken(w, t, lexed);
  w.Var(lexed.directives.size());
  for (const auto& d : lexed.directives) {
    w.Str(d.name);
    w.I32(d.line);
    w.Var(d.tokens.size());
    for (const auto& t : d.tokens) WriteToken(w, t, lexed);
  }
  w.Var(lexed.comments.size());
  for (const auto& c : lexed.comments) {
    WriteLexeme(w, 0, c.text, lexed);
    w.I32(c.line);
  }
  w.I64(lexed.lines.total);
  w.I64(lexed.lines.blank);
  w.I64(lexed.lines.comment_only);
  w.I64(lexed.lines.code);
  w.I64(lexed.lines.preprocessor);
  w.I64(lexed.comment_count);
}

// `lexed->buffer` must already hold the file text before the call.
bool ReadLexedFile(Reader& r, lex::LexedFile* lexed) {
  lexed->path = r.Str();
  std::uint64_t n = r.Count();
  if (!r.ok()) return false;
  lexed->tokens.resize(n);
  for (auto& t : lexed->tokens) {
    if (!ReadToken(r, *lexed, &t)) return false;
  }
  n = r.Count();
  if (!r.ok()) return false;
  lexed->directives.resize(n);
  for (auto& d : lexed->directives) {
    d.name = r.Str();
    d.line = r.I32();
    const std::uint64_t dn = r.Count();
    if (!r.ok()) return false;
    d.tokens.resize(dn);
    for (auto& t : d.tokens) {
      if (!ReadToken(r, *lexed, &t)) return false;
    }
  }
  n = r.Count();
  if (!r.ok()) return false;
  lexed->comments.resize(n);
  for (auto& c : lexed->comments) {
    const std::uint8_t lead = r.U8();
    if (!r.ok() || (lead & ~kInlineBit) != 0) return false;
    if (!ReadLexeme(r, lead, *lexed, &c.text)) return false;
    c.line = r.I32();
  }
  lexed->lines.total = r.I64();
  lexed->lines.blank = r.I64();
  lexed->lines.comment_only = r.I64();
  lexed->lines.code = r.I64();
  lexed->lines.preprocessor = r.I64();
  lexed->comment_count = r.I64();
  return r.ok();
}

void WriteModel(Writer& w, const ast::SourceFileModel& m) {
  w.Str(m.path);
  WriteLexedFile(w, m.lexed);
  w.Var(m.functions.size());
  for (const auto& fn : m.functions) {
    w.Str(fn.name);
    w.Str(fn.qualified_name);
    w.Var(fn.params.size());
    for (const auto& p : fn.params) {
      w.Str(p.type_text);
      w.Str(p.name);
    }
    w.I32(fn.start_line);
    w.I32(fn.end_line);
    w.Var(fn.sig_begin);
    w.Var(fn.lparen);
    w.Var(fn.body_begin);
    w.Var(fn.body_end);
    w.U8(static_cast<std::uint8_t>(
        (fn.returns_void ? 1 : 0) | (fn.is_method ? 2 : 0) |
        (fn.is_cuda_kernel ? 4 : 0) | (fn.is_cuda_device ? 8 : 0) |
        (fn.is_static ? 16 : 0)));
  }
  w.Var(m.types.size());
  for (const auto& t : m.types) {
    w.U8(static_cast<std::uint8_t>(t.kind));
    w.Str(t.name);
    w.Str(t.qualified_name);
    w.I32(t.line);
    w.I32(t.method_count);
    w.I32(t.field_count);
    w.I32(t.public_method_count);
  }
  w.Var(m.globals.size());
  for (const auto& g : m.globals) {
    w.Str(g.name);
    w.Str(g.qualified_name);
    w.I32(g.line);
    w.U8(static_cast<std::uint8_t>(
        (g.is_static ? 1 : 0) | (g.is_const ? 2 : 0) |
        (g.is_extern_decl ? 4 : 0) | (g.has_initializer ? 8 : 0)));
  }
  w.Var(m.casts.size());
  for (const auto& c : m.casts) {
    w.U8(static_cast<std::uint8_t>(c.kind));
    w.I32(c.line);
    w.Str(c.target_text);
  }
  w.Var(m.macros.size());
  for (const auto& mm : m.macros) {
    w.Str(mm.name);
    w.I32(mm.line);
    w.U8(mm.function_like ? 1 : 0);
  }
  w.Var(m.includes.size());
  for (const auto& inc : m.includes) w.Str(inc);
  w.I32(m.using_namespace_count);
  w.I32(m.typedef_count);
}

bool ReadModel(Reader& r, ast::SourceFileModel* m) {
  m->path = r.Str();
  if (!ReadLexedFile(r, &m->lexed)) return false;
  std::uint64_t n = r.Count();
  if (!r.ok()) return false;
  m->functions.resize(n);
  for (auto& fn : m->functions) {
    fn.name = r.Str();
    fn.qualified_name = r.Str();
    const std::uint64_t pn = r.Count();
    if (!r.ok()) return false;
    fn.params.resize(pn);
    for (auto& p : fn.params) {
      p.type_text = r.Str();
      p.name = r.Str();
    }
    fn.start_line = r.I32();
    fn.end_line = r.I32();
    fn.sig_begin = r.Var();
    fn.lparen = r.Var();
    fn.body_begin = r.Var();
    fn.body_end = r.Var();
    const std::uint8_t flags = r.U8();
    fn.returns_void = (flags & 1) != 0;
    fn.is_method = (flags & 2) != 0;
    fn.is_cuda_kernel = (flags & 4) != 0;
    fn.is_cuda_device = (flags & 8) != 0;
    fn.is_static = (flags & 16) != 0;
    // Token ranges must stay inside the stream the rules walk.
    if (r.ok() && !m->lexed.tokens.empty() &&
        (fn.body_end >= m->lexed.tokens.size() ||
         fn.body_begin > fn.body_end || fn.sig_begin > fn.body_begin)) {
      return false;
    }
  }
  n = r.Count();
  if (!r.ok()) return false;
  m->types.resize(n);
  for (auto& t : m->types) {
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(ast::TypeKind::kEnum)) return false;
    t.kind = static_cast<ast::TypeKind>(kind);
    t.name = r.Str();
    t.qualified_name = r.Str();
    t.line = r.I32();
    t.method_count = r.I32();
    t.field_count = r.I32();
    t.public_method_count = r.I32();
  }
  n = r.Count();
  if (!r.ok()) return false;
  m->globals.resize(n);
  for (auto& g : m->globals) {
    g.name = r.Str();
    g.qualified_name = r.Str();
    g.line = r.I32();
    const std::uint8_t flags = r.U8();
    g.is_static = (flags & 1) != 0;
    g.is_const = (flags & 2) != 0;
    g.is_extern_decl = (flags & 4) != 0;
    g.has_initializer = (flags & 8) != 0;
  }
  n = r.Count();
  if (!r.ok()) return false;
  m->casts.resize(n);
  for (auto& c : m->casts) {
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(ast::CastKind::kFunctional)) {
      return false;
    }
    c.kind = static_cast<ast::CastKind>(kind);
    c.line = r.I32();
    c.target_text = r.Str();
  }
  n = r.Count();
  if (!r.ok()) return false;
  m->macros.resize(n);
  for (auto& mm : m->macros) {
    mm.name = r.Str();
    mm.line = r.I32();
    mm.function_like = r.U8() != 0;
  }
  n = r.Count();
  if (!r.ok()) return false;
  m->includes.resize(n);
  for (auto& inc : m->includes) inc = r.Str();
  m->using_namespace_count = r.I32();
  m->typedef_count = r.I32();
  return r.ok();
}

// ---- module-phase payload ----------------------------------------------

void WriteUnitDesign(Writer& w, const rules::UnitDesignResult& ud) {
  const rules::UnitDesignStats& s = ud.stats;
  w.Str(s.module);
  w.I64(s.functions_total);
  w.I64(s.functions_multi_exit);
  w.I64(s.dynamic_alloc_sites);
  w.I64(s.uninitialized_locals);
  w.I64(s.shadowing_decls);
  w.I64(s.mutable_globals);
  w.I64(s.const_globals);
  w.I64(s.pointer_params);
  w.I64(s.pointer_derefs);
  w.I64(s.explicit_casts);
  w.I64(s.global_write_sites);
  w.I64(s.goto_statements);
  w.I64(s.recursive_functions_direct);
  w.I64(s.recursion_cycles_indirect);
  WriteCheckReport(w, ud.report);
}

bool ReadUnitDesign(Reader& r, rules::UnitDesignResult* ud) {
  rules::UnitDesignStats& s = ud->stats;
  s.module = r.Str();
  s.functions_total = r.I64();
  s.functions_multi_exit = r.I64();
  s.dynamic_alloc_sites = r.I64();
  s.uninitialized_locals = r.I64();
  s.shadowing_decls = r.I64();
  s.mutable_globals = r.I64();
  s.const_globals = r.I64();
  s.pointer_params = r.I64();
  s.pointer_derefs = r.I64();
  s.explicit_casts = r.I64();
  s.global_write_sites = r.I64();
  s.goto_statements = r.I64();
  s.recursive_functions_direct = r.I64();
  s.recursion_cycles_indirect = r.I64();
  return r.ok() && ReadCheckReport(r, &ud->report);
}

void WriteDefensive(Writer& w, const rules::DefensiveResult& d) {
  const rules::DefensiveStats& s = d.stats;
  w.I64(s.functions_with_params);
  w.I64(s.functions_validating_inputs);
  w.I64(s.call_sites_checked);
  w.I64(s.discarded_results);
  w.I64(s.assertion_sites);
  WriteCheckReport(w, d.report);
}

bool ReadDefensive(Reader& r, rules::DefensiveResult* d) {
  rules::DefensiveStats& s = d->stats;
  s.functions_with_params = r.I64();
  s.functions_validating_inputs = r.I64();
  s.call_sites_checked = r.I64();
  s.discarded_results = r.I64();
  s.assertion_sites = r.I64();
  return r.ok() && ReadCheckReport(r, &d->report);
}

void WriteHeader(Writer& w, const char (&magic)[4], std::uint64_t fingerprint,
                 std::uint64_t key) {
  for (char c : magic) w.U8(static_cast<std::uint8_t>(c));
  w.U32(kArtifactSchemaVersion);
  w.U64(fingerprint);
  w.U64(key);
}

// Verifies magic/schema/fingerprint/key; true iff the payload may be read.
bool CheckHeader(Reader& r, const char (&magic)[4], std::uint64_t fingerprint,
                 std::uint64_t key) {
  char got[4];
  for (char& c : got) c = static_cast<char>(r.U8());
  return r.ok() && std::string_view(got, 4) == std::string_view(magic, 4) &&
         r.U32() == kArtifactSchemaVersion && r.U64() == fingerprint &&
         r.U64() == key && r.ok();
}

}  // namespace

std::uint64_t HashBytes(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t OptionsFingerprint(const DriverOptions& options) {
  Writer w;
  w.U32(kArtifactSchemaVersion);
  w.U8(options.keep_comments ? 1 : 0);
  w.U8(options.misra.include_dialect_analogues ? 1 : 0);
  w.U8(options.misra.check_unused_params ? 1 : 0);
  w.I32(options.style_max_line_length);
  const std::string bytes = w.Take();
  return HashBytes(bytes);
}

std::string SerializeArtifact(const FileAnalysis& analysis,
                              const ast::SourceFileModel& model) {
  Writer w;
  w.Str(analysis.path);
  w.Str(analysis.module);
  w.U64(HashBytes(analysis.text));
  w.Var(analysis.text.size());
  w.Var(analysis.functions.size());
  for (const auto& m : analysis.functions) WriteFunctionMetrics(w, m);
  WriteTraceReport(w, analysis.trace);
  WriteCheckReport(w, analysis.misra);
  w.I64(analysis.style.stats.lines_checked);
  w.I64(analysis.style.stats.violations);
  WriteCheckReport(w, analysis.style.report);
  w.I64(analysis.naming_entities);
  w.I64(analysis.naming_violations);
  w.I64(analysis.explicit_casts);
  WriteModel(w, model);
  return w.Take();
}

bool DeserializeArtifact(std::string_view bytes, std::string_view content,
                         FileAnalysis* analysis,
                         ast::SourceFileModel* model) {
  Reader r(bytes);
  analysis->path = r.Str();
  analysis->module = r.Str();
  r.U64();  // text hash: covered by the entry header / DigestAnalysis
  const std::uint64_t text_size = r.Var();
  if (!r.ok() || text_size != content.size()) return false;
  analysis->text = std::string(content);
  const std::uint64_t n = r.Count();
  if (!r.ok()) return false;
  analysis->functions.resize(n);
  for (auto& m : analysis->functions) {
    if (!ReadFunctionMetrics(r, &m)) return false;
  }
  if (!ReadTraceReport(r, &analysis->trace)) return false;
  if (!ReadCheckReport(r, &analysis->misra)) return false;
  analysis->style.stats.lines_checked = r.I64();
  analysis->style.stats.violations = r.I64();
  if (!ReadCheckReport(r, &analysis->style.report)) return false;
  analysis->naming_entities = r.I64();
  analysis->naming_violations = r.I64();
  analysis->explicit_casts = r.I64();
  // Rebuild the zero-copy backing store before the token views are read.
  model->lexed.buffer = std::make_shared<const std::string>(analysis->text);
  if (!ReadModel(r, model)) return false;
  analysis->module_index = 0;
  analysis->file_index = 0;
  return r.ok() && r.AtEnd();
}

std::uint64_t DigestAnalysis(const CodebaseAnalysis& analysis) {
  std::uint64_t h = HashBytes("certkit-analysis-digest");
  for (const auto& fa : analysis.files) {
    const ast::SourceFileModel& model =
        analysis.modules[fa.module_index].files[fa.file_index];
    h = HashBytes(SerializeArtifact(fa, model), h);
  }
  Writer w;
  for (const auto& ud : analysis.unit_design) WriteUnitDesign(w, ud);
  for (const auto& d : analysis.defensive) WriteDefensive(w, d);
  for (const auto& s : analysis.skipped) w.Str(s);
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
  Writer w;
  w.U64(options_fingerprint_);
  w.Str(path);
  w.Str(module);
  w.U64(content_hash);
  return EntryFile(HashBytes(w.Take()), ".ckart");
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
  if (!enabled()) return false;
  Writer w;
  w.U64(options_fingerprint_);
  w.Str(path);
  w.Str(module);
  w.U64(content_hash);
  auto bytes = support::ReadFile(EntryFile(HashBytes(w.Take()), ".ckart"));
  if (!bytes.ok()) return false;
  const std::string& blob = bytes.value();
  Reader header(blob);
  if (!CheckHeader(header, kFileMagic, options_fingerprint_, content_hash)) {
    return false;
  }
  if (!DeserializeArtifact(std::string_view(blob).substr(kHeaderSize),
                           content, analysis, model)) {
    return false;
  }
  // The entry name hashes (path, module, content); verify the payload
  // agrees so a hash collision can never smuggle in another file's result.
  return analysis->path == path && analysis->module == module;
}

void ArtifactCache::StoreBlob(const std::string& entry,
                              std::string blob) const {
  // Concurrent workers (or processes) never interleave and readers only
  // ever see whole entries. A failed store is swallowed: it only costs a
  // recompute on a later run.
  (void)support::AtomicWriteFile(entry, blob);
}

void ArtifactCache::Store(const std::string& content,
                          const FileAnalysis& analysis,
                          const ast::SourceFileModel& model) const {
  if (!enabled()) return;
  Writer w;
  WriteHeader(w, kFileMagic, options_fingerprint_, HashBytes(content));
  std::string blob = w.Take();
  blob += SerializeArtifact(analysis, model);
  StoreBlob(EntryPath(analysis.path, analysis.module, content),
            std::move(blob));
}

std::uint64_t ArtifactCache::ModulePhaseKey(
    const std::string& module,
    const std::vector<std::pair<std::string, std::uint64_t>>& files) const {
  Writer w;
  w.U64(options_fingerprint_);
  w.Str(module);
  w.Var(files.size());
  for (const auto& [path, content_hash] : files) {
    w.Str(path);
    w.U64(content_hash);
  }
  return HashBytes(w.Take());
}

bool ArtifactCache::LoadModulePhase(std::uint64_t key,
                                    rules::UnitDesignResult* unit_design,
                                    rules::DefensiveResult* defensive) const {
  if (!enabled()) return false;
  auto bytes = support::ReadFile(EntryFile(key, ".ckmod"));
  if (!bytes.ok()) return false;
  const std::string& blob = bytes.value();
  Reader r(blob);
  if (!CheckHeader(r, kModuleMagic, options_fingerprint_, key)) return false;
  return ReadUnitDesign(r, unit_design) && ReadDefensive(r, defensive) &&
         r.AtEnd();
}

void ArtifactCache::StoreModulePhase(
    std::uint64_t key, const rules::UnitDesignResult& unit_design,
    const rules::DefensiveResult& defensive) const {
  if (!enabled()) return;
  Writer w;
  WriteHeader(w, kModuleMagic, options_fingerprint_, key);
  WriteUnitDesign(w, unit_design);
  WriteDefensive(w, defensive);
  StoreBlob(EntryFile(key, ".ckmod"), w.Take());
}

}  // namespace certkit::driver

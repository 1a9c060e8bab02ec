// certkit lexer: table-driven DFA scanner with zero-copy tokens.
//
// Identifier and number recognition run as bulk loops over the static
// transition table in lex/dfa_tables.h; multi-character punctuators resolve
// through a per-lead-character candidate table; keywords hit a frozen
// constexpr hash map. Every token leaves with its id (lex/token.h), decided
// here once. Token text is a string_view into the source buffer the
// LexedFile owns — the only lexemes that need their own storage are string
// literals and line comments interrupted by a backslash-newline splice,
// which land in LexedFile::owned_lexemes.
//
// The observable contract (token streams, line stats, directive structure,
// error messages) is byte-for-byte that of the original hand-rolled scanner;
// tests/lex/lexer_differential_test.cpp holds this implementation to the
// reference copy kept under tests/lex/reference_lexer.*.
#include "lex/lexer.h"

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "lex/dfa_tables.h"
#include "obs/metrics.h"
#include "support/check.h"

namespace certkit::lex {

namespace {

using support::ParseError;
using support::Result;

namespace tb = certkit::lex::tables;

// Per-line classification flags accumulated during the scan.
struct LineFlags {
  bool has_code = false;
  bool has_comment = false;
  bool is_preprocessor = false;
};

class Scanner {
 public:
  Scanner(std::string path, std::shared_ptr<const std::string> buffer,
          const LexOptions& options)
      : path_(std::move(path)),
        buffer_(std::move(buffer)),
        src_(*buffer_),
        options_(options) {
    // Pre-size line table: one entry per physical line.
    std::size_t lines = 1;
    for (char c : src_) {
      if (c == '\n') ++lines;
    }
    if (src_.empty()) lines = 0;
    line_flags_.resize(lines);
  }

  Result<LexedFile> Run() {
    while (!AtEnd()) {
      if (auto st = SkipWhitespaceAndComments(/*stop_at_newline=*/false);
          !st.ok()) {
        return st;
      }
      if (AtEnd()) break;
      if (Peek() == '#' && at_line_start_) {
        if (auto st = ScanDirective(); !st.ok()) return st;
        continue;
      }
      Token tok;
      if (auto st = ScanToken(&tok); !st.ok()) return st;
      MarkCode(tok.line);
      out_.tokens.push_back(tok);
    }
    FinalizeLineStats();
    out_.path = path_;
    out_.buffer = buffer_;
    out_.owned_lexemes = owned_;
    return std::move(out_);
  }

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  static std::uint8_t ClassOf(char c) {
    return tb::kCharClass[static_cast<unsigned char>(c)];
  }

  void Advance() {
    CERTKIT_CHECK(!AtEnd());
    const char c = src_[pos_];
    if (c == '\n') {
      ++line_;
      col_ = 1;
      at_line_start_ = true;
    } else {
      ++col_;
      if (ClassOf(c) != tb::kClWs) at_line_start_ = false;
    }
    ++pos_;
  }

  // Consumes `n` bytes known to contain neither newlines nor whitespace
  // (identifier, number, and punctuator bodies), updating position state in
  // one step instead of per character.
  void AdvanceFlat(std::size_t n) {
    pos_ += n;
    col_ += static_cast<std::int32_t>(n);
    at_line_start_ = false;
  }

  bool SpliceAhead() const {
    return Peek() == '\\' &&
           (Peek(1) == '\n' || (Peek(1) == '\r' && Peek(2) == '\n'));
  }

  // Consumes a backslash-newline splice if present at the cursor.
  bool ConsumeSplice() {
    if (SpliceAhead()) {
      const bool saved_line_start = at_line_start_;
      Advance();  // backslash
      if (Peek() == '\r') Advance();
      Advance();  // newline
      at_line_start_ = saved_line_start;
      return true;
    }
    return false;
  }

  // A view of src_[begin, end).
  std::string_view Slice(std::size_t begin, std::size_t end) const {
    return src_.substr(begin, end - begin);
  }

  // Moves a synthesized lexeme (text that differs from the raw source
  // bytes) into the owned-lexeme store and returns a stable view of it.
  std::string_view Own(std::string text) {
    if (!owned_) owned_ = std::make_shared<std::deque<std::string>>();
    owned_->push_back(std::move(text));
    return owned_->back();
  }

  void MarkCode(std::int32_t line) {
    if (line >= 1 && static_cast<std::size_t>(line) <= line_flags_.size()) {
      line_flags_[static_cast<std::size_t>(line) - 1].has_code = true;
    }
  }
  void MarkComment(std::int32_t line) {
    if (line >= 1 && static_cast<std::size_t>(line) <= line_flags_.size()) {
      line_flags_[static_cast<std::size_t>(line) - 1].has_comment = true;
    }
  }
  void MarkPreprocessor(std::int32_t line) {
    if (line >= 1 && static_cast<std::size_t>(line) <= line_flags_.size()) {
      line_flags_[static_cast<std::size_t>(line) - 1].is_preprocessor = true;
    }
  }

  // Skips spaces, splices, and comments. When `stop_at_newline`, returns at
  // the first real newline (used while scanning directive bodies).
  support::Status SkipWhitespaceAndComments(bool stop_at_newline) {
    while (!AtEnd()) {
      if (ConsumeSplice()) continue;
      const char c = Peek();
      const std::uint8_t cls = ClassOf(c);
      if (cls == tb::kClNl) {
        if (stop_at_newline) return support::Status::Ok();
        Advance();
        continue;
      }
      if (cls == tb::kClWs) {
        Advance();
        continue;
      }
      if (c == '/' && Peek(1) == '/') {
        ++out_.comment_count;
        MarkComment(line_);
        const std::int32_t start_line = line_;
        // The lexeme runs from the first '/' to the newline, minus any
        // splice bytes. Raw segments between splices are appended lazily so
        // the common (splice-free) case stays a pure slice.
        const std::size_t start = pos_;
        std::size_t seg_start = pos_;
        std::string pending;
        bool spliced = false;
        while (!AtEnd() && Peek() != '\n') {
          if (SpliceAhead()) {  // line comment continued by splice
            if (options_.keep_comments) {
              pending.append(src_, seg_start, pos_ - seg_start);
            }
            spliced = true;
            ConsumeSplice();
            seg_start = pos_;
            MarkComment(line_);
            continue;
          }
          Advance();
        }
        if (options_.keep_comments) {
          std::string_view text;
          if (spliced) {
            pending.append(src_, seg_start, pos_ - seg_start);
            text = Own(std::move(pending));
          } else {
            text = Slice(start, pos_);
          }
          out_.comments.push_back(lex::Comment{text, start_line});
        }
        continue;
      }
      if (c == '/' && Peek(1) == '*') {
        ++out_.comment_count;
        const std::int32_t start_line = line_;
        const std::size_t start = pos_;
        Advance();
        Advance();
        MarkComment(start_line);
        bool closed = false;
        while (!AtEnd()) {
          if (Peek() == '*' && Peek(1) == '/') {
            Advance();
            Advance();
            closed = true;
            break;
          }
          MarkComment(line_);
          Advance();
        }
        if (!closed) {
          return ParseError(path_ + ":" + std::to_string(start_line) +
                            ": unterminated block comment");
        }
        MarkComment(line_);
        if (options_.keep_comments) {
          // Block comment text is the raw byte range including markers
          // (splices inside block comments are kept verbatim).
          out_.comments.push_back(
              lex::Comment{Slice(start, pos_), start_line});
        }
        continue;
      }
      return support::Status::Ok();
    }
    return support::Status::Ok();
  }

  // Scans one token. The scanners decide its id, which names its kind.
  support::Status ScanToken(Token* tok) {
    const support::Status st = ScanLexeme(tok);
    tok->kind = KindOf(tok->id);
    return st;
  }

  support::Status ScanLexeme(Token* tok) {
    tok->line = line_;
    tok->column = col_;
    const char c = Peek();
    const std::uint8_t cls = ClassOf(c);

    // String/char literals, including encoding prefixes and raw strings.
    if (cls == tb::kClDquote) return ScanString(tok, /*raw=*/false, pos_);
    if (cls == tb::kClSquote) return ScanCharLiteral(tok, pos_);
    if (tb::IsIdentStartClass(cls)) {
      // Peek for literal prefixes: R" L" u" U" u8" uR" u8R" LR" UR".
      if (auto prefix = MatchLiteralPrefix(); !prefix.empty()) {
        const bool raw = prefix.back() == 'R';
        const std::size_t tok_start = pos_;
        AdvanceFlat(prefix.size());
        if (Peek() == '\'' && !raw) return ScanCharLiteral(tok, tok_start);
        return ScanString(tok, raw, tok_start);
      }
      return ScanIdentifier(tok);
    }
    if (tb::IsDigitClass(cls) ||
        (cls == tb::kClDot && tb::IsDigitClass(ClassOf(Peek(1))))) {
      return ScanNumber(tok);
    }
    return ScanPunct(tok);
  }

  // Returns the literal prefix at the cursor if the prefix is immediately
  // followed by a quote character, else empty.
  std::string_view MatchLiteralPrefix() const {
    static constexpr std::array<std::string_view, 9> kPrefixes = {
        "u8R", "uR", "UR", "LR", "R", "u8", "u", "U", "L"};
    for (std::string_view p : kPrefixes) {
      bool match = true;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (Peek(i) != p[i]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      const char next = Peek(p.size());
      if (next == '"' || (next == '\'' && p.back() != 'R')) return p;
    }
    return {};
  }

  // Runs the token DFA from `state` at the cursor and returns the number of
  // bytes it accepts. The accepted run never contains whitespace, so the
  // caller can consume it with AdvanceFlat.
  std::size_t RunDfa(std::uint8_t state) const {
    std::size_t p = pos_;
    while (p < src_.size()) {
      const std::uint8_t next = tb::kTokenDfa[state][ClassOf(src_[p])];
      if (next == tb::kStEnd) break;
      state = next;
      ++p;
    }
    return p - pos_;
  }

  support::Status ScanIdentifier(Token* tok) {
    const std::size_t start = pos_;
    AdvanceFlat(RunDfa(tb::kStIdent));
    tok->text = Slice(start, pos_);
    const TokenId id = tb::KeywordId(tok->text);
    tok->id = id >= kIdFirstCuda && !options_.cuda_dialect ? kIdIdentifier : id;
    return support::Status::Ok();
  }

  support::Status ScanNumber(Token* tok) {
    const std::size_t start = pos_;
    std::uint8_t state = tb::kStDec;
    if (Peek() == '0' && (Peek(1) == 'x' || Peek(1) == 'X')) {
      AdvanceFlat(2);
      state = tb::kStHex;
    } else if (Peek() == '0' && (Peek(1) == 'b' || Peek(1) == 'B')) {
      AdvanceFlat(2);
      state = tb::kStBin;
    }
    AdvanceFlat(RunDfa(state));
    tok->id = kIdNumber;
    tok->text = Slice(start, pos_);
    return support::Status::Ok();
  }

  support::Status ScanString(Token* tok, bool raw, std::size_t tok_start) {
    const std::int32_t start_line = line_;
    if (raw) {
      // R"delim( ... )delim" — raw bytes verbatim, splices included, so the
      // lexeme is always a pure slice.
      CERTKIT_CHECK(Peek() == '"');
      Advance();
      std::string delim;
      while (!AtEnd() && Peek() != '(') {
        delim.push_back(Peek());
        Advance();
      }
      if (AtEnd()) {
        return ParseError(path_ + ":" + std::to_string(start_line) +
                          ": malformed raw string delimiter");
      }
      Advance();
      const std::string closer = ")" + delim + "\"";
      while (!AtEnd()) {
        bool match = true;
        for (std::size_t i = 0; i < closer.size(); ++i) {
          if (Peek(i) != closer[i]) {
            match = false;
            break;
          }
        }
        if (match) {
          for (std::size_t i = 0; i < closer.size(); ++i) Advance();
          tok->id = kIdString;
          tok->text = Slice(tok_start, pos_);
          return support::Status::Ok();
        }
        Advance();
      }
      return ParseError(path_ + ":" + std::to_string(start_line) +
                        ": unterminated raw string");
    }
    CERTKIT_CHECK(Peek() == '"');
    Advance();
    // Splice bytes are dropped from the lexeme; raw segments between them
    // accumulate in `pending` only when a splice actually occurs.
    std::size_t seg_start = tok_start;
    std::string pending;
    bool spliced = false;
    while (!AtEnd()) {
      if (SpliceAhead()) {
        pending.append(src_, seg_start, pos_ - seg_start);
        spliced = true;
        ConsumeSplice();
        seg_start = pos_;
        continue;
      }
      const char c = Peek();
      if (c == '\n') {
        return ParseError(path_ + ":" + std::to_string(start_line) +
                          ": unterminated string literal");
      }
      if (c == '\\') {
        Advance();
        if (!AtEnd()) Advance();
        continue;
      }
      Advance();
      if (c == '"') {
        tok->id = kIdString;
        if (spliced) {
          pending.append(src_, seg_start, pos_ - seg_start);
          tok->text = Own(std::move(pending));
        } else {
          tok->text = Slice(tok_start, pos_);
        }
        return support::Status::Ok();
      }
    }
    return ParseError(path_ + ":" + std::to_string(start_line) +
                      ": unterminated string literal");
  }

  support::Status ScanCharLiteral(Token* tok, std::size_t tok_start) {
    const std::int32_t start_line = line_;
    CERTKIT_CHECK(Peek() == '\'');
    Advance();
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '\n') break;
      if (c == '\\') {
        Advance();
        if (!AtEnd()) Advance();
        continue;
      }
      Advance();
      if (c == '\'') {
        tok->id = kIdChar;
        tok->text = Slice(tok_start, pos_);
        return support::Status::Ok();
      }
    }
    return ParseError(path_ + ":" + std::to_string(start_line) +
                      ": unterminated character literal");
  }

  support::Status ScanPunct(Token* tok) {
    const auto rest = src_.substr(pos_);
    const unsigned char lead = Peek();
    const tb::PunctGroup group = tb::kPunctIndex[lead];
    tok->id = tb::kSinglePunctId[lead];
    std::size_t size = 1;
    for (std::uint8_t c = group.first; c < group.first + group.count; ++c) {
      const std::string_view p = kSpellings[c - kIdFirstSpelled];
      if (rest.starts_with(p)) {
        tok->id = TokenId{c};
        size = p.size();
        break;
      }
    }
    const std::size_t start = pos_;
    AdvanceFlat(size);
    tok->text = Slice(start, pos_);
    return support::Status::Ok();
  }

  support::Status ScanDirective() {
    const std::int32_t start_line = line_;
    MarkPreprocessor(start_line);
    Advance();  // '#'
    if (auto st = SkipWhitespaceAndComments(/*stop_at_newline=*/true);
        !st.ok()) {
      return st;
    }
    Directive dir;
    dir.line = start_line;
    if (!AtEnd() && tb::IsIdentStartClass(ClassOf(Peek()))) {
      Token name_tok;
      if (auto st = ScanIdentifier(&name_tok); !st.ok()) return st;
      dir.name = name_tok.text;
    }
    // Lex the remainder of the logical line.
    while (!AtEnd()) {
      if (auto st = SkipWhitespaceAndComments(/*stop_at_newline=*/true);
          !st.ok()) {
        return st;
      }
      if (AtEnd() || Peek() == '\n') break;
      MarkPreprocessor(line_);
      Token tok;
      if (auto st = ScanToken(&tok); !st.ok()) return st;
      MarkPreprocessor(tok.line);
      dir.tokens.push_back(tok);
    }
    out_.directives.push_back(std::move(dir));
    return support::Status::Ok();
  }

  void FinalizeLineStats() {
    LineStats& s = out_.lines;
    s.total = static_cast<std::int64_t>(line_flags_.size());
    for (const LineFlags& f : line_flags_) {
      if (f.is_preprocessor) {
        ++s.preprocessor;
      } else if (f.has_code) {
        ++s.code;
      } else if (f.has_comment) {
        ++s.comment_only;
      } else {
        ++s.blank;
      }
    }
  }

  std::string path_;
  std::shared_ptr<const std::string> buffer_;
  std::string_view src_;
  LexOptions options_;
  std::size_t pos_ = 0;
  std::int32_t line_ = 1;
  std::int32_t col_ = 1;
  bool at_line_start_ = true;
  std::vector<LineFlags> line_flags_;
  std::shared_ptr<std::deque<std::string>> owned_;
  LexedFile out_;
};

}  // namespace

Result<LexedFile> Lex(std::string path, std::string_view source,
                      const LexOptions& options) {
  obs::MetricsRegistry::Instance()
      .GetCounter("lexer/bytes_lexed")
      .Add(static_cast<std::int64_t>(source.size()));
  auto buffer = std::make_shared<const std::string>(source);
  Scanner scanner(std::move(path), std::move(buffer), options);
  return scanner.Run();
}

}  // namespace certkit::lex

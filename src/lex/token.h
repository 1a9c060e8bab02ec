// certkit lexer: token and line-classification types.
//
// The lexer operates on raw (unpreprocessed) C, C++, or CUDA-C++ source, as
// the paper's tooling (Lizard, style checkers) does. Preprocessor directives
// are lexed but kept out of the main token stream so the fuzzy parser sees a
// directive-free token sequence.
//
// Tokens are ZERO-COPY: Token::text and Comment::text are string_views into
// storage owned by the enclosing LexedFile — `buffer` holds the exact source
// bytes, and `owned_lexemes` holds the rare lexemes whose text differs from
// the raw bytes (string literals and line comments interrupted by a
// backslash-newline splice). Both are shared_ptrs, so copying or moving a
// LexedFile never invalidates a view. Code that keeps a token's text beyond
// the LexedFile's lifetime must copy it explicitly via Token::str().
#ifndef CERTKIT_LEX_TOKEN_H_
#define CERTKIT_LEX_TOKEN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace certkit::lex {

enum class TokenKind {
  kIdentifier,  // foo, bar_baz
  kKeyword,     // if, while, template, __global__ (CUDA dialect)
  kNumber,      // 42, 0x1F, 3.5f, 0b1010, 1'000'000
  kString,      // "...", R"(...)", L"...", u8"..."
  kChar,        // 'a', L'\n'
  kPunct,       // operators and punctuation, maximal munch
};
inline constexpr int kNumTokenKinds = 6;

const char* TokenKindName(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::kPunct;
  // View into the owning LexedFile's buffer (or owned_lexemes). Valid for
  // the lifetime of that LexedFile and of any copy of it.
  std::string_view text;
  std::int32_t line = 0;    // 1-based
  std::int32_t column = 0;  // 1-based byte column

  // Explicit owning copy, for text that must outlive the LexedFile.
  std::string str() const { return std::string(text); }

  bool Is(TokenKind k, std::string_view t) const {
    return kind == k && text == t;
  }
  bool IsPunct(std::string_view t) const { return Is(TokenKind::kPunct, t); }
  bool IsKeyword(std::string_view t) const {
    return Is(TokenKind::kKeyword, t);
  }
  bool IsIdentifier() const { return kind == TokenKind::kIdentifier; }
};

// One preprocessor directive (logical line, after continuation splicing).
struct Directive {
  std::string name;           // "include", "define", "if", ... ("" if bare #)
  std::int32_t line = 0;      // line of the '#'
  std::vector<Token> tokens;  // tokens after the directive name

  template <class Io, class Self>
  static void Fields(Io& io, Self& d) {
    io("name", d.name);
    io("line", d.line);
    io("tokens", d.tokens);
  }
};

// Per-file physical-line statistics, in the sense used by Figure 3 (LOC) and
// by the size limits of Table 2.
struct LineStats {
  std::int64_t total = 0;         // physical lines
  std::int64_t blank = 0;         // whitespace only
  std::int64_t comment_only = 0;  // comment text, no code
  std::int64_t code = 0;          // at least one code token (NLOC)
  std::int64_t preprocessor = 0;  // directive lines (incl. continuations)

  template <class Io, class Self>
  static void Fields(Io& io, Self& s) {
    io("total", s.total);
    io("blank", s.blank);
    io("comment_only", s.comment_only);
    io("code", s.code);
    io("preprocessor", s.preprocessor);
  }
};

// A retained comment (populated only with LexOptions::keep_comments).
struct Comment {
  // Raw text including the // or /* */ markers; views into the owning
  // LexedFile's storage, like Token::text.
  std::string_view text;
  std::int32_t line = 0;  // line the comment starts on
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;         // code tokens, directives excluded
  std::vector<Directive> directives;
  std::vector<Comment> comments;     // only with LexOptions::keep_comments
  LineStats lines;
  std::int64_t comment_count = 0;    // number of comments (// or /*...*/)

  // Zero-copy backing storage. `buffer` owns the exact source bytes that
  // were lexed; almost every Token::text is a slice of it. `owned_lexemes`
  // (usually null) owns the synthesized lexemes — string literals and line
  // comments whose backslash-newline splices were removed — in a deque so
  // growth never moves an element. shared_ptr ownership means copies of a
  // LexedFile share storage and all views stay valid.
  std::shared_ptr<const std::string> buffer;
  std::shared_ptr<std::deque<std::string>> owned_lexemes;

  // The persisted form (support/record.h). Tokens and comments are views
  // into the storage above, so they have no field list: the Io's codec
  // stores them (the analysis cache's stores slices of `buffer`).
  template <class Io, class Self>
  static void Fields(Io& io, Self& f) {
    io("path", f.path);
    io("tokens", f.tokens);
    io("directives", f.directives);
    io("comments", f.comments);
    io("lines", f.lines);
    io("comment_count", f.comment_count);
  }

  std::string_view source() const {
    return buffer ? std::string_view(*buffer) : std::string_view();
  }
};

// True for C/C++/CUDA keywords in the dialect the toolkit analyzes.
bool IsCppKeyword(std::string_view word);
// True for CUDA-specific execution-space / memory-space keywords
// (__global__, __device__, __host__, __shared__, __constant__, ...).
bool IsCudaKeyword(std::string_view word);

}  // namespace certkit::lex

#endif  // CERTKIT_LEX_TOKEN_H_

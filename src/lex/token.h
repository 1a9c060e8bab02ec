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
//
// Every token carries its TokenId, the lexer's one decision of what it is
// (kSpellings below lists each keyword and punctuator once). Analyses test
// a token by comparing ids (`t.id == Tok("(")`) or by membership in a
// constexpr TokenSet, never by its text.
#ifndef CERTKIT_LEX_TOKEN_H_
#define CERTKIT_LEX_TOKEN_H_

#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
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

// Every keyword and punctuator spelling, once. A spelling's token id is
// kIdFirstSpelled plus its index here.
inline constexpr std::array<std::string_view, 154> kSpellings = {
    // C++20 keywords, plus the C99/C11 spellings that appear in mixed C/C++
    // automotive codebases.
    "alignas", "alignof", "and", "and_eq", "asm", "auto", "bitand", "bitor",
    "bool", "break", "case", "catch", "char", "char8_t", "char16_t",
    "char32_t", "class", "compl", "concept", "const", "consteval",
    "constexpr", "constinit", "const_cast", "continue", "co_await",
    "co_return", "co_yield", "decltype", "default", "delete", "do",
    "double", "dynamic_cast", "else", "enum", "explicit", "export",
    "extern", "false", "float", "for", "friend", "goto", "if", "inline",
    "int", "long", "mutable", "namespace", "new", "noexcept", "not",
    "not_eq", "nullptr", "operator", "or", "or_eq", "private", "protected",
    "public", "register", "reinterpret_cast", "requires", "return", "short",
    "signed", "sizeof", "static", "static_assert", "static_cast", "struct",
    "switch", "template", "this", "thread_local", "throw", "true", "try",
    "typedef", "typeid", "typename", "union", "unsigned", "using",
    "virtual", "void", "volatile", "wchar_t", "while",
    "restrict", "_Bool", "_Static_assert",
    // CUDA execution- and memory-space keywords (keywords only in the CUDA
    // dialect, LexOptions::cuda_dialect).
    "__global__", "__device__", "__host__", "__shared__", "__constant__",
    "__managed__", "__restrict__", "__forceinline__", "__launch_bounds__",
    // Multi-character punctuators, grouped by lead character, each group in
    // maximal-munch priority order (for '<': "<<=" before "<=>" before "<<"
    // before "<=").
    "<<=", "<=>", "<<", "<=", ">>=", ">>", ">=", "...", ".*", "->*", "->",
    "--", "-=", "::", "++", "+=", "==", "!=", "&&", "&=", "||", "|=", "*=",
    "/=", "%=", "^=", "##",
    // Single-character punctuators.
    "{", "}", "[", "]", "(", ")", ";", ":", ",", ".", "?", "~", "!", "+",
    "-", "*", "/", "%", "^", "&", "|", "=", "<", ">", "#",
};

// What the lexer decided a token is, in one byte. Below kIdFirstSpelled, one
// id per kind, in TokenKind order, for the tokens no spelling names:
// identifiers, literals, and keyword or punctuator texts kSpellings lacks
// (the lexer emits no such keyword, and such a punctuator only for a byte
// like '@', '$' or a lone backslash).
enum TokenId : std::uint8_t {
  kIdIdentifier,
  kIdUnlistedKeyword,
  kIdNumber,
  kIdString,
  kIdChar,
  kIdUnlistedPunct,
  kIdFirstSpelled,
  kIdFirstCuda = kIdFirstSpelled + 93,
  kIdFirstPunct = kIdFirstCuda + 9,
  kIdFirstSinglePunct = kIdFirstPunct + 27,
  kNumTokenIds = kIdFirstSinglePunct + 25,
};
static_assert(kNumTokenIds == kIdFirstSpelled + kSpellings.size());
static_assert(kSpellings[kIdFirstCuda - kIdFirstSpelled] == "__global__");
static_assert(kSpellings[kIdFirstPunct - kIdFirstSpelled] == "<<=");
static_assert(kSpellings[kIdFirstSinglePunct - kIdFirstSpelled] == "{");

// The id of a keyword or punctuator spelling. Evaluated at compile time
// only: a spelling kSpellings lacks does not compile.
consteval TokenId Tok(std::string_view spelling) {
  for (std::uint8_t id = kIdFirstSpelled; id < kNumTokenIds; ++id) {
    if (kSpellings[id - kIdFirstSpelled] == spelling) return TokenId{id};
  }
  throw "not a keyword or punctuator spelling";
}

// A set of token ids, built at compile time: one bit per id.
class TokenSet {
 public:
  consteval TokenSet(std::initializer_list<TokenId> ids) {
    for (TokenId id : ids) words_[id / 64] |= std::uint64_t{1} << id % 64;
  }
  constexpr bool contains(TokenId id) const {
    return (words_[id / 64] >> id % 64 & 1) != 0;
  }
  consteval TokenSet operator|(TokenSet other) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      other.words_[w] |= words_[w];
    }
    return other;
  }

 private:
  std::array<std::uint64_t, 4> words_{};
};

// Each opener is listed just before its closer, so an opener's closer is
// its id plus one.
static_assert(Tok("(") + 1 == Tok(")") && Tok("[") + 1 == Tok("]") &&
              Tok("{") + 1 == Tok("}"));

// +1 at the opener `open` ('(', '[' or '{'), -1 at its closer, else 0.
constexpr int Nesting(TokenId id, TokenId open) {
  return (id == open) - (id == open + 1);
}

// The kind every token of id `id` has.
constexpr TokenKind KindOf(TokenId id) {
  return id < kIdFirstSpelled ? TokenKind{id}
         : id < kIdFirstPunct ? TokenKind::kKeyword
                              : TokenKind::kPunct;
}

// The id the lexer stamps on a token of this kind and text: a pure function
// of the two (an identifier spelled like a CUDA keyword outside the CUDA
// dialect stays kIdIdentifier).
TokenId IdOf(TokenKind kind, std::string_view text);

struct Token {
  TokenKind kind = TokenKind::kPunct;
  TokenId id = kIdUnlistedPunct;  // IdOf(kind, text), stamped by the lexer
  // View into the owning LexedFile's buffer (or owned_lexemes). Valid for
  // the lifetime of that LexedFile and of any copy of it.
  std::string_view text;
  std::int32_t line = 0;    // 1-based
  std::int32_t column = 0;  // 1-based byte column

  // Explicit owning copy, for text that must outlive the LexedFile.
  std::string str() const { return std::string(text); }

  bool IsIdentifier() const { return kind == TokenKind::kIdentifier; }
};
// The id sits in the padding after the kind: tokens stay four to a cache
// line.
static_assert(sizeof(Token) == 32);

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

// The index of the closer matching the opener toks[open] ('(', '[' or
// '{'), looking no further than toks[last] (last < toks.size()); `last`
// when it is not there.
std::size_t MatchingClose(const std::vector<Token>& toks, std::size_t open,
                          std::size_t last);

// True when toks[i] is an identifier followed, no further than toks[last],
// by '(' — the shape of a call.
inline bool IsCallAt(const std::vector<Token>& toks, std::size_t i,
                     std::size_t last) {
  return toks[i].id == kIdIdentifier && i + 1 <= last &&
         toks[i + 1].id == Tok("(");
}

// Calls visit(i) for each statement start between the braces at lbrace and
// rbrace: a token after a ';', '{' or '}' that is none of those itself.
template <class Visit>
void ForEachStatementStart(const std::vector<Token>& toks, std::size_t lbrace,
                           std::size_t rbrace, Visit visit) {
  constexpr TokenSet kBreaks = {Tok(";"), Tok("{"), Tok("}")};
  bool at_start = true;
  for (std::size_t i = lbrace + 1; i < rbrace; ++i) {
    const bool breaks = kBreaks.contains(toks[i].id);
    if (at_start && !breaks) visit(i);
    at_start = breaks;
  }
}

// True for C/C++ keywords in the dialect the toolkit analyzes.
bool IsCppKeyword(std::string_view word);
// True for CUDA-specific execution-space / memory-space keywords
// (__global__, __device__, __host__, __shared__, __constant__, ...).
bool IsCudaKeyword(std::string_view word);

}  // namespace certkit::lex

#endif  // CERTKIT_LEX_TOKEN_H_

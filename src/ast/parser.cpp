#include "ast/parser.h"

#include <algorithm>
#include <unordered_set>

#include "support/check.h"
#include "support/io.h"
#include "support/strings.h"

namespace certkit::ast {

namespace {

using lex::Token;
using lex::TokenKind;

const std::unordered_set<std::string_view>& TypeishKeywords() {
  static const std::unordered_set<std::string_view> kSet = {
      "const",    "volatile", "unsigned", "signed", "char",  "short",
      "int",      "long",     "float",    "double", "bool",  "void",
      "struct",   "enum",     "union",    "auto",   "wchar_t",
      "char8_t",  "char16_t", "char32_t",
  };
  return kSet;
}

bool IsFundamentalTypeKeyword(std::string_view s) {
  static const std::unordered_set<std::string_view> kSet = {
      "char",  "short",  "int",     "long",     "float",    "double",
      "bool",  "void",   "wchar_t", "char8_t",  "char16_t", "char32_t",
      "signed", "unsigned",
  };
  return kSet.contains(s);
}

class Parser {
 public:
  Parser(SourceFileModel* model) : model_(model), toks_(model->lexed.tokens) {}

  void Run() {
    ProcessDirectives();
    while (i_ < toks_.size()) {
      ParseTopLevel();
    }
    DetectCasts();
  }

 private:
  struct Scope {
    enum class Kind { kNamespace, kClass, kExternC };
    Kind kind;
    std::string name;
    TypeModel* type = nullptr;  // for class scopes, points into model_->types
    bool is_public = true;      // current access for class scopes
  };

  // --- token cursor helpers -------------------------------------------------

  bool AtEnd() const { return i_ >= toks_.size(); }
  const Token& Cur() const { return toks_[i_]; }
  const Token* PeekAt(std::size_t offset) const {
    return i_ + offset < toks_.size() ? &toks_[i_ + offset] : nullptr;
  }
  void Next() { ++i_; }

  // Skips a balanced group starting at the opener at i_ ('(', '{', or '[').
  // Returns the index of the matching closer (or last token on imbalance —
  // the fuzzy contract: never crash on malformed input).
  std::size_t SkipBalanced(char open, char close) {
    CERTKIT_CHECK(!AtEnd() && Cur().kind == TokenKind::kPunct &&
                  Cur().text.size() == 1 && Cur().text[0] == open);
    int depth = 0;
    const std::string open_s(1, open), close_s(1, close);
    while (!AtEnd()) {
      if (Cur().IsPunct(open_s)) {
        ++depth;
      } else if (Cur().IsPunct(close_s)) {
        --depth;
        if (depth == 0) {
          const std::size_t idx = i_;
          Next();
          return idx;
        }
      }
      Next();
    }
    return toks_.empty() ? 0 : toks_.size() - 1;
  }

  // Skips a template header: cursor is at "template"; consumes `template
  // < ... >` treating ">>" as two closers.
  void SkipTemplateHeader() {
    CERTKIT_CHECK(Cur().IsKeyword("template"));
    Next();
    if (AtEnd() || !Cur().IsPunct("<")) return;
    int depth = 0;
    while (!AtEnd()) {
      const Token& t = Cur();
      if (t.IsPunct("<") || t.IsPunct("<<")) {
        depth += static_cast<int>(t.text.size());
      } else if (t.IsPunct(">") || t.IsPunct(">>")) {
        depth -= static_cast<int>(t.text.size());
        if (depth <= 0) {
          Next();
          return;
        }
      } else if (t.IsPunct("(")) {
        SkipBalanced('(', ')');
        continue;
      }
      Next();
    }
  }

  // Skips to the next ';' at depth 0, balancing (), {}, [].
  void SkipToSemicolon() {
    while (!AtEnd()) {
      const Token& t = Cur();
      if (t.IsPunct(";")) {
        Next();
        return;
      }
      if (t.IsPunct("(")) {
        SkipBalanced('(', ')');
        continue;
      }
      if (t.IsPunct("{")) {
        SkipBalanced('{', '}');
        continue;
      }
      if (t.IsPunct("[")) {
        SkipBalanced('[', ']');
        continue;
      }
      if (t.IsPunct("}")) return;  // stray closer: let caller handle scope pop
      Next();
    }
  }

  void SkipAttributes() {
    while (!AtEnd() && Cur().IsPunct("[") && PeekAt(1) &&
           PeekAt(1)->IsPunct("[")) {
      SkipBalanced('[', ']');
    }
  }

  std::string QualifiedName(const std::string& name) const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (!s.name.empty()) {
        out += s.name;
        out += "::";
      }
    }
    out += name;
    return out;
  }

  Scope* CurrentClassScope() {
    if (!scopes_.empty() && scopes_.back().kind == Scope::Kind::kClass) {
      return &scopes_.back();
    }
    return nullptr;
  }

  // --- directives -----------------------------------------------------------

  void ProcessDirectives() {
    for (const lex::Directive& d : model_->lexed.directives) {
      if (d.name == "include") {
        std::string target;
        for (const Token& t : d.tokens) target += t.text;
        model_->includes.push_back(target);
      } else if (d.name == "define" && !d.tokens.empty() &&
                 d.tokens[0].kind == TokenKind::kIdentifier) {
        MacroModel m;
        m.name = d.tokens[0].text;
        m.line = d.line;
        // Function-like iff '(' immediately follows the name (no space).
        m.function_like =
            d.tokens.size() > 1 && d.tokens[1].IsPunct("(") &&
            d.tokens[1].line == d.tokens[0].line &&
            d.tokens[1].column ==
                d.tokens[0].column +
                    static_cast<std::int32_t>(d.tokens[0].text.size());
        model_->macros.push_back(std::move(m));
      }
    }
  }

  // --- top level ------------------------------------------------------------

  void ParseTopLevel() {
    const Token& t = Cur();
    if (t.IsPunct("}")) {
      if (!scopes_.empty()) scopes_.pop_back();
      Next();
      // Class definitions end with "};" — consume the semicolon if present.
      if (!AtEnd() && Cur().IsPunct(";")) Next();
      return;
    }
    if (t.IsPunct(";")) {
      Next();
      return;
    }
    if (t.IsKeyword("namespace")) {
      ParseNamespace();
      return;
    }
    if (t.IsKeyword("inline") && PeekAt(1) &&
        PeekAt(1)->IsKeyword("namespace")) {
      Next();  // `inline namespace`: the namespace handling takes over
      return;
    }
    if (t.IsKeyword("extern") && PeekAt(1) &&
        PeekAt(1)->kind == TokenKind::kString) {
      Next();  // extern
      Next();  // "C"
      if (!AtEnd() && Cur().IsPunct("{")) {
        scopes_.push_back({Scope::Kind::kExternC, "", nullptr, true});
        Next();
      }
      return;
    }
    if (t.IsKeyword("using")) {
      if (PeekAt(1) && PeekAt(1)->IsKeyword("namespace")) {
        ++model_->using_namespace_count;
      } else {
        // `using A = B;` is an alias; `using ns::foo;` is a using-decl.
        bool has_eq = false;
        for (std::size_t k = i_ + 1; k < toks_.size(); ++k) {
          if (toks_[k].IsPunct(";")) break;
          if (toks_[k].IsPunct("=")) {
            has_eq = true;
            break;
          }
        }
        if (has_eq) ++model_->typedef_count;
      }
      SkipToSemicolon();
      return;
    }
    if (t.IsKeyword("typedef")) {
      ++model_->typedef_count;
      SkipToSemicolon();
      return;
    }
    if (t.IsKeyword("template")) {
      SkipTemplateHeader();
      return;  // the templated entity is parsed on the next iteration
    }
    if (t.IsKeyword("static_assert")) {
      SkipToSemicolon();
      return;
    }
    if (t.IsKeyword("class") || t.IsKeyword("struct") || t.IsKeyword("union")) {
      if (TryParseTypeDefinition()) return;
      // Elaborated type in a declaration — fall through to declaration-ish.
      ParseDeclarationish();
      return;
    }
    if (t.IsKeyword("enum")) {
      ParseEnum();
      return;
    }
    if (t.IsKeyword("public") || t.IsKeyword("private") ||
        t.IsKeyword("protected")) {
      if (Scope* cls = CurrentClassScope()) {
        cls->is_public = t.IsKeyword("public");
      }
      Next();
      if (!AtEnd() && Cur().IsPunct(":")) Next();
      return;
    }
    ParseDeclarationish();
  }

  void ParseNamespace() {
    CERTKIT_CHECK(Cur().IsKeyword("namespace"));
    Next();
    std::string name;
    // namespace a::b::c { ... } or anonymous namespace.
    while (!AtEnd() && (Cur().IsIdentifier() || Cur().IsPunct("::"))) {
      name += Cur().text;
      Next();
    }
    if (AtEnd()) return;
    if (Cur().IsPunct("{")) {
      scopes_.push_back({Scope::Kind::kNamespace, name, nullptr, true});
      Next();
      return;
    }
    // namespace alias or malformed — skip the statement.
    SkipToSemicolon();
  }

  // Cursor at class/struct/union. Returns true if a *definition* was parsed
  // (scope pushed); false if this is an elaborated type specifier in a
  // declaration (cursor unchanged).
  bool TryParseTypeDefinition() {
    const std::size_t start = i_;
    const Token& kw = Cur();
    TypeKind kind = kw.IsKeyword("class")    ? TypeKind::kClass
                    : kw.IsKeyword("struct") ? TypeKind::kStruct
                                             : TypeKind::kUnion;
    std::size_t k = i_ + 1;
    // Skip attributes and alignas.
    while (k < toks_.size() && toks_[k].IsPunct("[") && k + 1 < toks_.size() &&
           toks_[k + 1].IsPunct("[")) {
      int depth = 0;
      while (k < toks_.size()) {
        if (toks_[k].IsPunct("[")) ++depth;
        if (toks_[k].IsPunct("]")) {
          --depth;
          if (depth == 0) {
            ++k;
            break;
          }
        }
        ++k;
      }
    }
    std::string name;
    if (k < toks_.size() && toks_[k].IsIdentifier()) {
      name = toks_[k].text;
      ++k;
      // Skip template-id arguments in specializations: Name<...>.
      if (k < toks_.size() && toks_[k].IsPunct("<")) {
        int depth = 0;
        while (k < toks_.size()) {
          if (toks_[k].IsPunct("<")) ++depth;
          if (toks_[k].IsPunct(">")) {
            --depth;
            if (depth == 0) {
              ++k;
              break;
            }
          }
          if (toks_[k].IsPunct(">>")) {
            depth -= 2;
            if (depth <= 0) {
              ++k;
              break;
            }
          }
          ++k;
        }
      }
    }
    // `final` contextual keyword.
    if (k < toks_.size() && toks_[k].IsIdentifier() &&
        toks_[k].text == "final") {
      ++k;
    }
    // Definition iff next is '{' or ':' (base clause).
    if (k >= toks_.size() ||
        !(toks_[k].IsPunct("{") || toks_[k].IsPunct(":"))) {
      i_ = start;
      return false;
    }
    // Skip base clause to '{'.
    while (k < toks_.size() && !toks_[k].IsPunct("{")) {
      if (toks_[k].IsPunct(";")) {  // defensive: malformed
        i_ = k + 1;
        return true;
      }
      ++k;
    }
    if (k >= toks_.size()) {
      i_ = toks_.size();
      return true;
    }
    TypeModel tm;
    tm.kind = kind;
    tm.name = name.empty() ? "<anonymous>" : name;
    tm.qualified_name = QualifiedName(tm.name);
    tm.line = kw.line;
    model_->types.push_back(tm);
    Scope scope{Scope::Kind::kClass, name, nullptr,
                kind != TypeKind::kClass};
    scope.type = &model_->types.back();
    scopes_.push_back(scope);
    i_ = k + 1;  // past '{'
    return true;
  }

  void ParseEnum() {
    CERTKIT_CHECK(Cur().IsKeyword("enum"));
    const std::int32_t line = Cur().line;
    Next();
    if (!AtEnd() && (Cur().IsKeyword("class") || Cur().IsKeyword("struct"))) {
      Next();
    }
    std::string name;
    if (!AtEnd() && Cur().IsIdentifier()) {
      name = Cur().text;
      Next();
    }
    // Underlying type.
    if (!AtEnd() && Cur().IsPunct(":")) {
      while (!AtEnd() && !Cur().IsPunct("{") && !Cur().IsPunct(";")) Next();
    }
    if (!AtEnd() && Cur().IsPunct("{")) {
      TypeModel tm;
      tm.kind = TypeKind::kEnum;
      tm.name = name.empty() ? "<anonymous>" : name;
      tm.qualified_name = QualifiedName(tm.name);
      tm.line = line;
      model_->types.push_back(tm);
      SkipBalanced('{', '}');
    }
    if (!AtEnd() && Cur().IsPunct(";")) Next();
  }

  // --- declarations and function definitions --------------------------------

  // Parses one declaration-ish run at namespace/class scope. Decides between
  // function definition, function/variable declaration, and variable
  // definition.
  void ParseDeclarationish() {
    const std::size_t decl_begin = i_;
    bool saw_static = false;
    bool saw_cuda_global = false;
    bool saw_cuda_device = false;
    bool saw_extern = false;
    bool saw_const = false;
    bool saw_operator = false;

    // Walk tokens at depth 0 until a decision point.
    while (!AtEnd()) {
      const Token& t = Cur();
      if (t.IsPunct("}")) return;  // scope closer: top-level loop handles it
      if (t.IsPunct(";")) {
        // Variable declaration without initializer (or stray decl).
        RecordGlobalIfPlausible(decl_begin, i_, saw_static, saw_extern,
                                saw_const, /*has_init=*/false);
        Next();
        return;
      }
      if (t.IsKeyword("static")) saw_static = true;
      if (t.IsKeyword("extern")) saw_extern = true;
      if (t.IsKeyword("const") || t.IsKeyword("constexpr")) saw_const = true;
      if (t.IsKeyword("__global__")) saw_cuda_global = true;
      if (t.IsKeyword("__device__")) saw_cuda_device = true;

      if (t.IsKeyword("operator")) {
        saw_operator = true;
        Next();
        // operator() — the symbol itself is a paren pair; absorb it so the
        // following parens are the parameter list.
        if (!AtEnd() && Cur().IsPunct("(") && PeekAt(1) &&
            PeekAt(1)->IsPunct(")")) {
          Next();
          Next();
        }
        // Absorb the remaining operator symbol: puncts, or new/delete, or a
        // conversion-operator type (identifiers); stop at '('.
        while (!AtEnd() && !Cur().IsPunct("(")) {
          if (Cur().IsPunct(";") || Cur().IsPunct("{")) break;
          Next();
        }
        continue;
      }
      if (t.IsPunct("[") && PeekAt(1) && PeekAt(1)->IsPunct("[")) {
        SkipAttributes();
        continue;
      }
      if (t.IsPunct("[")) {  // array declarator
        SkipBalanced('[', ']');
        continue;
      }
      if (t.IsPunct("<")) {
        // Template arguments inside the declarator (e.g. return type
        // std::vector<int>). Balance conservatively.
        SkipAngleBrackets();
        continue;
      }
      if (t.IsPunct("=")) {
        // Variable with initializer.
        RecordGlobalIfPlausible(decl_begin, i_, saw_static, saw_extern,
                                saw_const, /*has_init=*/true);
        SkipToSemicolon();
        return;
      }
      if (t.IsPunct("{")) {
        // Brace initializer without '=' : `int x{3};` — or something we do
        // not understand. Record then skip.
        RecordGlobalIfPlausible(decl_begin, i_, saw_static, saw_extern,
                                saw_const, /*has_init=*/true);
        SkipBalanced('{', '}');
        if (!AtEnd() && Cur().IsPunct(";")) Next();
        return;
      }
      if (t.IsPunct("(")) {
        HandleParenInDeclarator(decl_begin, saw_static, saw_cuda_global,
                                saw_cuda_device, saw_operator);
        return;
      }
      Next();
    }
  }

  void SkipAngleBrackets() {
    CERTKIT_CHECK(Cur().IsPunct("<"));
    int depth = 0;
    while (!AtEnd()) {
      const Token& t = Cur();
      if (t.IsPunct("<")) {
        ++depth;
      } else if (t.IsPunct(">")) {
        --depth;
        if (depth == 0) {
          Next();
          return;
        }
      } else if (t.IsPunct(">>")) {
        depth -= 2;
        if (depth <= 0) {
          Next();
          return;
        }
      } else if (t.IsPunct(";") || t.IsPunct("{")) {
        return;  // not template args after all — bail out, cursor stays
      } else if (t.IsPunct("(")) {
        SkipBalanced('(', ')');
        continue;
      }
      Next();
    }
  }

  // Cursor at '(' inside a declarator run. Determines whether this is a
  // function definition, declaration, or ctor-style variable init.
  void HandleParenInDeclarator(std::size_t decl_begin, bool is_static,
                               bool is_cuda_global, bool is_cuda_device,
                               bool saw_operator) {
    const std::size_t lparen = i_;
    const std::size_t rparen = SkipBalanced('(', ')');
    // After the parameter list: qualifiers, then '{', ';', '=', ':' or 'try'.
    while (!AtEnd()) {
      const Token& t = Cur();
      if (t.IsPunct("{")) {
        RecordFunction(decl_begin, lparen, rparen, is_static, is_cuda_global,
                       is_cuda_device, saw_operator);
        return;
      }
      if (t.IsPunct(";")) {
        Next();  // declaration only — not recorded
        return;
      }
      if (t.IsPunct("=")) {
        // `= default;` / `= delete;` / pure virtual — declaration.
        SkipToSemicolon();
        return;
      }
      if (t.IsPunct(":")) {
        // Constructor member-initializer list: `name(...)` or `name{...}`
        // items separated by commas; the first '{' that is not an item
        // initializer opens the body.
        Next();
        while (!AtEnd()) {
          // Skip the member/base name (possibly qualified / templated).
          while (!AtEnd() &&
                 (Cur().IsIdentifier() || Cur().IsPunct("::") ||
                  Cur().kind == lex::TokenKind::kKeyword)) {
            Next();
          }
          if (!AtEnd() && Cur().IsPunct("<")) SkipAngleBrackets();
          if (AtEnd()) return;
          if (Cur().IsPunct("(")) {
            SkipBalanced('(', ')');
          } else if (Cur().IsPunct("{")) {
            SkipBalanced('{', '}');
          } else if (Cur().IsPunct(";")) {  // malformed; bail
            Next();
            return;
          } else if (Cur().IsPunct("...")) {  // pack expansion
            Next();
            continue;
          } else {
            // Unknown construct: consume one token defensively.
            Next();
            continue;
          }
          // After an item initializer: ',' continues the list, anything else
          // (normally '{') is handled by the outer loop.
          if (!AtEnd() && Cur().IsPunct("...")) Next();
          if (!AtEnd() && Cur().IsPunct(",")) {
            Next();
            continue;
          }
          break;
        }
        continue;
      }
      if (t.IsKeyword("try")) {
        // Function-try-block: body follows; catch clauses handled by the
        // body skip since they are brace groups — consume them after.
        Next();
        continue;
      }
      if (t.IsKeyword("const") || t.IsKeyword("noexcept") ||
          t.IsKeyword("volatile") || t.IsKeyword("throw") ||
          (t.IsIdentifier() &&
           (t.text == "override" || t.text == "final"))) {
        Next();
        if (!AtEnd() && Cur().IsPunct("(")) SkipBalanced('(', ')');
        continue;
      }
      if (t.IsPunct("->")) {  // trailing return type
        Next();
        while (!AtEnd() && !Cur().IsPunct("{") && !Cur().IsPunct(";")) {
          if (Cur().IsPunct("(")) {
            SkipBalanced('(', ')');
            continue;
          }
          if (Cur().IsPunct("<")) {
            SkipAngleBrackets();
            continue;
          }
          Next();
        }
        continue;
      }
      if (t.IsPunct("[") && PeekAt(1) && PeekAt(1)->IsPunct("[")) {
        SkipAttributes();
        continue;
      }
      if (t.IsPunct("(")) {
        // Second paren group: pointer-to-function variable or macro call.
        SkipBalanced('(', ')');
        continue;
      }
      // Unknown token (macro, K&R parameter, etc.): consume conservatively.
      Next();
    }
  }

  void RecordFunction(std::size_t decl_begin, std::size_t lparen,
                      std::size_t rparen, bool is_static, bool is_cuda_global,
                      bool is_cuda_device, bool saw_operator) {
    CERTKIT_CHECK(!AtEnd() && Cur().IsPunct("{"));
    FunctionModel fn;
    fn.sig_begin = decl_begin;
    fn.lparen = lparen;
    fn.body_begin = i_;
    fn.start_line = toks_[decl_begin].line;
    // Return type is plain void iff a `void` keyword appears before the name
    // with no pointer decoration after it.
    for (std::size_t j = decl_begin; j < lparen; ++j) {
      if (toks_[j].IsKeyword("void")) {
        fn.returns_void = true;
      } else if (toks_[j].IsPunct("*") || toks_[j].IsPunct("&")) {
        fn.returns_void = false;
      }
    }
    fn.is_static = is_static;
    fn.is_cuda_kernel = is_cuda_global;
    fn.is_cuda_device = is_cuda_device;
    fn.is_method = false;
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::Kind::kClass) fn.is_method = true;
    }

    // Extract the (possibly qualified) function name: walk back from lparen.
    std::string prefix;  // out-of-line qualifier, e.g. "Foo::"
    std::string name;
    std::size_t k = lparen;
    if (saw_operator) {
      // Name runs from the 'operator' keyword to lparen.
      std::size_t op_idx = decl_begin;
      for (std::size_t j = decl_begin; j < lparen; ++j) {
        if (toks_[j].IsKeyword("operator")) op_idx = j;
      }
      for (std::size_t j = op_idx; j < lparen; ++j) name += toks_[j].text;
    } else if (k > decl_begin) {
      std::size_t j = k;  // token just after the name is toks_[lparen]
      // Walk backward over: ident | ~ident | ident<...> | qualified ids.
      std::vector<std::string> parts;
      while (j > decl_begin) {
        --j;
        const Token& t = toks_[j];
        if (t.IsPunct(">") || t.IsPunct(">>")) {
          // Skip template args backward.
          int depth = 0;
          while (true) {
            const Token& u = toks_[j];
            if (u.IsPunct(">")) ++depth;
            if (u.IsPunct(">>")) depth += 2;
            if (u.IsPunct("<")) --depth;
            if (depth <= 0 || j == decl_begin) break;
            --j;
          }
          continue;
        }
        if (t.IsIdentifier()) {
          parts.push_back(t.str());
          if (j > decl_begin && toks_[j - 1].IsPunct("~")) {
            parts.back() = "~" + parts.back();
            --j;
          }
          if (j > decl_begin && toks_[j - 1].IsPunct("::")) {
            --j;
            continue;  // keep walking the qualified id
          }
          break;
        }
        break;  // anything else ends the name walk
      }
      if (!parts.empty()) {
        name = parts.front();  // the last component
        for (std::size_t p = parts.size(); p > 1; --p) {
          prefix += parts[p - 1] + "::";
        }
      }
    }
    if (name.empty()) name = "<anonymous>";
    fn.name = name;
    fn.qualified_name = QualifiedName(prefix + name);
    if (!prefix.empty()) fn.is_method = true;

    ParseParameters(lparen, rparen, &fn.params);

    // Skip the body (and any function-try-block catch groups).
    fn.body_end = SkipBalanced('{', '}');
    while (!AtEnd() && Cur().IsKeyword("catch")) {
      Next();
      if (!AtEnd() && Cur().IsPunct("(")) SkipBalanced('(', ')');
      if (!AtEnd() && Cur().IsPunct("{")) SkipBalanced('{', '}');
    }
    fn.end_line = toks_[fn.body_end].line;

    if (Scope* cls = CurrentClassScope()) {
      ++cls->type->method_count;
      if (cls->is_public) ++cls->type->public_method_count;
    }
    model_->functions.push_back(std::move(fn));
  }

  void ParseParameters(std::size_t lparen, std::size_t rparen,
                       std::vector<ParamModel>* out) {
    if (rparen <= lparen + 1) return;  // ()
    // Split the span (lparen, rparen) on top-level commas.
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::size_t start = lparen + 1;
    int paren = 0, angle = 0, brace = 0, bracket = 0;
    for (std::size_t j = lparen + 1; j < rparen; ++j) {
      const Token& t = toks_[j];
      if (t.IsPunct("(")) ++paren;
      if (t.IsPunct(")")) --paren;
      if (t.IsPunct("{")) ++brace;
      if (t.IsPunct("}")) --brace;
      if (t.IsPunct("[")) ++bracket;
      if (t.IsPunct("]")) --bracket;
      if (t.IsPunct("<")) ++angle;
      if (t.IsPunct(">") && angle > 0) --angle;
      if (t.IsPunct(">>") && angle > 0) angle = std::max(0, angle - 2);
      if (t.IsPunct(",") && paren == 0 && angle == 0 && brace == 0 &&
          bracket == 0) {
        spans.emplace_back(start, j);
        start = j + 1;
      }
    }
    spans.emplace_back(start, rparen);

    for (auto [b, e] : spans) {
      if (b >= e) continue;
      // Single `void` means no parameters.
      if (e == b + 1 && toks_[b].IsKeyword("void")) continue;
      ParamModel p;
      if (e == b + 1 && toks_[b].IsPunct("...")) {
        p.name = "...";
        out->push_back(std::move(p));
        continue;
      }
      // Drop a default argument: truncate at top-level '='.
      std::size_t val_end = e;
      int d_paren = 0, d_angle = 0, d_brace = 0;
      for (std::size_t j = b; j < e; ++j) {
        const Token& t = toks_[j];
        if (t.IsPunct("(")) ++d_paren;
        if (t.IsPunct(")")) --d_paren;
        if (t.IsPunct("{")) ++d_brace;
        if (t.IsPunct("}")) --d_brace;
        if (t.IsPunct("<")) ++d_angle;
        if (t.IsPunct(">") && d_angle > 0) --d_angle;
        if (t.IsPunct("=") && d_paren == 0 && d_angle == 0 && d_brace == 0) {
          val_end = j;
          break;
        }
      }
      // Name = the last identifier in the span (skipping trailing []).
      std::size_t name_idx = val_end;
      std::size_t j = val_end;
      while (j > b) {
        --j;
        if (toks_[j].IsPunct("]") || toks_[j].IsPunct("[")) continue;
        if (toks_[j].IsIdentifier()) {
          name_idx = j;
          p.name = toks_[j].text;
        }
        break;
      }
      for (std::size_t q = b; q < val_end; ++q) {
        if (q == name_idx && !p.name.empty()) continue;
        if (!p.type_text.empty()) p.type_text += ' ';
        p.type_text += toks_[q].text;
      }
      out->push_back(std::move(p));
    }
  }

  void RecordGlobalIfPlausible(std::size_t decl_begin, std::size_t decl_end,
                               bool is_static, bool is_extern, bool is_const,
                               bool has_init) {
    if (decl_end <= decl_begin) return;
    // Need at least `type name` (2 tokens), name must be an identifier.
    if (decl_end - decl_begin < 2) return;
    // Find the last identifier before decl_end (skip array brackets).
    std::size_t j = decl_end;
    std::string name;
    std::int32_t line = 0;
    while (j > decl_begin) {
      --j;
      const Token& t = toks_[j];
      if (t.IsPunct("]") || t.IsPunct("[") || t.kind == TokenKind::kNumber) {
        continue;
      }
      if (t.IsIdentifier()) {
        name = t.text;
        line = t.line;
      }
      break;
    }
    if (name.empty()) return;
    // Reject runs containing control keywords or 'return' (defensive).
    for (std::size_t q = decl_begin; q < decl_end; ++q) {
      const Token& t = toks_[q];
      if (t.IsKeyword("return") || t.IsKeyword("if") || t.IsKeyword("goto") ||
          t.IsKeyword("friend")) {
        return;
      }
    }
    // Inside a class scope, this is a data member, not a global.
    if (Scope* cls = CurrentClassScope()) {
      ++cls->type->field_count;
      return;
    }
    GlobalVarModel g;
    g.name = name;
    g.qualified_name = QualifiedName(name);
    g.line = line;
    g.is_static = is_static;
    g.is_const = is_const;
    g.is_extern_decl = is_extern && !has_init;
    g.has_initializer = has_init;
    model_->globals.push_back(std::move(g));
  }

  // --- cast detection (whole-file token scan) --------------------------------

  void DetectCasts() {
    const auto& toks = toks_;
    for (std::size_t j = 0; j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind == TokenKind::kKeyword) {
        CastKind kind;
        if (t.text == "static_cast") {
          kind = CastKind::kStaticCast;
        } else if (t.text == "dynamic_cast") {
          kind = CastKind::kDynamicCast;
        } else if (t.text == "reinterpret_cast") {
          kind = CastKind::kReinterpretCast;
        } else if (t.text == "const_cast") {
          kind = CastKind::kConstCast;
        } else if (IsFundamentalTypeKeyword(t.text) && j + 1 < toks.size() &&
                   toks[j + 1].IsPunct("(") &&
                   (j == 0 || !IsTypePosition(toks[j - 1]))) {
          // Functional cast like `int(x)` — but not `unsigned int(x)` counted
          // twice, and not declarations like `void f(`.
          if (t.text != "void" &&
              !(j + 2 < toks.size() && toks[j + 2].IsPunct(")"))) {
            CastModel c;
            c.kind = CastKind::kFunctional;
            c.line = t.line;
            c.target_text = t.text;
            model_->casts.push_back(std::move(c));
          }
          continue;
        } else {
          continue;
        }
        CastModel c;
        c.kind = kind;
        c.line = t.line;
        // Target type between '<' and matching '>'.
        if (j + 1 < toks.size() && toks[j + 1].IsPunct("<")) {
          int depth = 0;
          for (std::size_t q = j + 1; q < toks.size(); ++q) {
            if (toks[q].IsPunct("<")) ++depth;
            if (toks[q].IsPunct(">")) {
              --depth;
              if (depth == 0) break;
            }
            if (depth >= 1 && q > j + 1) {
              if (!c.target_text.empty()) c.target_text += ' ';
              c.target_text += toks[q].text;
            }
          }
        }
        model_->casts.push_back(std::move(c));
        continue;
      }
      if (t.IsPunct("(")) {
        DetectCStyleCastAt(j);
      }
    }
  }

  static bool IsTypePosition(const Token& prev) {
    // Token kinds after which a fundamental-type keyword begins a declaration
    // rather than a functional cast.
    return prev.kind == TokenKind::kKeyword || prev.IsPunct(",") ||
           prev.IsPunct("(") || prev.IsPunct(";") || prev.IsPunct("{") ||
           prev.IsPunct("<");
  }

  void DetectCStyleCastAt(std::size_t lparen) {
    const auto& toks = toks_;
    // Exclude call-position parens.
    if (lparen > 0) {
      const Token& p = toks[lparen - 1];
      if (p.IsIdentifier() || p.IsPunct(")") || p.IsPunct("]") ||
          p.kind == TokenKind::kNumber || p.kind == TokenKind::kString ||
          p.IsKeyword("sizeof") || p.IsKeyword("alignof") ||
          p.IsKeyword("if") || p.IsKeyword("while") || p.IsKeyword("for") ||
          p.IsKeyword("switch") || p.IsKeyword("catch") ||
          p.IsKeyword("this") || p.IsKeyword("noexcept") ||
          p.IsKeyword("decltype") || p.IsKeyword("alignas") ||
          p.IsKeyword("operator") || p.IsPunct(">")) {
        return;
      }
    }
    // Content must be purely type-ish and contain a type name.
    int depth = 0;
    std::size_t rparen = 0;
    bool typeish = true;
    bool has_type_name = false;
    bool has_star_or_amp = false;
    std::string text;
    for (std::size_t q = lparen; q < toks.size(); ++q) {
      const Token& t = toks[q];
      if (t.IsPunct("(")) {
        ++depth;
        if (depth > 1) {
          typeish = false;
          break;
        }
        continue;
      }
      if (t.IsPunct(")")) {
        --depth;
        if (depth == 0) {
          rparen = q;
          break;
        }
        continue;
      }
      const bool ok =
          t.IsIdentifier() ||
          (t.kind == TokenKind::kKeyword && TypeishKeywords().contains(t.text)) ||
          t.IsPunct("::") || t.IsPunct("<") || t.IsPunct(">") ||
          t.IsPunct("*") || t.IsPunct("&") || t.IsPunct("[") ||
          t.IsPunct("]") || t.kind == TokenKind::kNumber;
      if (!ok) {
        typeish = false;
        break;
      }
      if (t.IsIdentifier() ||
          (t.kind == TokenKind::kKeyword && TypeishKeywords().contains(t.text) &&
           t.text != "const" && t.text != "volatile")) {
        has_type_name = true;
      }
      if (t.IsPunct("*") || t.IsPunct("&")) has_star_or_amp = true;
      if (!text.empty()) text += ' ';
      text += t.text;
    }
    if (!typeish || rparen == 0 || !has_type_name) return;
    // `(void)expr` is the conventional discard idiom, not a conversion.
    if (rparen == lparen + 2 && toks[lparen + 1].IsKeyword("void")) return;
    if (rparen + 1 >= toks.size()) return;
    const Token& next = toks[rparen + 1];
    // The casted expression must follow immediately.
    const bool expr_follows =
        next.IsIdentifier() || next.kind == TokenKind::kNumber ||
        next.kind == TokenKind::kString || next.kind == TokenKind::kChar ||
        next.IsPunct("(") || next.IsKeyword("new") || next.IsKeyword("this") ||
        next.IsKeyword("sizeof");
    if (!expr_follows) return;
    // `(identifier) (x)` with a bare identifier and no '*' is too ambiguous
    // (could be a call through a parenthesized name) — require either a
    // pointer/reference decoration, a qualified name, multiple tokens, or a
    // fundamental type keyword, to keep precision high.
    const std::size_t content_tokens = rparen - lparen - 1;
    if (content_tokens == 1 && toks[lparen + 1].IsIdentifier() &&
        !has_star_or_amp && !next.IsPunct("(") &&
        next.kind != TokenKind::kNumber) {
      // Accept single-identifier casts only before literals: `(T)3`.
      return;
    }
    CastModel c;
    c.kind = CastKind::kCStyle;
    c.line = toks[lparen].line;
    c.target_text = text;
    model_->casts.push_back(std::move(c));
  }

  SourceFileModel* model_;
  const std::vector<Token>& toks_;
  std::size_t i_ = 0;
  std::vector<Scope> scopes_;
};

}  // namespace

const char* CastKindName(CastKind kind) {
  switch (kind) {
    case CastKind::kStaticCast:
      return "static_cast";
    case CastKind::kDynamicCast:
      return "dynamic_cast";
    case CastKind::kReinterpretCast:
      return "reinterpret_cast";
    case CastKind::kConstCast:
      return "const_cast";
    case CastKind::kCStyle:
      return "c-style";
    case CastKind::kFunctional:
      return "functional";
  }
  return "unknown";
}

const char* TypeKindName(TypeKind kind) {
  constexpr const char* kNames[kNumTypeKinds] = {"class", "struct", "union",
                                                 "enum"};
  return kNames[static_cast<int>(kind)];
}

std::string ValidateTokenRanges(const SourceFileModel& model) {
  const std::size_t tokens = model.lexed.tokens.size();
  const bool in_order = std::all_of(
      model.functions.begin(), model.functions.end(),
      [tokens](const FunctionModel& fn) {
        return fn.sig_begin <= fn.lparen && fn.lparen <= fn.body_begin &&
               fn.body_begin <= fn.body_end && fn.body_end < tokens;
      });
  return in_order ? ""
                  : "a function's token range is out of order or leaves the "
                    "token stream";
}

support::Result<SourceFileModel> ParseSource(std::string path,
                                             std::string_view source,
                                             const ParseOptions& options) {
  auto lexed = lex::Lex(path, source, options.lex_options);
  if (!lexed.ok()) return lexed.status();
  SourceFileModel model;
  model.path = std::move(path);
  model.lexed = std::move(lexed).value();
  Parser parser(&model);
  parser.Run();
  return model;
}

support::Result<SourceFileModel> ParseFile(const std::string& path,
                                           const ParseOptions& options) {
  auto content = support::ReadFile(path);
  if (!content.ok()) return content.status();
  return ParseSource(path, content.value(), options);
}

}  // namespace certkit::ast

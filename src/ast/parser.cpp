#include "ast/parser.h"

#include <algorithm>

#include "support/check.h"
#include "support/strings.h"

namespace certkit::ast {

namespace {

using lex::kIdChar;
using lex::kIdIdentifier;
using lex::kIdNumber;
using lex::kIdString;
using lex::Nesting;
using lex::Tok;
using lex::Token;
using lex::TokenId;
using lex::TokenKind;
using lex::TokenSet;

constexpr TokenSet kOpeners = {Tok("("), Tok("["), Tok("{")};
constexpr TokenSet kClassKeys = {Tok("class"), Tok("struct"), Tok("union")};
constexpr TokenSet kAccessSpecifiers = {Tok("public"), Tok("private"),
                                        Tok("protected")};
// Declarations the parser counts or steps over without recording.
constexpr TokenSet kSkippedHeads = {Tok("using"), Tok("typedef"),
                                    Tok("template"), Tok("static_assert")};
constexpr TokenSet kConstSpecifiers = {Tok("const"), Tok("constexpr")};
// Where a declarator run is decided: a scope closer, a declaration's end,
// an initializer, or a parameter list.
constexpr TokenSet kDeclaratorEnds = {Tok("}"), Tok(";"), Tok("="), Tok("{"),
                                      Tok("(")};
constexpr TokenSet kSignatureEnds = {Tok("{"), Tok(";"), Tok("=")};
constexpr TokenSet kBodyOrEnd = {Tok("{"), Tok(";")};
constexpr TokenSet kAliasOrEnd = {Tok("="), Tok(";")};
constexpr TokenSet kOperatorSymbolEnds = {Tok("("), Tok(";"), Tok("{")};
constexpr TokenSet kTypeBodyStarts = {Tok("{"), Tok(":")};
constexpr TokenSet kTrailingQualifiers = {Tok("const"), Tok("noexcept"),
                                          Tok("volatile"), Tok("throw")};
constexpr TokenSet kArrayBrackets = {Tok("["), Tok("]")};
constexpr TokenSet kArrayExtent = {Tok("["), Tok("]"), kIdNumber};
// Keywords that show a run is a statement, not a variable declaration.
constexpr TokenSet kNotInDeclarations = {Tok("return"), Tok("if"), Tok("goto"),
                                         Tok("friend")};
constexpr TokenSet kNamedCasts = {Tok("static_cast"), Tok("dynamic_cast"),
                                  Tok("reinterpret_cast"), Tok("const_cast")};
// Before '(', these make a functional cast like `int(x)`.
constexpr TokenSet kFundamentalTypes = {
    Tok("char"),     Tok("short"),    Tok("int"),     Tok("long"),
    Tok("float"),    Tok("double"),   Tok("bool"),    Tok("void"),
    Tok("wchar_t"),  Tok("char8_t"),  Tok("char16_t"), Tok("char32_t"),
    Tok("signed"),   Tok("unsigned")};
// Punctuators after which a fundamental-type keyword begins a declaration
// (as after any keyword) rather than a functional cast.
constexpr TokenSet kTypePositionPuncts = {Tok(","), Tok("("), Tok(";"),
                                          Tok("{"), Tok("<")};
// Tokens before a '(' that make it a call, condition or operator operand,
// not a C-style cast.
constexpr TokenSet kCallPositionPrev = {
    kIdIdentifier,  kIdNumber,     kIdString,       Tok(")"),
    Tok("]"),       Tok(">"),      Tok("sizeof"),   Tok("alignof"),
    Tok("if"),      Tok("while"),  Tok("for"),      Tok("switch"),
    Tok("catch"),   Tok("this"),   Tok("noexcept"), Tok("decltype"),
    Tok("alignas"), Tok("operator")};
// What names a type in a C-style cast's parentheses, and what else they may
// hold.
constexpr TokenSet kCastTypeNames =
    kFundamentalTypes | TokenSet{kIdIdentifier, Tok("struct"), Tok("enum"),
                                 Tok("union"), Tok("auto")};
constexpr TokenSet kCastTypeTokens =
    kCastTypeNames | TokenSet{kIdNumber, Tok("const"), Tok("volatile"),
                              Tok("::"), Tok("<"), Tok(">"), Tok("*"),
                              Tok("&"), Tok("["), Tok("]")};
// What may start the operand right after a C-style cast's ')'.
constexpr TokenSet kCastOperandStart = {kIdIdentifier, kIdNumber, kIdString,
                                        kIdChar,       Tok("("),  Tok("new"),
                                        Tok("this"),   Tok("sizeof")};

// How a token moves template-bracket depth: '<' opens one, '>' closes one
// and '>>' two.
int AngleStep(TokenId id) {
  return id == Tok("<") ? 1 : id == Tok(">") ? -1 : id == Tok(">>") ? -2 : 0;
}

CastKind NamedCastKind(TokenId id) {
  return id == Tok("static_cast")        ? CastKind::kStaticCast
         : id == Tok("dynamic_cast")     ? CastKind::kDynamicCast
         : id == Tok("reinterpret_cast") ? CastKind::kReinterpretCast
                                         : CastKind::kConstCast;
}

// What a declarator run has shown before its decision point.
struct Declarator {
  std::size_t begin = 0;  // first token of the run
  bool is_static = false;
  bool is_extern = false;
  bool is_const = false;
  bool is_cuda_global = false;
  bool is_cuda_device = false;
  bool is_operator = false;

  void Note(TokenId id) {
    is_static |= id == Tok("static");
    is_extern |= id == Tok("extern");
    is_const |= kConstSpecifiers.contains(id);
    is_cuda_global |= id == Tok("__global__");
    is_cuda_device |= id == Tok("__device__");
  }
};

// The parenthesized tokens after a '(' that may spell a cast's type.
struct CastType {
  std::size_t rparen = 0;  // the ')' that ends them; 0 when none does
  bool names_type = false;
  bool decorated = false;  // holds '*' or '&'
  std::string text;
};

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
    // For class scopes, the type's index in model_->types: an index, not a
    // pointer, because a nested type added later may reallocate the vector.
    std::size_t type = 0;
    bool is_public = true;  // current access for class scopes
  };

  // --- token cursor helpers -------------------------------------------------

  bool AtEnd() const { return i_ >= toks_.size(); }
  const Token& Cur() const { return toks_[i_]; }
  bool IsAt(std::size_t k, TokenId id) const {
    return k < toks_.size() && toks_[k].id == id;
  }
  bool CurIs(TokenId id) const { return IsAt(i_, id); }
  bool AtAttribute() const { return CurIs(Tok("[")) && IsAt(i_ + 1, Tok("[")); }
  void Next() { ++i_; }
  void SkipIf(TokenId id) {
    if (CurIs(id)) Next();
  }
  void SkipUntil(TokenSet stops) {
    while (!AtEnd() && !stops.contains(Cur().id)) Next();
  }

  // Skips the balanced group opened at the cursor ('(', '[' or '{') and
  // returns the index of its closer — the last token when it has none (the
  // fuzzy contract: never crash on malformed input).
  std::size_t SkipBalanced() {
    CERTKIT_CHECK(!AtEnd() && kOpeners.contains(Cur().id));
    const std::size_t close = lex::MatchingClose(toks_, i_, toks_.size() - 1);
    i_ = close + 1;
    return close;
  }

  // Skips a template header: cursor is at "template"; consumes `template
  // < ... >`.
  void SkipTemplateHeader() {
    CERTKIT_CHECK(CurIs(Tok("template")));
    Next();
    if (CurIs(Tok("<"))) SkipAngles(/*header=*/true);
  }

  // Skips template brackets from the '<' at the cursor past their closer
  // ('>>' closes two), stepping over parenthesized groups. A template
  // header counts '<<' as two openers; template arguments end unconsumed at
  // ';' or '{' (not template arguments after all).
  void SkipAngles(bool header) {
    CERTKIT_CHECK(CurIs(Tok("<")));
    int depth = 0;
    bool open = true;
    while (open && !AtEnd() && (header || !kBodyOrEnd.contains(Cur().id))) {
      if (CurIs(Tok("("))) {
        SkipBalanced();
      } else {
        const int step =
            AngleStep(Cur().id) + (header && CurIs(Tok("<<")) ? 2 : 0);
        depth += step;
        open = step >= 0 || depth > 0;
        Next();
      }
    }
  }

  // Skips to the next ';' at depth 0, balancing (), {}, [].
  void SkipToSemicolon() {
    while (!AtEnd() && !CurIs(Tok(";")) && !CurIs(Tok("}"))) {
      if (kOpeners.contains(Cur().id)) {
        SkipBalanced();
      } else {
        Next();
      }
    }
    SkipIf(Tok(";"));  // a stray '}' is left for the caller's scope pop
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
    return !scopes_.empty() && scopes_.back().kind == Scope::Kind::kClass
               ? &scopes_.back()
               : nullptr;
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
            d.tokens.size() > 1 && d.tokens[1].id == Tok("(") &&
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
    const TokenId id = Cur().id;
    if (id == Tok("}")) {
      CloseScope();
    } else if (id == Tok(";")) {
      Next();
    } else if (kSkippedHeads.contains(id)) {
      SkipDeclarationHead(id);
    } else if (kAccessSpecifiers.contains(id)) {
      ParseAccessSpecifier();
    } else if (!TryParseScopeOrType(id)) {
      ParseDeclarationish();
    }
  }

  void CloseScope() {
    if (!scopes_.empty()) scopes_.pop_back();
    Next();
    // Class definitions end with "};" — consume the semicolon if present.
    SkipIf(Tok(";"));
  }

  void SkipDeclarationHead(TokenId id) {
    if (id == Tok("template")) {
      SkipTemplateHeader();  // the templated entity is parsed next
    } else {
      if (id == Tok("typedef")) ++model_->typedef_count;
      if (id == Tok("using")) CountUsing();
      SkipToSemicolon();
    }
  }

  void CountUsing() {
    if (IsAt(i_ + 1, Tok("namespace"))) {
      ++model_->using_namespace_count;
    } else {
      // `using A = B;` is an alias; `using ns::foo;` is a using-decl.
      std::size_t k = i_ + 1;
      while (k < toks_.size() && !kAliasOrEnd.contains(toks_[k].id)) ++k;
      if (IsAt(k, Tok("="))) ++model_->typedef_count;
    }
  }

  void ParseAccessSpecifier() {
    if (Scope* cls = CurrentClassScope()) {
      cls->is_public = CurIs(Tok("public"));
    }
    Next();
    SkipIf(Tok(":"));
  }

  // Namespaces, `inline namespace`, `extern "C"` blocks and type
  // definitions; false, with the cursor unchanged, when the tokens at the
  // cursor open none of them.
  bool TryParseScopeOrType(TokenId id) {
    bool parsed = true;
    if (id == Tok("namespace")) {
      ParseNamespace();
    } else if (id == Tok("enum")) {
      ParseEnum();
    } else if (kClassKeys.contains(id)) {
      // An elaborated type in a declaration is not a definition.
      parsed = TryParseTypeDefinition();
    } else if (id == Tok("inline") && IsAt(i_ + 1, Tok("namespace"))) {
      Next();  // `inline namespace`: the namespace handling takes over
    } else if (id == Tok("extern") && IsAt(i_ + 1, kIdString)) {
      ParseExternC();
    } else {
      parsed = false;
    }
    return parsed;
  }

  void ParseExternC() {
    Next();  // extern
    Next();  // "C"
    if (CurIs(Tok("{"))) {
      scopes_.push_back({Scope::Kind::kExternC, "", 0, true});
      Next();
    }
  }

  void ParseNamespace() {
    CERTKIT_CHECK(CurIs(Tok("namespace")));
    Next();
    std::string name;
    // namespace a::b::c { ... } or anonymous namespace.
    while (CurIs(kIdIdentifier) || CurIs(Tok("::"))) {
      name += Cur().text;
      Next();
    }
    if (CurIs(Tok("{"))) {
      scopes_.push_back({Scope::Kind::kNamespace, name, 0, true});
      Next();
    } else if (!AtEnd()) {
      SkipToSemicolon();  // namespace alias or malformed
    }
  }

  // Cursor at class/struct/union. Returns true if a *definition* was parsed
  // (scope pushed, or a malformed head skipped); false if this is an
  // elaborated type specifier in a declaration (cursor unchanged).
  bool TryParseTypeDefinition() {
    std::string name;
    const std::size_t k = PastTypeHead(i_ + 1, &name);
    // Definition iff next is '{' or ':' (base clause).
    const bool definition =
        k < toks_.size() && kTypeBodyStarts.contains(toks_[k].id);
    if (definition) OpenTypeBody(k, name);
    return definition;
  }

  // Past a class head's attributes, name, template arguments and `final`,
  // from `k`, just after the class key.
  std::size_t PastTypeHead(std::size_t k, std::string* name) const {
    while (IsAt(k, Tok("[")) && IsAt(k + 1, Tok("["))) {
      k = lex::MatchingClose(toks_, k, toks_.size() - 1) + 1;
    }
    if (IsAt(k, kIdIdentifier)) {
      *name = toks_[k].text;
      ++k;
      // Skip template-id arguments in specializations: Name<...>.
      if (IsAt(k, Tok("<"))) k = PastTemplateArgs(k);
    }
    // `final` contextual keyword.
    if (IsAt(k, kIdIdentifier) && toks_[k].text == "final") ++k;
    return k;
  }

  std::size_t PastTemplateArgs(std::size_t k) const {
    int depth = 0;
    bool open = true;
    for (; open && k < toks_.size(); ++k) {
      const int step = AngleStep(toks_[k].id);
      depth += step;
      open = step >= 0 || depth > 0;
    }
    return k;
  }

  // Skips the base clause from `k` to the body's '{' and opens the type's
  // scope; a ';' first is malformed and skipped.
  void OpenTypeBody(std::size_t k, const std::string& name) {
    const Token& kw = Cur();
    while (k < toks_.size() && !kBodyOrEnd.contains(toks_[k].id)) ++k;
    if (IsAt(k, Tok("{"))) {
      const TypeKind kind = kw.id == Tok("class")    ? TypeKind::kClass
                            : kw.id == Tok("struct") ? TypeKind::kStruct
                                                     : TypeKind::kUnion;
      scopes_.push_back({Scope::Kind::kClass, name,
                         AddType(kind, name, kw.line),
                         kind != TypeKind::kClass});
    }
    i_ = std::min(k + 1, toks_.size());
  }

  std::size_t AddType(TypeKind kind, const std::string& name,
                      std::int32_t line) {
    TypeModel& tm = model_->types.emplace_back();
    tm.kind = kind;
    tm.name = name.empty() ? "<anonymous>" : name;
    tm.qualified_name = QualifiedName(tm.name);
    tm.line = line;
    return model_->types.size() - 1;
  }

  void ParseEnum() {
    CERTKIT_CHECK(CurIs(Tok("enum")));
    const std::int32_t line = Cur().line;
    Next();
    if (CurIs(Tok("class")) || CurIs(Tok("struct"))) Next();
    std::string name;
    if (CurIs(kIdIdentifier)) {
      name = Cur().text;
      Next();
    }
    if (CurIs(Tok(":"))) SkipUntil(kBodyOrEnd);  // underlying type
    if (CurIs(Tok("{"))) {
      AddType(TypeKind::kEnum, name, line);
      SkipBalanced();
    }
    SkipIf(Tok(";"));
  }

  // --- declarations and function definitions --------------------------------

  // Parses one declaration-ish run at namespace/class scope. Decides between
  // function definition, function/variable declaration, and variable
  // definition.
  void ParseDeclarationish() {
    Declarator decl;
    decl.begin = i_;
    // Walk tokens at depth 0 until a decision point.
    while (!AtEnd() && !kDeclaratorEnds.contains(Cur().id)) {
      decl.Note(Cur().id);
      StepInDeclarator(&decl);
    }
    if (!AtEnd()) Decide(decl);
  }

  // One step through a declarator run: past `operator` and its symbol, an
  // attribute or array declarator, template arguments (e.g. of a return
  // type std::vector<int>), or one token.
  void StepInDeclarator(Declarator* decl) {
    const TokenId id = Cur().id;
    if (id == Tok("operator")) {
      decl->is_operator = true;
      SkipOperatorSymbol();
    } else if (id == Tok("[")) {
      SkipBalanced();
    } else if (id == Tok("<")) {
      SkipAngles(/*header=*/false);
    } else {
      Next();
    }
  }

  void SkipOperatorSymbol() {
    Next();  // operator
    // operator() — the symbol itself is a paren pair; absorb it so the
    // following parens are the parameter list.
    if (CurIs(Tok("(")) && IsAt(i_ + 1, Tok(")"))) {
      Next();
      Next();
    }
    // Absorb the remaining operator symbol: puncts, or new/delete, or a
    // conversion-operator type (identifiers); stop at '('.
    SkipUntil(kOperatorSymbolEnds);
  }

  // The cursor is at the token that decides the declarator run at
  // `decl.begin`: a scope closer (left to the top-level loop), a ';' or an
  // initializer after a variable, or a parameter list.
  void Decide(const Declarator& decl) {
    const TokenId id = Cur().id;
    if (id == Tok("(")) {
      HandleParenInDeclarator(decl);
    } else if (id != Tok("}")) {
      // `int x;`, `int x = 3;` or `int x{3};` (or something we do not
      // understand): record, then skip.
      RecordGlobalIfPlausible(decl, i_, /*has_init=*/id != Tok(";"));
      if (id == Tok("=")) {
        SkipToSemicolon();
      } else if (id == Tok("{")) {
        SkipBalanced();
        SkipIf(Tok(";"));
      } else {
        Next();
      }
    }
  }

  // Cursor at '(' inside a declarator run. Determines whether this is a
  // function definition, declaration, or ctor-style variable init.
  void HandleParenInDeclarator(const Declarator& decl) {
    const std::size_t lparen = i_;
    const std::size_t rparen = SkipBalanced();
    // After the parameter list: qualifiers, then '{', ';', '=', ':' or 'try'.
    while (!AtEnd() && !kSignatureEnds.contains(Cur().id)) {
      StepAfterParameters();
    }
    if (CurIs(Tok("{"))) {
      RecordFunction(decl, lparen, rparen);
    } else if (CurIs(Tok(";"))) {
      Next();  // declaration only — not recorded
    } else if (CurIs(Tok("="))) {
      SkipToSemicolon();  // `= default;` / `= delete;` / pure virtual
    }
  }

  // One step between a parameter list and the token that decides it: a
  // member-initializer list, a qualifier, a trailing return type, an
  // attribute, a second paren group (pointer-to-function variable or macro
  // call), or one token (`try`, which the body follows, or an unknown one:
  // a macro, a K&R parameter).
  void StepAfterParameters() {
    const Token& t = Cur();
    if (t.id == Tok(":")) {
      SkipMemberInitializers();
    } else if (kTrailingQualifiers.contains(t.id) ||
               (t.IsIdentifier() &&
                (t.text == "override" || t.text == "final"))) {
      Next();
      if (CurIs(Tok("("))) SkipBalanced();
    } else if (t.id == Tok("->")) {
      SkipTrailingReturnType();
    } else if (t.id == Tok("(") || AtAttribute()) {
      SkipBalanced();
    } else {
      Next();
    }
  }

  // A constructor's member-initializer list: `name(...)` or `name{...}`
  // items separated by commas; the first '{' that is not an item
  // initializer opens the body. A ';' (malformed) ends it unconsumed.
  void SkipMemberInitializers() {
    Next();  // ':'
    bool more = true;
    while (more && !AtEnd()) {
      SkipInitializerName();
      if (CurIs(Tok("(")) || CurIs(Tok("{"))) {
        SkipBalanced();
        SkipIf(Tok("..."));  // pack expansion
        // ',' continues the list; anything else (normally '{') ends it.
        more = CurIs(Tok(","));
        SkipIf(Tok(","));
      } else if (!AtEnd() && !CurIs(Tok(";"))) {
        Next();  // a pack expansion or unknown construct: one token
      } else {
        more = false;
      }
    }
  }

  // Skips a member or base name (possibly qualified / templated).
  void SkipInitializerName() {
    while (!AtEnd() && (Cur().kind == TokenKind::kIdentifier ||
                        Cur().kind == TokenKind::kKeyword ||
                        CurIs(Tok("::")))) {
      Next();
    }
    if (CurIs(Tok("<"))) SkipAngles(/*header=*/false);
  }

  void SkipTrailingReturnType() {
    Next();  // '->'
    while (!AtEnd() && !kBodyOrEnd.contains(Cur().id)) {
      if (CurIs(Tok("("))) {
        SkipBalanced();
      } else if (CurIs(Tok("<"))) {
        SkipAngles(/*header=*/false);
      } else {
        Next();
      }
    }
  }

  void RecordFunction(const Declarator& decl, std::size_t lparen,
                      std::size_t rparen) {
    CERTKIT_CHECK(CurIs(Tok("{")));
    FunctionModel fn;
    fn.sig_begin = decl.begin;
    fn.lparen = lparen;
    fn.body_begin = i_;
    fn.start_line = toks_[decl.begin].line;
    fn.returns_void = ReturnsVoid(decl.begin, lparen);
    fn.is_static = decl.is_static;
    fn.is_cuda_kernel = decl.is_cuda_global;
    fn.is_cuda_device = decl.is_cuda_device;
    fn.is_method = std::any_of(scopes_.begin(), scopes_.end(),
                               [](const Scope& s) {
                                 return s.kind == Scope::Kind::kClass;
                               });
    NameFunction(decl, lparen, &fn);
    ParseParameters(lparen, rparen, &fn.params);

    // Skip the body (and any function-try-block catch groups).
    fn.body_end = SkipBalanced();
    while (CurIs(Tok("catch"))) {
      Next();
      if (CurIs(Tok("("))) SkipBalanced();
      if (CurIs(Tok("{"))) SkipBalanced();
    }
    fn.end_line = toks_[fn.body_end].line;

    if (Scope* cls = CurrentClassScope()) {
      TypeModel& type = model_->types[cls->type];
      ++type.method_count;
      if (cls->is_public) ++type.public_method_count;
    }
    model_->functions.push_back(std::move(fn));
  }

  // The return type is plain void iff a `void` keyword appears before the
  // name with no pointer decoration after it.
  bool ReturnsVoid(std::size_t decl_begin, std::size_t lparen) const {
    bool returns_void = false;
    for (std::size_t j = decl_begin; j < lparen; ++j) {
      if (toks_[j].id == Tok("void")) {
        returns_void = true;
      } else if (toks_[j].id == Tok("*") || toks_[j].id == Tok("&")) {
        returns_void = false;
      }
    }
    return returns_void;
  }

  // Sets the (possibly qualified) function name, walking back from lparen.
  void NameFunction(const Declarator& decl, std::size_t lparen,
                    FunctionModel* fn) const {
    std::string prefix;  // out-of-line qualifier, e.g. "Foo::"
    std::string name;
    if (decl.is_operator) {
      name = OperatorName(decl.begin, lparen);
    } else {
      const std::vector<std::string> parts = NameParts(decl.begin, lparen);
      for (std::size_t p = parts.size(); p > 1; --p) {
        prefix += parts[p - 1] + "::";
      }
      if (!parts.empty()) name = parts.front();  // the last component
    }
    if (name.empty()) name = "<anonymous>";
    fn->name = name;
    fn->qualified_name = QualifiedName(prefix + name);
    if (!prefix.empty()) fn->is_method = true;
  }

  // The name runs from the last 'operator' keyword to lparen.
  std::string OperatorName(std::size_t decl_begin, std::size_t lparen) const {
    std::size_t op_idx = decl_begin;
    for (std::size_t j = decl_begin; j < lparen; ++j) {
      if (toks_[j].id == Tok("operator")) op_idx = j;
    }
    std::string name;
    for (std::size_t j = op_idx; j < lparen; ++j) name += toks_[j].text;
    return name;
  }

  // The components of the name just before lparen, last first, walking
  // back over: ident | ~ident | ident<...> | qualified ids.
  std::vector<std::string> NameParts(std::size_t decl_begin,
                                     std::size_t lparen) const {
    std::vector<std::string> parts;
    std::size_t j = lparen;
    bool walking = true;
    while (walking && j > decl_begin) {
      --j;
      const Token& t = toks_[j];
      if (AngleStep(t.id) < 0) {
        j = TemplateArgsStart(j, decl_begin);
      } else if (t.IsIdentifier()) {
        parts.push_back(t.str());
        if (j > decl_begin && toks_[j - 1].id == Tok("~")) {
          parts.back() = "~" + parts.back();
          --j;
        }
        // A '::' before the component continues the qualified id.
        walking = j > decl_begin && toks_[j - 1].id == Tok("::");
        if (walking) --j;
      } else {
        walking = false;  // anything else ends the name walk
      }
    }
    return parts;
  }

  // From the '>' or '>>' at `j`, the '<' that opens its template arguments
  // (or `floor`).
  std::size_t TemplateArgsStart(std::size_t j, std::size_t floor) const {
    for (int depth = -AngleStep(toks_[j].id); depth > 0 && j > floor;) {
      --j;
      depth -= AngleStep(toks_[j].id);
    }
    return j;
  }

  // The first token in [begin, end) that is `delim` outside (), {}, [] and
  // template brackets (`>>` closing two), or `end`.
  std::size_t FindTopLevel(std::size_t begin, std::size_t end,
                           TokenId delim) const {
    int paren = 0, brace = 0, bracket = 0, angle = 0;
    std::size_t j = begin;
    for (; j < end; ++j) {
      const TokenId id = toks_[j].id;
      paren += Nesting(id, Tok("("));
      brace += Nesting(id, Tok("{"));
      bracket += Nesting(id, Tok("["));
      angle = std::max(0, angle + AngleStep(id));
      if (id == delim && paren == 0 && brace == 0 && bracket == 0 &&
          angle == 0) {
        break;
      }
    }
    return j;
  }

  // The last identifier of [begin, end), stepping back over `skipped`
  // tokens; `end` when there is none.
  std::size_t LastNameBefore(std::size_t begin, std::size_t end,
                             TokenSet skipped) const {
    std::size_t j = end;
    while (j > begin && skipped.contains(toks_[j - 1].id)) --j;
    return j > begin && toks_[j - 1].IsIdentifier() ? j - 1 : end;
  }

  void ParseParameters(std::size_t lparen, std::size_t rparen,
                       std::vector<ParamModel>* out) const {
    // Split the span (lparen, rparen) on top-level commas; an empty span
    // or a single `void` is no parameter.
    for (std::size_t b = lparen + 1; b <= rparen;) {
      const std::size_t e = FindTopLevel(b, rparen, Tok(","));
      if (b < e && !(e == b + 1 && toks_[b].id == Tok("void"))) {
        out->push_back(ParseParameter(b, e));
      }
      b = e + 1;
    }
  }

  ParamModel ParseParameter(std::size_t b, std::size_t e) const {
    ParamModel p;
    if (e == b + 1 && toks_[b].id == Tok("...")) {
      p.name = "...";
    } else {
      // Drop a default argument: truncate at top-level '='.
      const std::size_t val_end = FindTopLevel(b, e, Tok("="));
      // Name = the last identifier in the span (skipping trailing []).
      const std::size_t name_idx = LastNameBefore(b, val_end, kArrayBrackets);
      if (name_idx != val_end) p.name = toks_[name_idx].text;
      for (std::size_t q = b; q < val_end; ++q) {
        if (q == name_idx) continue;
        if (!p.type_text.empty()) p.type_text += ' ';
        p.type_text += toks_[q].text;
      }
    }
    return p;
  }

  void RecordGlobalIfPlausible(const Declarator& decl, std::size_t decl_end,
                               bool has_init) {
    // Need at least `type name` (2 tokens), the name (the last identifier,
    // past array brackets) an identifier, and no control keywords or
    // 'return' in the run (defensive).
    const std::size_t name_idx =
        decl_end < decl.begin + 2
            ? decl_end
            : LastNameBefore(decl.begin, decl_end, kArrayExtent);
    bool plausible = name_idx != decl_end;
    for (std::size_t q = decl.begin; plausible && q < decl_end; ++q) {
      plausible = !kNotInDeclarations.contains(toks_[q].id);
    }
    Scope* cls = CurrentClassScope();
    if (plausible && cls != nullptr) {
      ++model_->types[cls->type].field_count;  // a data member, not a global
    } else if (plausible) {
      RecordGlobal(decl, name_idx, has_init);
    }
  }

  void RecordGlobal(const Declarator& decl, std::size_t name_idx,
                    bool has_init) {
    GlobalVarModel g;
    g.name = toks_[name_idx].text;
    g.qualified_name = QualifiedName(g.name);
    g.line = toks_[name_idx].line;
    g.is_static = decl.is_static;
    g.is_const = decl.is_const;
    g.is_extern_decl = decl.is_extern && !has_init;
    g.has_initializer = has_init;
    model_->globals.push_back(std::move(g));
  }

  // --- cast detection (whole-file token scan) --------------------------------

  void DetectCasts() {
    for (std::size_t j = 0; j < toks_.size(); ++j) {
      const TokenId id = toks_[j].id;
      if (kNamedCasts.contains(id)) {
        RecordNamedCast(j);
      } else if (kFundamentalTypes.contains(id)) {
        DetectFunctionalCastAt(j);
      } else if (id == Tok("(")) {
        DetectCStyleCastAt(j);
      }
    }
  }

  void RecordNamedCast(std::size_t j) {
    CastModel c;
    c.kind = NamedCastKind(toks_[j].id);
    c.line = toks_[j].line;
    if (IsAt(j + 1, Tok("<"))) c.target_text = NamedCastTarget(j + 1);
    model_->casts.push_back(std::move(c));
  }

  // The target type's text, between the '<' at `lt` and the '>' or '>>'
  // that closes it (PastTemplateArgs's scan); a '>>' that closes a nested
  // argument list as well stays in the text, as in parameter types.
  std::string NamedCastTarget(std::size_t lt) const {
    std::size_t end = PastTemplateArgs(lt);
    if (toks_[end - 1].id == Tok(">")) --end;  // a lone closer is not text
    std::string text;
    for (std::size_t q = lt + 1; q < end; ++q) {
      if (!text.empty()) text += ' ';
      text += toks_[q].text;
    }
    return text;
  }

  // Functional cast like `int(x)` — but not `unsigned int(x)` counted
  // twice, not declarations like `void f(`, and not `int()`.
  void DetectFunctionalCastAt(std::size_t j) {
    const bool cast_position =
        IsAt(j + 1, Tok("(")) && (j == 0 || !IsTypePosition(toks_[j - 1]));
    if (cast_position && toks_[j].id != Tok("void") &&
        !IsAt(j + 2, Tok(")"))) {
      CastModel c;
      c.kind = CastKind::kFunctional;
      c.line = toks_[j].line;
      c.target_text = toks_[j].text;
      model_->casts.push_back(std::move(c));
    }
  }

  static bool IsTypePosition(const Token& prev) {
    return prev.kind == TokenKind::kKeyword ||
           kTypePositionPuncts.contains(prev.id);
  }

  void DetectCStyleCastAt(std::size_t lparen) {
    if (lparen > 0 && kCallPositionPrev.contains(toks_[lparen - 1].id)) {
      return;
    }
    CastType type = ScanCastType(lparen);
    if (IsCStyleCast(lparen, type)) {
      CastModel c;
      c.kind = CastKind::kCStyle;
      c.line = toks_[lparen].line;
      c.target_text = std::move(type.text);
      model_->casts.push_back(std::move(c));
    }
  }

  // Content must be purely type-ish: the tokens after lparen while they
  // may spell a type, and the ')' that ends them, if one does.
  CastType ScanCastType(std::size_t lparen) const {
    CastType type;
    std::size_t q = lparen + 1;
    for (; q < toks_.size() && kCastTypeTokens.contains(toks_[q].id); ++q) {
      const Token& t = toks_[q];
      type.names_type |= kCastTypeNames.contains(t.id);
      type.decorated |= t.id == Tok("*") || t.id == Tok("&");
      if (!type.text.empty()) type.text += ' ';
      type.text += t.text;
    }
    if (IsAt(q, Tok(")"))) type.rparen = q;
    return type;
  }

  // A type that names a type, closed by ')' before the casted expression —
  // not `(void)expr`, the conventional discard idiom. `(identifier) (x)`
  // with a bare identifier and no '*' is too ambiguous (could be a call
  // through a parenthesized name): a lone identifier is accepted only
  // before a number or '(' — `(T)3` — to keep precision high.
  bool IsCStyleCast(std::size_t lparen, const CastType& type) const {
    const std::size_t r = type.rparen;
    const bool lone = r == lparen + 2;
    const bool discard = lone && toks_[lparen + 1].id == Tok("void");
    const bool bare_name =
        lone && toks_[lparen + 1].IsIdentifier() && !type.decorated;
    return r != 0 && r + 1 < toks_.size() && type.names_type && !discard &&
           CastOperandFollows(toks_[r + 1], bare_name);
  }

  static bool CastOperandFollows(const Token& next, bool bare_name) {
    return kCastOperandStart.contains(next.id) &&
           (!bare_name || next.id == Tok("(") || next.id == kIdNumber);
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

}  // namespace certkit::ast

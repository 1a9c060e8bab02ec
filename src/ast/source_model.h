// certkit ast: the source model produced by the fuzzy parser.
//
// The parser is deliberately *fuzzy* in the tradition of Lizard and other
// lightweight analyzers: it recognizes the structural skeleton of C/C++/CUDA
// translation units (namespaces, types, function definitions, file-scope
// variables, casts) from the raw token stream without preprocessing or
// semantic analysis. It tolerates and skips constructs it does not
// understand. This matches the tooling used in the paper and makes the
// analyzer usable on arbitrary, unbuildable source snapshots.
#ifndef CERTKIT_AST_SOURCE_MODEL_H_
#define CERTKIT_AST_SOURCE_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lex/token.h"
#include "support/record.h"

namespace certkit::ast {

struct ParamModel {
  std::string type_text;  // e.g. "const std::string &"
  std::string name;       // may be empty (unnamed parameter)

  // The persisted form (support/record.h), here and below.
  template <class Io, class Self>
  static void Fields(Io& io, Self& p) {
    io("type_text", p.type_text);
    io("name", p.name);
  }
};

struct FunctionModel {
  std::string name;            // unqualified; "operator+" for operators
  std::string qualified_name;  // scope-qualified, e.g. "ns::Class::name"
  std::vector<ParamModel> params;
  std::int32_t start_line = 0;  // line of the first signature token
  std::int32_t end_line = 0;    // line of the closing brace
  // Token index ranges into LexedFile::tokens:
  std::size_t sig_begin = 0;   // first token of the declarator run
  std::size_t lparen = 0;      // index of the parameter-list '('
  std::size_t body_begin = 0;  // index of '{'
  std::size_t body_end = 0;    // index of matching '}' (inclusive)
  bool returns_void = false;   // declared return type is plain `void`
  bool is_method = false;       // defined lexically inside a class/struct
  bool is_cuda_kernel = false;  // declared __global__
  bool is_cuda_device = false;  // declared __device__
  bool is_static = false;

  template <class Io, class Self>
  static void Fields(Io& io, Self& f) {
    io("name", f.name);
    io("qualified_name", f.qualified_name);
    io("params", f.params);
    io("start_line", f.start_line);
    io("end_line", f.end_line);
    io("sig_begin", f.sig_begin);
    io("lparen", f.lparen);
    io("body_begin", f.body_begin);
    io("body_end", f.body_end);
    io("flags", support::PackBits(f.returns_void, f.is_method,
                                  f.is_cuda_kernel, f.is_cuda_device,
                                  f.is_static));
  }
};

enum class TypeKind { kClass, kStruct, kUnion, kEnum };
inline constexpr int kNumTypeKinds = 4;

const char* TypeKindName(TypeKind kind);

struct TypeModel {
  TypeKind kind = TypeKind::kClass;
  std::string name;
  std::string qualified_name;
  std::int32_t line = 0;
  std::int32_t method_count = 0;       // member functions defined inline
  std::int32_t field_count = 0;        // data members (heuristic)
  std::int32_t public_method_count = 0;

  template <class Io, class Self>
  static void Fields(Io& io, Self& t) {
    io("kind", support::Named{t.kind, TypeKindName, kNumTypeKinds});
    io("name", t.name);
    io("qualified_name", t.qualified_name);
    io("line", t.line);
    io("method_count", t.method_count);
    io("field_count", t.field_count);
    io("public_method_count", t.public_method_count);
  }
};

struct GlobalVarModel {
  std::string name;
  std::string qualified_name;
  std::int32_t line = 0;
  bool is_static = false;     // internal linkage
  bool is_const = false;      // const/constexpr (not counted as mutable state)
  bool is_extern_decl = false;
  bool has_initializer = false;

  template <class Io, class Self>
  static void Fields(Io& io, Self& g) {
    io("name", g.name);
    io("qualified_name", g.qualified_name);
    io("line", g.line);
    io("flags", support::PackBits(g.is_static, g.is_const, g.is_extern_decl,
                                  g.has_initializer));
  }
};

enum class CastKind {
  kStaticCast,
  kDynamicCast,
  kReinterpretCast,
  kConstCast,
  kCStyle,       // (T)expr — heuristic detection
  kFunctional,   // T(expr) for fundamental types, e.g. int(x)
};
inline constexpr int kNumCastKinds = 6;

const char* CastKindName(CastKind kind);

struct CastModel {
  CastKind kind = CastKind::kStaticCast;
  std::int32_t line = 0;
  std::string target_text;  // best-effort text of the target type

  template <class Io, class Self>
  static void Fields(Io& io, Self& c) {
    io("kind", support::Named{c.kind, CastKindName, kNumCastKinds});
    io("line", c.line);
    io("target_text", c.target_text);
  }
};

struct MacroModel {
  std::string name;
  std::int32_t line = 0;
  bool function_like = false;

  template <class Io, class Self>
  static void Fields(Io& io, Self& m) {
    io("name", m.name);
    io("line", m.line);
    io("function_like", m.function_like);
  }
};

// Parse result for one translation unit. Owns the lexed token stream that the
// token-index ranges in FunctionModel refer to.
struct SourceFileModel {
  std::string path;
  lex::LexedFile lexed;
  std::vector<FunctionModel> functions;   // definitions only
  std::vector<TypeModel> types;
  std::vector<GlobalVarModel> globals;    // namespace/file-scope variables
  std::vector<CastModel> casts;
  std::vector<MacroModel> macros;
  std::vector<std::string> includes;      // include targets, as written
  std::int32_t using_namespace_count = 0;
  std::int32_t typedef_count = 0;  // typedef + alias using

  template <class Io, class Self>
  static void Fields(Io& io, Self& m);
};

// Empty when every function's token range lies in order inside the token
// stream (sig_begin <= lparen <= body_begin <= body_end < tokens.size()),
// as the metrics and rules assume when they index tokens; otherwise why
// not. Parsed models pass; decoders reject.
std::string ValidateTokenRanges(const SourceFileModel& model);

template <class Io, class Self>
void SourceFileModel::Fields(Io& io, Self& m) {
  io("path", m.path);
  io("lexed", m.lexed);
  io("functions", m.functions);
  io.Check(m, ValidateTokenRanges);
  io("types", m.types);
  io("globals", m.globals);
  io("casts", m.casts);
  io("macros", m.macros);
  io("includes", m.includes);
  io("using_namespace_count", m.using_namespace_count);
  io("typedef_count", m.typedef_count);
}

}  // namespace certkit::ast

#endif  // CERTKIT_AST_SOURCE_MODEL_H_

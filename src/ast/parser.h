// certkit ast: fuzzy C/C++/CUDA structural parser.
//
// Recognized constructs: namespace blocks (incl. anonymous and nested-name),
// extern "C" blocks, class/struct/union/enum definitions, template headers,
// function definitions (free functions, methods, operators, constructors,
// destructors, CUDA __global__/__device__ functions), file-scope variable
// definitions, using/typedef aliases, preprocessor includes and macro
// definitions, and all four named C++ casts plus heuristic C-style and
// functional casts.
//
// Known limits (documented, by design — this is a lexical analyzer, not a
// compiler front end): function-like macro invocations at namespace scope can
// be misread as declarations; C-style cast detection is heuristic; lambdas
// are folded into their enclosing function for all metrics.
#ifndef CERTKIT_AST_PARSER_H_
#define CERTKIT_AST_PARSER_H_

#include <string>
#include <string_view>

#include "ast/source_model.h"
#include "lex/lexer.h"
#include "support/status.h"

namespace certkit::ast {

struct ParseOptions {
  lex::LexOptions lex_options;
};

// Lexes and parses `source` into a SourceFileModel.
support::Result<SourceFileModel> ParseSource(std::string path,
                                             std::string_view source,
                                             const ParseOptions& options = {});

}  // namespace certkit::ast

#endif  // CERTKIT_AST_PARSER_H_

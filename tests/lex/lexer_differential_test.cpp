// Differential test: the table-driven zero-copy lexer against the preserved
// pre-DFA reference scanner (tests/lex/reference_lexer.cpp). The production
// lexer must be observably identical — same tokens (kind, text, line,
// column), same directives, comments, line statistics, and the same error
// status text on malformed input — across handwritten adversarial cases,
// the generated Apollo-like corpus, this repository's own sources, and
// seeded mutants of the first two. On the mutants, every token's id must
// also be the one kSpellings gives its kind and text.
#include <string>
#include <string_view>
#include <vector>

#include "corpus/generator.h"
#include "gtest/gtest.h"
#include "lex/lexer.h"
#include "support/io.h"
#include "support/rng.h"
#include "tests/lex/reference_lexer.h"

namespace certkit {
namespace {

using lex::LexOptions;
using lex::reference::ReferenceLex;

// Lexes `source` through both implementations and asserts observable
// equivalence. Returns after the first field-level mismatch (the EXPECTs
// name the offending index) so a systematic divergence stays readable.
void ExpectSameLex(const std::string& tag, std::string_view source,
                   const LexOptions& options) {
  SCOPED_TRACE(tag);
  auto got = lex::Lex("diff.cc", source, options);
  auto want = ReferenceLex("diff.cc", source, options);
  ASSERT_EQ(got.ok(), want.ok()) << "status divergence: production="
                                 << got.status().ToString()
                                 << " reference=" << want.status().ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  const lex::LexedFile& g = got.value();
  const auto& w = want.value();
  ASSERT_EQ(g.tokens.size(), w.tokens.size());
  for (std::size_t i = 0; i < g.tokens.size(); ++i) {
    EXPECT_EQ(g.tokens[i].kind, w.tokens[i].kind) << "token " << i;
    EXPECT_EQ(g.tokens[i].text, w.tokens[i].text) << "token " << i;
    EXPECT_EQ(g.tokens[i].line, w.tokens[i].line) << "token " << i;
    EXPECT_EQ(g.tokens[i].column, w.tokens[i].column) << "token " << i;
  }
  ASSERT_EQ(g.directives.size(), w.directives.size());
  for (std::size_t d = 0; d < g.directives.size(); ++d) {
    EXPECT_EQ(g.directives[d].name, w.directives[d].name) << "directive " << d;
    EXPECT_EQ(g.directives[d].line, w.directives[d].line) << "directive " << d;
    ASSERT_EQ(g.directives[d].tokens.size(), w.directives[d].tokens.size())
        << "directive " << d;
    for (std::size_t i = 0; i < g.directives[d].tokens.size(); ++i) {
      EXPECT_EQ(g.directives[d].tokens[i].kind, w.directives[d].tokens[i].kind)
          << "directive " << d << " token " << i;
      EXPECT_EQ(g.directives[d].tokens[i].text, w.directives[d].tokens[i].text)
          << "directive " << d << " token " << i;
      EXPECT_EQ(g.directives[d].tokens[i].line, w.directives[d].tokens[i].line)
          << "directive " << d << " token " << i;
      EXPECT_EQ(g.directives[d].tokens[i].column,
                w.directives[d].tokens[i].column)
          << "directive " << d << " token " << i;
    }
  }
  ASSERT_EQ(g.comments.size(), w.comments.size());
  for (std::size_t i = 0; i < g.comments.size(); ++i) {
    EXPECT_EQ(g.comments[i].text, w.comments[i].text) << "comment " << i;
    EXPECT_EQ(g.comments[i].line, w.comments[i].line) << "comment " << i;
  }
  EXPECT_EQ(g.lines.total, w.lines.total);
  EXPECT_EQ(g.lines.blank, w.lines.blank);
  EXPECT_EQ(g.lines.comment_only, w.lines.comment_only);
  EXPECT_EQ(g.lines.code, w.lines.code);
  EXPECT_EQ(g.lines.preprocessor, w.lines.preprocessor);
  EXPECT_EQ(g.comment_count, w.comment_count);
}

void ExpectSameLexAllModes(const std::string& tag, std::string_view source) {
  LexOptions options;
  options.keep_comments = true;
  ExpectSameLex(tag + "/keep_comments", source, options);
  options.keep_comments = false;
  ExpectSameLex(tag + "/drop_comments", source, options);
  options.cuda_dialect = false;
  ExpectSameLex(tag + "/no_cuda", source, options);
}

const struct {
  const char* tag;
  const char* source;
} kAdversarialCases[] = {
    {"empty", ""},
    {"only_newlines", "\n\n\n"},
    {"crlf_lines", "int a;\r\nint b;\r\n"},
    {"cr_only", "int a;\rint b;"},
    {"identifiers", "foo _bar Baz$ __x a1b2"},
    {"keywords", "if while template __global__ restrict _Static_assert"},
    {"numbers",
     "42 0x1F 0b1010 1'000'000 3.5f .5 1e10 1e+10 1E-3 0x1p3 0x1.8p-2 "
     "1ull 0777 1.f 1. 1el 0x. 3_z 1z 0xABCz"},
    {"adjacent_number_suffix_soup", "1e 1e+ 0x 0b 1..2 1.e 1ee 0x1e+2"},
    {"strings",
     "\"plain\" \"esc\\\"aped\" u8\"pre\" L\"wide\" \"adjacent\"\"two\""},
    {"raw_strings",
     "R\"(simple)\" R\"ab(with )\" inside)ab\" u8R\"(u8 raw)\" LR\"()\""},
    {"char_literals", "'a' '\\n' '\\\\' L'x' u'\\u1234' '\\''"},
    {"punct_maximal_munch",
     "<<=<=><< <= >>=>> >= ... .* ->* -> -- -= :: ++ += == != && &= || |= "
     "*= /= %= ^= ## a<b>c"},
    {"spliced_identifier", "ab\\\ncd = 1;"},
    {"spliced_string", "\"ab\\\ncd\""},
    {"spliced_line_comment", "// comment continues\\\nonto next line\nx;"},
    {"spliced_directive", "#define FOO \\\n  1\nint x = FOO;"},
    {"block_comment_multiline", "/* line1\n line2\n line3 */ int x;"},
    {"comment_flavors",
     "// line\n/* block */ code(); /* tail\n spans */ // end\n"},
    {"directives",
     "#include <vector>\n#include \"local.h\"\n#pragma once\n#if FOO\n"
     "#else\n#endif\n# indented\n#\n"},
    {"hash_not_directive", "int a = x ## y;"},
    {"dot_digit", ".5f + x.y + ...z"},
    {"trailing_backslash_eof", "int x;\\"},
    {"trailing_splice_eof", "int x;\\\n"},
    {"utf8_in_string", "\"\xE2\x82\xAC euro\" ident;"},
    {"unterminated_string", "\"never ends"},
    {"unterminated_string_nl", "\"stops\nhere\""},
    {"unterminated_char", "'a"},
    {"unterminated_block_comment", "/* never ends"},
    {"unterminated_raw_string", "R\"(never ends"},
    {"malformed_raw_delimiter", "R\"toolongdelimiterxxxxxx(x)\""},
    {"raw_delimiter_with_space", "R\" (x)\""},
    {"lone_backslash", "a \\ b"},
    {"null_byte_free_binary_punct", "@ $ ` a"},
    {"deep_nesting", "((((((((((x))))))))))"},
    {"long_line_comment_only", "//"},
    {"block_comment_only", "/**/"},
    {"comment_then_eof_no_newline", "int x; // tail"},
};

TEST(LexerDifferentialTest, AdversarialSnippets) {
  for (const auto& c : kAdversarialCases) {
    ExpectSameLexAllModes(c.tag, c.source);
  }
}

// A synthetic stress blob mixing every construct with splices and CRLF.
TEST(LexerDifferentialTest, MixedStressBlob) {
  std::string blob;
  for (int i = 0; i < 50; ++i) {
    blob += "#define M" + std::to_string(i) + "(x) ((x) + " +
            std::to_string(i) + ")\r\n";
    blob += "// gen " + std::to_string(i) + "\\\n spliced tail\n";
    blob += "static const char* s" + std::to_string(i) + " = \"v\\\n" +
            std::to_string(i) + "\";\n";
    blob += "float f" + std::to_string(i) + " = " + std::to_string(i) +
            ".5e-2f; /* b" + std::to_string(i) + " */\n";
  }
  ExpectSameLexAllModes("stress_blob", blob);
}

// The generated Apollo-like corpus: every file of every module (C++ and
// CUDA-dialect alike) must lex identically under both implementations.
TEST(LexerDifferentialTest, GeneratedCorpus) {
  const auto corpus =
      corpus::GenerateCorpus(corpus::ApolloLikeSpec(), 26262);
  LexOptions options;
  options.keep_comments = true;
  std::size_t files = 0;
  for (const auto& mod : corpus) {
    for (const auto& f : mod.files) {
      ExpectSameLex(f.path, f.content, options);
      if (HasFatalFailure()) return;  // one full report is enough
      ++files;
    }
  }
  EXPECT_GT(files, 50u);
}

// This repository's own sources — real-world C++ the corpus generator does
// not produce (templates, lambdas, raw strings in tests, CUDA headers).
TEST(LexerDifferentialTest, OwnSourceTree) {
  const std::string root = CERTKIT_SOURCE_DIR "/src";
  auto files = support::ListFiles(
      root, {".cc", ".cpp", ".cxx", ".h", ".hpp", ".cu", ".cuh"});
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  ASSERT_GT(files.value().size(), 20u);
  LexOptions options;
  options.keep_comments = true;
  for (const auto& path : files.value()) {
    auto content = support::ReadFile(path);
    ASSERT_TRUE(content.ok()) << path;
    ExpectSameLex(path, content.value(), options);
    if (HasFatalFailure()) return;
  }
}

// The id kSpellings gives a token of this kind and text, by a linear search
// of the table: independent of the lexer's keyword map and punctuator
// candidate tables.
lex::TokenId TableId(lex::TokenKind kind, std::string_view text) {
  const bool spelled =
      kind == lex::TokenKind::kKeyword || kind == lex::TokenKind::kPunct;
  for (std::size_t i = 0; spelled && i < lex::kSpellings.size(); ++i) {
    if (lex::kSpellings[i] == text) {
      return lex::TokenId(lex::kIdFirstSpelled + i);
    }
  }
  switch (kind) {
    case lex::TokenKind::kIdentifier:
      return lex::kIdIdentifier;
    case lex::TokenKind::kKeyword:
      return lex::kIdUnlistedKeyword;
    case lex::TokenKind::kNumber:
      return lex::kIdNumber;
    case lex::TokenKind::kString:
      return lex::kIdString;
    case lex::TokenKind::kChar:
      return lex::kIdChar;
    case lex::TokenKind::kPunct:
      break;
  }
  return lex::kIdUnlistedPunct;
}

void ExpectTableIds(const std::vector<lex::Token>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const lex::Token& t = tokens[i];
    ASSERT_EQ(t.id, TableId(t.kind, t.text)) << "token " << i << " '"
                                             << t.text << "'";
    ASSERT_EQ(t.id, lex::IdOf(t.kind, t.text)) << "token " << i;
    ASSERT_EQ(lex::KindOf(t.id), t.kind) << "token " << i;
  }
}

// Lexes `source` in every mode through both implementations, and checks
// every token id the production lexer stamps.
void ExpectSameLexAndTableIds(const std::string& tag, std::string_view source) {
  ExpectSameLexAllModes(tag, source);
  for (const bool cuda : {true, false}) {
    LexOptions options;
    options.cuda_dialect = cuda;
    auto got = lex::Lex("diff.cc", source, options);
    if (!got.ok()) continue;
    SCOPED_TRACE(tag + (cuda ? "/ids" : "/ids_no_cuda"));
    ExpectTableIds(got.value().tokens);
    for (const auto& d : got.value().directives) ExpectTableIds(d.tokens);
  }
}

// One seeded mutation of `seed`: a truncation, a splice of two seeds, byte
// swaps from a punctuation alphabet, or inserted backslash-newlines or
// quotes.
std::string Mutate(const std::string& seed, const std::string& other,
                   int op, support::Xoshiro256& rng) {
  const auto at = [&rng](const std::string& s) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(s.size())));
  };
  std::string out = seed;
  switch (op) {
    case 0:
      out.resize(at(out));
      break;
    case 1:
      out = out.substr(0, at(out)) + other.substr(at(other));
      break;
    case 2: {
      static constexpr std::string_view kPunct =
          "{}()[]<>;:,.*&|^%!~?=+-/#'\"\\@$`";
      for (int k = 0; k < 4 && !out.empty(); ++k) {
        const std::size_t pos = at(out) % out.size();
        out[pos] = kPunct[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(kPunct.size()) - 1))];
      }
      break;
    }
    case 3:
      for (int k = 0; k < 3; ++k) {
        out.insert(at(out), rng.Bernoulli(0.5) ? "\\\n" : "\\\r\n");
      }
      break;
    default:
      for (int k = 0; k < 2; ++k) {
        out.insert(at(out), rng.Bernoulli(0.5) ? "\"" : "'");
      }
      break;
  }
  return out;
}

// Seeded mutants of the adversarial snippets and of 2 KiB windows of the
// generated corpus must lex identically through both implementations, and
// carry the table's ids.
TEST(LexerDifferentialTest, SeededMutants) {
  std::vector<std::string> seeds;
  for (const auto& c : kAdversarialCases) seeds.emplace_back(c.source);
  const auto corpus = corpus::GenerateCorpus(corpus::ApolloLikeSpec(), 26262);
  support::Xoshiro256 rng(20);
  for (const auto& mod : corpus) {
    for (const auto& f : mod.files) {
      const std::size_t begin = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(f.content.size())));
      seeds.push_back(f.content.substr(begin, 2048));
    }
  }
  constexpr int kMutants = 2500;
  for (int i = 0; i < kMutants; ++i) {
    const auto pick = [&] {
      return seeds[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    };
    const std::string& seed = pick();
    const std::string mutant = Mutate(seed, pick(), i % 5, rng);
    ExpectSameLexAndTableIds("mutant " + std::to_string(i), mutant);
    if (HasFailure()) return;  // one full report is enough
  }
}

}  // namespace
}  // namespace certkit

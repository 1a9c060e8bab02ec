#include "lex/token.h"

#include "lex/dfa_tables.h"

namespace certkit::lex {

TokenId IdOf(TokenKind kind, std::string_view text) {
  constexpr TokenId kUnspelled[kNumTokenKinds] = {
      kIdIdentifier, kIdUnlistedKeyword, kIdNumber,
      kIdString,     kIdChar,            kIdUnlistedPunct};
  TokenId id = kind == TokenKind::kPunct ? tables::PunctId(text)
                                         : tables::KeywordId(text);
  if (KindOf(id) != kind) id = kUnspelled[static_cast<int>(kind)];
  return id;
}

std::size_t MatchingClose(const std::vector<Token>& toks, std::size_t open,
                          std::size_t last) {
  int depth = 0;
  std::size_t i = open;
  for (; i < last; ++i) {
    depth += Nesting(toks[i].id, toks[open].id);
    if (depth == 0) break;
  }
  return i;
}

bool IsCppKeyword(std::string_view word) {
  const TokenId id = tables::KeywordId(word);
  return id != kIdIdentifier && id < kIdFirstCuda;
}

bool IsCudaKeyword(std::string_view word) {
  return tables::KeywordId(word) >= kIdFirstCuda;
}

}  // namespace certkit::lex

// certkit lexer: the static tables behind the table-driven DFA scanner.
//
// Three frozen structures, all built at compile time:
//
//  1. kCharClass — a 256-entry byte-to-character-class map. Classes are
//     chosen so that the quirks of C/C++ numeric literals (hex digits that
//     double as suffixes, `e`/`E` as both hex digit and decimal exponent,
//     `b`/`B` as both hex digit and binary prefix) are distinctions the
//     transition table can see.
//  2. kTokenDfa — the transition table of the identifier/number automaton:
//     kTokenDfa[state][class] is the next state, kStEnd meaning "the token
//     ends before this character". The automaton reproduces the reference
//     scanner's behavior exactly (including its accepting quirks, e.g.
//     `1el` lexing as one number token); the differential test in
//     tests/lex/ holds it to that contract.
//  3. The keyword map — a frozen open-addressing hash map (FNV-1a/64,
//     linear probing, power-of-two capacity) from the C++20 and CUDA
//     keyword spellings of kSpellings (lex/token.h) to their token ids,
//     built constexpr so lookup is two or three probes with no startup cost.
//
// Multi-character punctuators use a per-lead-character candidate table
// (kPunctIndex) over kSpellings that preserves the reference lexer's
// maximal-munch priority order; kSinglePunctId names every single byte.
#ifndef CERTKIT_LEX_DFA_TABLES_H_
#define CERTKIT_LEX_DFA_TABLES_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "lex/token.h"

namespace certkit::lex::tables {

// Character classes. The partition is exactly fine enough to drive the
// number automaton; everything coarser would conflate, say, `z` (a decimal
// suffix but not a hex one) with `u` (both).
enum CharClass : std::uint8_t {
  kClWs = 0,     // space, \t, \r, \v, \f  (isspace minus \n)
  kClNl,         // \n
  kClZero,       // 0
  kClOne,        // 1
  kClDec,        // 2-9
  kClHexOnly,    // a c d A C D  (hex digits with no second meaning)
  kClB,          // b B          (hex digit; binary prefix after 0)
  kClE,          // e E          (hex digit; decimal exponent marker)
  kClF,          // f F          (hex digit; float suffix)
  kClP,          // p P          (hex-float exponent marker)
  kClX,          // x X          (hex prefix after 0)
  kClUL,         // u U l L      (integer suffixes)
  kClZ,          // z Z          (C++23-style suffix, decimal only)
  kClSign,       // + -
  kClDot,        // .
  kClSquote,     // '
  kClDquote,     // "
  kClSlash,      // /
  kClBackslash,  // backslash
  kClHash,       // #
  kClIdent,      // _, and letters with no class of their own
  kClOther,      // everything else
  kClassCount,
};

// States of the identifier/number automaton.
enum DfaState : std::uint8_t {
  kStEnd = 0,  // not a state: "stop, do not consume"
  kStIdent,    // inside an identifier
  kStDec,      // decimal integer part (also entered on a leading '.')
  kStFrac,     // after the decimal point
  kStExp1,     // just consumed e/E (optional sign next)
  kStExpD,     // exponent digits
  kStDSuf,     // decimal/binary suffix run (u U l L f F z Z)
  kStHex,      // hex digits (prefix 0x already consumed)
  kStHexE1,    // just consumed p/P (optional sign next)
  kStHexED,    // hex-float exponent digits
  kStHSuf,     // hex suffix run (u U l L f F)
  kStBin,      // binary digits (prefix 0b already consumed)
  kStateCount,
};

extern const std::array<std::uint8_t, 256> kCharClass;
extern const std::array<std::array<std::uint8_t, kClassCount>, kStateCount>
    kTokenDfa;

// Per-character lexical properties derived from the class partition.
constexpr bool IsIdentStartClass(std::uint8_t cls) {
  switch (cls) {
    case kClHexOnly:
    case kClB:
    case kClE:
    case kClF:
    case kClP:
    case kClX:
    case kClUL:
    case kClZ:
    case kClIdent:
      return true;
    default:
      return false;
  }
}
constexpr bool IsIdentContClass(std::uint8_t cls) {
  return IsIdentStartClass(cls) || cls == kClZero || cls == kClOne ||
         cls == kClDec;
}
constexpr bool IsDigitClass(std::uint8_t cls) {
  return cls == kClZero || cls == kClOne || cls == kClDec;
}

// Multi-character punctuators, grouped by lead character. For lead byte c,
// the candidates are the ids kPunctIndex[c].first .. +count, in maximal-
// munch priority order; the first full match wins, and the bare character,
// kSinglePunctId[c], is always a valid fallback.
struct PunctGroup {
  std::uint8_t first = 0;  // id of the first candidate
  std::uint8_t count = 0;
};
extern const std::array<PunctGroup, 256> kPunctIndex;
extern const std::array<TokenId, 256> kSinglePunctId;

// The id of a C++ or CUDA keyword spelling, or kIdIdentifier for any other
// word. The map's capacity is a power of two with load factor < 0.4.
TokenId KeywordId(std::string_view word);
// The id of a punctuator text, or kIdUnlistedPunct.
TokenId PunctId(std::string_view text);

}  // namespace certkit::lex::tables

#endif  // CERTKIT_LEX_DFA_TABLES_H_

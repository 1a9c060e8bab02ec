#include "lex/dfa_tables.h"

namespace certkit::lex::tables {

namespace {

constexpr std::array<std::uint8_t, 256> BuildCharClass() {
  std::array<std::uint8_t, 256> t{};
  for (int i = 0; i < 256; ++i) t[i] = kClOther;
  t[' '] = t['\t'] = t['\r'] = t['\v'] = t['\f'] = kClWs;
  t['\n'] = kClNl;
  t['0'] = kClZero;
  t['1'] = kClOne;
  for (char c = '2'; c <= '9'; ++c) t[static_cast<unsigned char>(c)] = kClDec;
  for (char c : {'a', 'c', 'd', 'A', 'C', 'D'}) {
    t[static_cast<unsigned char>(c)] = kClHexOnly;
  }
  t['b'] = t['B'] = kClB;
  t['e'] = t['E'] = kClE;
  t['f'] = t['F'] = kClF;
  t['p'] = t['P'] = kClP;
  t['x'] = t['X'] = kClX;
  t['u'] = t['U'] = t['l'] = t['L'] = kClUL;
  t['z'] = t['Z'] = kClZ;
  for (char c = 'a'; c <= 'z'; ++c) {
    unsigned char u = static_cast<unsigned char>(c);
    if (t[u] == kClOther) t[u] = kClIdent;
  }
  for (char c = 'A'; c <= 'Z'; ++c) {
    unsigned char u = static_cast<unsigned char>(c);
    if (t[u] == kClOther) t[u] = kClIdent;
  }
  t['_'] = kClIdent;
  t['+'] = t['-'] = kClSign;
  t['.'] = kClDot;
  t['\''] = kClSquote;
  t['"'] = kClDquote;
  t['/'] = kClSlash;
  t['\\'] = kClBackslash;
  t['#'] = kClHash;
  return t;
}

using DfaRow = std::array<std::uint8_t, kClassCount>;
using DfaTable = std::array<DfaRow, kStateCount>;

constexpr DfaTable BuildTokenDfa() {
  DfaTable t{};  // zero-initialized: every transition defaults to kStEnd

  // Identifier: any identifier-continuation character keeps the state.
  for (std::uint8_t cls = 0; cls < kClassCount; ++cls) {
    if (IsIdentContClass(cls)) t[kStIdent][cls] = kStIdent;
  }

  auto set = [&t](DfaState st, std::initializer_list<CharClass> classes,
                  DfaState next) {
    for (CharClass cls : classes) t[st][cls] = next;
  };

  // Decimal: digits and separators, at most one '.', one e/E exponent with
  // an optional sign, then a suffix run over {u U l L f F z Z}.
  set(kStDec, {kClZero, kClOne, kClDec, kClSquote}, kStDec);
  set(kStDec, {kClDot}, kStFrac);
  set(kStDec, {kClE}, kStExp1);
  set(kStDec, {kClUL, kClF, kClZ}, kStDSuf);

  set(kStFrac, {kClZero, kClOne, kClDec, kClSquote}, kStFrac);
  set(kStFrac, {kClE}, kStExp1);
  set(kStFrac, {kClUL, kClF, kClZ}, kStDSuf);

  set(kStExp1, {kClSign}, kStExpD);
  set(kStExp1, {kClZero, kClOne, kClDec}, kStExpD);
  set(kStExp1, {kClUL, kClF, kClZ}, kStDSuf);

  set(kStExpD, {kClZero, kClOne, kClDec}, kStExpD);
  set(kStExpD, {kClUL, kClF, kClZ}, kStDSuf);

  set(kStDSuf, {kClUL, kClF, kClZ}, kStDSuf);

  // Hex (0x consumed by the dispatcher): hex digits, separators, and dots
  // all stay; p/P opens a hex-float exponent; suffixes exclude z/Z.
  set(kStHex,
      {kClZero, kClOne, kClDec, kClHexOnly, kClB, kClE, kClF, kClSquote,
       kClDot},
      kStHex);
  set(kStHex, {kClP}, kStHexE1);
  set(kStHex, {kClUL}, kStHSuf);

  set(kStHexE1, {kClSign}, kStHexED);
  set(kStHexE1, {kClZero, kClOne, kClDec}, kStHexED);
  set(kStHexE1, {kClUL, kClF}, kStHSuf);

  set(kStHexED, {kClZero, kClOne, kClDec}, kStHexED);
  set(kStHexED, {kClUL, kClF}, kStHSuf);

  set(kStHSuf, {kClUL, kClF}, kStHSuf);

  // Binary (0b consumed by the dispatcher): 0/1/' stay; decimal suffixes.
  set(kStBin, {kClZero, kClOne, kClSquote}, kStBin);
  set(kStBin, {kClUL, kClF, kClZ}, kStDSuf);

  return t;
}

constexpr std::string_view SpellingOf(std::uint8_t id) {
  return kSpellings[id - kIdFirstSpelled];
}

// kSpellings lists the multi-character punctuators grouped by lead
// character, each group in the reference lexer's kMultiPunct scan order, so
// maximal munch resolves identically.
constexpr std::array<PunctGroup, 256> BuildPunctIndex() {
  std::array<PunctGroup, 256> idx{};
  for (std::uint8_t id = kIdFirstPunct; id < kIdFirstSinglePunct; ++id) {
    const unsigned char lead = SpellingOf(id).front();
    if (idx[lead].count == 0) idx[lead].first = id;
    ++idx[lead].count;
  }
  return idx;
}

constexpr std::array<TokenId, 256> BuildSinglePunctId() {
  std::array<TokenId, 256> ids{};
  ids.fill(kIdUnlistedPunct);
  for (std::uint8_t id = kIdFirstSinglePunct; id < kNumTokenIds; ++id) {
    const unsigned char c = SpellingOf(id).front();
    ids[c] = TokenId{id};
  }
  return ids;
}

constexpr std::uint64_t Fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// A frozen open-addressing hash map from keyword spelling to id: FNV-1a/64
// modulo a power-of-two capacity, linear probing, built entirely at compile
// time. Id 0, kIdIdentifier, marks a vacant slot (no keyword has it).
template <std::size_t Capacity>
struct FrozenKeywordMap {
  static_assert((Capacity & (Capacity - 1)) == 0, "capacity must be 2^k");
  static_assert((kIdFirstPunct - kIdFirstSpelled) * 5 <= Capacity * 2,
                "load factor must stay under 0.4");
  std::array<std::uint8_t, Capacity> slots{};

  constexpr FrozenKeywordMap() {
    for (std::uint8_t id = kIdFirstSpelled; id < kIdFirstPunct; ++id) {
      std::size_t i = Fnv1a64(SpellingOf(id)) & (Capacity - 1);
      while (slots[i] != kIdIdentifier) i = (i + 1) & (Capacity - 1);
      slots[i] = id;
    }
  }

  constexpr TokenId Find(std::string_view w) const {
    std::size_t i = Fnv1a64(w) & (Capacity - 1);
    while (slots[i] != kIdIdentifier && SpellingOf(slots[i]) != w) {
      i = (i + 1) & (Capacity - 1);
    }
    return TokenId{slots[i]};
  }
};

constexpr FrozenKeywordMap<256> kKeywordMap;

}  // namespace

const std::array<std::uint8_t, 256> kCharClass = BuildCharClass();
const std::array<std::array<std::uint8_t, kClassCount>, kStateCount>
    kTokenDfa = BuildTokenDfa();
const std::array<PunctGroup, 256> kPunctIndex = BuildPunctIndex();
const std::array<TokenId, 256> kSinglePunctId = BuildSinglePunctId();

TokenId KeywordId(std::string_view word) { return kKeywordMap.Find(word); }

TokenId PunctId(std::string_view text) {
  const unsigned char lead = text.empty() ? 0 : text.front();
  TokenId id = text.size() == 1 ? kSinglePunctId[lead] : kIdUnlistedPunct;
  const PunctGroup group = kPunctIndex[lead];
  for (std::uint8_t c = group.first; c < group.first + group.count; ++c) {
    if (SpellingOf(c) == text) id = TokenId{c};
  }
  return id;
}

}  // namespace certkit::lex::tables

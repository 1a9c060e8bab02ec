// Seeded mutation of JSON documents, shared by the fuzz tests: bit flips,
// truncations, splices from a donor pool, and member or element values
// replaced by dictionary tokens. Every draw comes from one
// support::Xoshiro256 stream, so a seed, a dictionary and a sequence of
// inputs name one mutant sequence.
#ifndef CERTKIT_TESTS_SUPPORT_JSON_MUTATOR_H_
#define CERTKIT_TESTS_SUPPORT_JSON_MUTATOR_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/rng.h"

namespace certkit::fuzz {

// End of the JSON value that starts at `pos`: past its closing quote or
// bracket, or at the delimiter that ends a number or literal.
inline std::size_t JsonValueEnd(const std::string& doc, std::size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = pos; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']' || c == ',') {
      if (depth == 0) return i;
      if (c != ',' && --depth == 0) return i + 1;
    }
  }
  return doc.size();
}

class JsonMutator {
 public:
  // `dictionary` must outlive the mutator.
  JsonMutator(std::uint64_t seed, std::span<const char* const> dictionary)
      : rng_(seed), dictionary_(dictionary) {}

  // One to three mutations of `doc`; splices take their bytes from `pool`.
  std::string Mutate(std::string doc, const std::vector<std::string>& pool) {
    const std::int64_t rounds = rng_.UniformInt(1, 3);
    for (std::int64_t r = 0; r < rounds && !doc.empty(); ++r) {
      switch (rng_.UniformInt(0, 9)) {
        case 0:
        case 1:
        case 2:
          FlipBit(&doc);
          break;
        case 3:
          doc.resize(Index(doc.size() + 1));
          break;
        case 4:
        case 5:
          Splice(&doc, pool[Index(pool.size())]);
          break;
        default:
          ReplaceValue(&doc);
          break;
      }
    }
    return doc;
  }

 private:
  std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  void FlipBit(std::string* doc) {
    (*doc)[Index(doc->size())] ^= static_cast<char>(1 << Index(8));
  }

  // Replaces a span of `doc` with a slice of `donor`.
  void Splice(std::string* doc, const std::string& donor) {
    const std::size_t from = Index(donor.size());
    const std::size_t length = Index(std::min<std::size_t>(
        donor.size() - from, 64) + 1);
    const std::size_t at = Index(doc->size());
    const std::size_t cut = Index(std::min<std::size_t>(
        doc->size() - at, 64) + 1);
    doc->replace(at, cut, donor, from, length);
  }

  // Replaces one member or element value with a dictionary token.
  void ReplaceValue(std::string* doc) {
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i + 1 < doc->size(); ++i) {
      const char c = (*doc)[i];
      if (c == ':' || c == '[' || c == ',') starts.push_back(i + 1);
    }
    if (starts.empty()) return;
    const std::size_t at = starts[Index(starts.size())];
    const std::size_t end = JsonValueEnd(*doc, at);
    doc->replace(at, end - at, dictionary_[Index(dictionary_.size())]);
  }

  support::Xoshiro256 rng_;
  std::span<const char* const> dictionary_;
};

}  // namespace certkit::fuzz

#endif  // CERTKIT_TESTS_SUPPORT_JSON_MUTATOR_H_

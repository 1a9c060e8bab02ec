// Tests for the support library: strings, RNG, status/result, I/O.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "support/check.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/strings.h"

namespace certkit::support {
namespace {

// ---------------------------------------------------------------- strings --

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a\tb\n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
  EXPECT_TRUE(Contains("foobar", "oba"));
  EXPECT_FALSE(Contains("foobar", "xyz"));
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("MiXeD123"), "mixed123");
  EXPECT_EQ(ToUpper("MiXeD123"), "MIXED123");
}

TEST(StringsTest, NamingPredicates) {
  EXPECT_TRUE(IsSnakeCase("snake_case_2"));
  EXPECT_FALSE(IsSnakeCase("Snake_case"));
  EXPECT_FALSE(IsSnakeCase("double__under"));
  EXPECT_FALSE(IsSnakeCase("trailing_"));
  EXPECT_FALSE(IsSnakeCase(""));

  EXPECT_TRUE(IsUpperCamelCase("UpperCamel2"));
  EXPECT_FALSE(IsUpperCamelCase("lowerStart"));
  EXPECT_FALSE(IsUpperCamelCase("With_Underscore"));

  EXPECT_TRUE(IsLowerCamelCase("lowerCamel"));
  EXPECT_FALSE(IsLowerCamelCase("UpperStart"));

  EXPECT_TRUE(IsMacroCase("MACRO_CASE_2"));
  EXPECT_FALSE(IsMacroCase("Macro_Case"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(ReplaceAll("none", "x", "y"), "none");
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

// -------------------------------------------------------------------- rng --

TEST(RngTest, DeterministicForSeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool any_different = false;
  Xoshiro256 a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Xoshiro256 rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformIntDegenerateRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(RngTest, UniformDoubleInHalfOpenRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    const double w = rng.UniformDouble(-2.0, 3.0);
    EXPECT_GE(w, -2.0);
    EXPECT_LT(w, 3.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Xoshiro256 rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BernoulliRate) {
  Xoshiro256 rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, WeightedIndexProportions) {
  Xoshiro256 rng(19);
  const double weights[3] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.WeightedIndex(weights, 3)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, WeightedIndexAllZeroIsContractViolation) {
  Xoshiro256 rng(23);
  const double weights[2] = {0.0, 0.0};
  EXPECT_THROW(rng.WeightedIndex(weights, 2), ContractViolation);
}

// ----------------------------------------------------------------- status --

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  Status err = NotFoundError("missing.txt");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: missing.txt");
}

TEST(ResultTest, ValueAndError) {
  Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.value_or(-1), 42);

  Result<int> bad(ParseError("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), ContractViolation);
}

TEST(ResultTest, OkStatusWithoutValueIsContractViolation) {
  EXPECT_THROW(Result<int>(Status::Ok()), ContractViolation);
}

TEST(CheckTest, MessagesCarryLocation) {
  try {
    CERTKIT_CHECK_MSG(1 == 2, "custom detail " << 99);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 99"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

// --------------------------------------------------------------------- io --

TEST(IoTest, WriteReadRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "certkit_io_test").string();
  const std::string path = dir + "/sub/file.txt";
  ASSERT_TRUE(WriteFile(path, "hello\nworld").ok());
  auto content = ReadFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "hello\nworld");
  std::filesystem::remove_all(dir);
}

// A FIFO has no size: ReadFile reads on until the writer closes, across
// more than one pipe buffer's worth of writes.
TEST(IoTest, ReadFileReadsAFifoWhole) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "certkit_io_fifo").string();
  std::filesystem::remove(path);
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::string sent;
  for (int i = 0; sent.size() < 300 * 1024; ++i) {
    sent += "line " + std::to_string(i) + "\n";
  }
  std::thread writer([&] {
    // A reader that stops early fails the writes below instead of raising
    // SIGPIPE, which would end the whole test binary.
    sigset_t pipe_signal;
    sigemptyset(&pipe_signal);
    sigaddset(&pipe_signal, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
    std::FILE* f = std::fopen(path.c_str(), "w");  // waits for the reader
    ASSERT_NE(f, nullptr);
    for (std::size_t at = 0; at < sent.size(); at += 4096) {
      const std::size_t n = std::min<std::size_t>(4096, sent.size() - at);
      ASSERT_EQ(std::fwrite(sent.data() + at, 1, n, f), n);
      std::fflush(f);
    }
    std::fclose(f);
  });
  auto content = ReadFile(path);
  writer.join();
  std::filesystem::remove(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_EQ(content.value(), sent);
}

// A procfs file reports size 0 and is read whole all the same.
TEST(IoTest, ReadFileReadsAProcfsFileWhole) {
  auto content = ReadFile("/proc/self/status");
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_TRUE(StartsWith(content.value(), "Name:"));
  EXPECT_NE(content.value().find("\nVmRSS:"), std::string::npos);
  EXPECT_TRUE(EndsWith(content.value(), "\n"));
}

TEST(IoTest, ReadMissingFileFails) {
  auto r = ReadFile("/nonexistent/certkit/file.txt");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoTest, ListFilesFiltersAndSorts) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "certkit_list_test";
  fs::remove_all(dir);
  ASSERT_TRUE(WriteFile((dir / "b.cc").string(), "x").ok());
  ASSERT_TRUE(WriteFile((dir / "a.cc").string(), "x").ok());
  ASSERT_TRUE(WriteFile((dir / "n.txt").string(), "x").ok());
  ASSERT_TRUE(WriteFile((dir / "deep" / "c.cc").string(), "x").ok());

  auto all = ListFiles(dir.string(), {});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 4u);

  auto cc = ListFiles(dir.string(), {".cc"});
  ASSERT_TRUE(cc.ok());
  ASSERT_EQ(cc.value().size(), 3u);
  // Sorted.
  EXPECT_TRUE(cc.value()[0] < cc.value()[1]);
  fs::remove_all(dir);
}

TEST(IoTest, ListFilesIsLexicographicallySortedAcrossDirectories) {
  // The AnalysisDriver's determinism contract rests on this ordering
  // guarantee (see io.h), so assert it over a deliberately shuffled layout.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "certkit_sort_test";
  fs::remove_all(dir);
  const std::vector<std::string> rel = {
      "zeta/a.cc", "alpha/z.cc", "alpha/a.cc", "mid.cc",
      "alpha/nested/m.cc", "beta/b.cc", "aaa.cc"};
  for (const auto& r : rel) {
    ASSERT_TRUE(WriteFile((dir / r).string(), "x").ok());
  }
  auto listed = ListFiles(dir.string(), {".cc"});
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value().size(), rel.size());
  for (std::size_t i = 1; i < listed.value().size(); ++i) {
    EXPECT_LT(listed.value()[i - 1], listed.value()[i]);
  }
  fs::remove_all(dir);
}

TEST(IoTest, ListFilesOnMissingDirFails) {
  auto r = ListFiles("/nonexistent/certkit/dir", {});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace certkit::support

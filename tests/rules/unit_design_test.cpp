// Unit tests for the unit-design analyzer (ISO 26262-6 Table 8).
#include "rules/unit_design.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "metrics/module_metrics.h"

namespace certkit::rules {
namespace {

metrics::ModuleAnalysis ModuleOf(std::string_view src) {
  auto r = ast::ParseSource("mod/file.cc", src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::vector<ast::SourceFileModel> files;
  files.push_back(std::move(r).value());
  return metrics::AnalyzeModule("mod", std::move(files));
}

TEST(UnitDesignTest, MultiExitCounted) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "int a(int x) { if (x) { return 1; } return 0; }\n"
      "int b(int x) { int r = x + 1; return r; }\n"));
  EXPECT_EQ(result.stats.functions_total, 2);
  EXPECT_EQ(result.stats.functions_multi_exit, 1);
  EXPECT_DOUBLE_EQ(result.stats.MultiExitFraction(), 0.5);
}

TEST(UnitDesignTest, DynamicAllocSites) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "void f(int n) {\n"
      "  int* a = new int[n];\n"
      "  void* b = malloc(n);\n"
      "  float* d;\n"
      "  cudaMalloc(&d, n);\n"
      "  delete[] a;\n"
      "}\n"));
  // new, malloc, cudaMalloc — delete is deallocation, counted by MISRA but
  // not as a creation site here.
  EXPECT_EQ(result.stats.dynamic_alloc_sites, 3);
}

TEST(UnitDesignTest, UninitializedLocals) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "void f() {\n"
      "  int a;\n"             // uninitialized
      "  int b = 1;\n"
      "  double c, d;\n"       // two uninitialized
      "  float e{2.0f};\n"
      "  const int g = 3;\n"
      "  unsigned long h;\n"   // uninitialized
      "  (void)a; (void)b; (void)c; (void)d; (void)e; (void)g; (void)h;\n"
      "}\n"));
  EXPECT_EQ(result.stats.uninitialized_locals, 4);
}

TEST(UnitDesignTest, ShadowingDetected) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "int counter = 0;\n"
      "void f(int limit) {\n"
      "  int counter = 1;\n"   // shadows the global
      "  int limit2 = 0;\n"
      "  int limit = 3;\n"     // shadows the parameter
      "  (void)counter; (void)limit2; (void)limit;\n"
      "}\n"));
  EXPECT_EQ(result.stats.shadowing_decls, 2);
}

TEST(UnitDesignTest, GlobalsClassified) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "int mutable_state = 0;\n"
      "static double more_state;\n"
      "const int kLimit = 5;\n"
      "extern int elsewhere;\n"));
  EXPECT_EQ(result.stats.mutable_globals, 2);
  EXPECT_EQ(result.stats.const_globals, 1);
}

TEST(UnitDesignTest, PointerUse) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "struct S { int v; };\n"
      "int f(S* s, const char* name, int plain) {\n"
      "  (void)name;\n"
      "  (void)plain;\n"
      "  return s->v;\n"
      "}\n"));
  EXPECT_EQ(result.stats.pointer_params, 2);
  EXPECT_EQ(result.stats.pointer_derefs, 1);
}

TEST(UnitDesignTest, GlobalWritesDetected) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "int g_state = 0;\n"
      "void bump() { g_state += 1; }\n"
      "void set(int v) { g_state = v; }\n"
      "int get() { return g_state; }\n"));
  EXPECT_EQ(result.stats.global_write_sites, 2);
}

TEST(UnitDesignTest, CompoundAssignmentsToGlobalsAreWrites) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "int g_flags = 0;\n"
      "int g_count = 0;\n"
      "void mark(int bit) { g_flags |= bit; g_count += 1; g_flags <<= 1; }\n"
      "void rest() { g_flags %= 3; g_flags &= 1; g_flags ^= 2; "
      "g_flags >>= 1; }\n"));
  EXPECT_EQ(result.stats.global_write_sites, 7);
}

TEST(UnitDesignTest, GotoCounted) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "int f(int x) {\n"
      "  if (x < 0) goto err;\n"
      "  return x;\n"
      "err:\n"
      "  return -1;\n"
      "}\n"));
  EXPECT_EQ(result.stats.goto_statements, 1);
}

TEST(UnitDesignTest, DirectRecursionCounted) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }\n"));
  EXPECT_EQ(result.stats.recursive_functions_direct, 1);
  EXPECT_EQ(result.stats.recursion_cycles_indirect, 0);
}

TEST(UnitDesignTest, IndirectRecursionCycleFound) {
  auto mod = ModuleOf(
      "int odd(int n);\n"
      "int even(int n) { return n == 0 ? 1 : odd(n - 1); }\n"
      "int odd(int n) { return n == 0 ? 0 : even(n - 1); }\n"
      "int lonely(int n) { return n + 1; }\n");
  auto cycles = FindRecursionCycles(mod);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], (std::vector<std::string>{"even", "odd"}));
  auto result = AnalyzeUnitDesign(mod);
  EXPECT_EQ(result.stats.recursion_cycles_indirect, 1);
}

TEST(UnitDesignTest, ThreeCycleFound) {
  auto cycles = FindRecursionCycles(ModuleOf(
      "int c(int n);\n"
      "int a(int n) { return n ? b(n - 1) : 0; }\n"
      "int b(int n) { return n ? c(n - 1) : 0; }\n"
      "int c(int n) { return n ? a(n - 1) : 0; }\n"));
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], (std::vector<std::string>{"a", "b", "c"}));
}

TEST(UnitDesignTest, AcyclicCallGraphHasNoCycles) {
  auto cycles = FindRecursionCycles(ModuleOf(
      "int leaf(int n) { return n; }\n"
      "int mid(int n) { return leaf(n) + 1; }\n"
      "int top(int n) { return mid(n) + leaf(n); }\n"));
  EXPECT_TRUE(cycles.empty());
}

TEST(UnitDesignTest, CastsCounted) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "void f(double d, void* p) {\n"
      "  int a = static_cast<int>(d);\n"
      "  char* c = (char*)p;\n"
      "  (void)a; (void)c;\n"
      "}\n"));
  EXPECT_EQ(result.stats.explicit_casts, 2);
}

TEST(UnitDesignTest, FindingsCarryRuleIds) {
  auto result = AnalyzeUnitDesign(ModuleOf(
      "int g_x = 0;\n"
      "int f(int a) { if (a) { return 1; } return 0; }\n"));
  EXPECT_GE(result.report.CountRule("UNIT-1"), 1);
  EXPECT_GE(result.report.CountRule("UNIT-5"), 1);
}

// Property sweep: multi-exit fraction matches construction for N functions
// where every third one is multi-exit.
class MultiExitSweep : public ::testing::TestWithParam<int> {};

TEST_P(MultiExitSweep, FractionMatchesConstruction) {
  const int n = GetParam();
  std::string src;
  int multi = 0;
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      src += "int f" + std::to_string(i) +
             "(int x) { if (x) { return 1; } return 0; }\n";
      ++multi;
    } else {
      src += "int f" + std::to_string(i) + "(int x) { return x; }\n";
    }
  }
  auto result = AnalyzeUnitDesign(ModuleOf(src));
  EXPECT_EQ(result.stats.functions_total, n);
  EXPECT_EQ(result.stats.functions_multi_exit, multi);
}

INSTANTIATE_TEST_SUITE_P(Counts, MultiExitSweep,
                         ::testing::Values(1, 3, 10, 99));

}  // namespace
}  // namespace certkit::rules

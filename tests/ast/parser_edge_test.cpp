// Edge-case tests for the fuzzy parser: modern-C++ constructs the analyzer
// meets in real automotive codebases.
#include <gtest/gtest.h>

#include "ast/parser.h"

namespace certkit::ast {
namespace {

SourceFileModel MustParse(std::string_view src) {
  auto r = ParseSource("edge.cc", src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ParserEdgeTest, NestedClassMethods) {
  SourceFileModel m = MustParse(
      "class Outer {\n"
      " public:\n"
      "  class Inner {\n"
      "   public:\n"
      "    int Get() { return 1; }\n"
      "  };\n"
      "  int Use() { return 2; }\n"
      "};\n");
  ASSERT_EQ(m.types.size(), 2u);
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].qualified_name, "Outer::Inner::Get");
  EXPECT_EQ(m.functions[1].qualified_name, "Outer::Use");
}

// The outer class keeps counting its members after a nested type is added:
// the nested type's entry may reallocate `types`, so a class scope that
// held a pointer into it counted into freed memory (and Outer read 0).
TEST(ParserEdgeTest, OuterClassCountsMembersAfterNestedTypes) {
  SourceFileModel m = MustParse(
      "class Outer {\n"
      "  class Inner {};\n"
      "  int Use() { return 0; }\n"
      " public:\n"
      "  struct Row { int a; };\n"
      "  enum Mode { kA, kB };\n"
      "  int Get() { return 1; }\n"
      "  int count;\n"
      "};\n");
  ASSERT_EQ(m.types.size(), 4u);
  EXPECT_EQ(m.types[0].name, "Outer");
  EXPECT_EQ(m.types[0].method_count, 2);
  EXPECT_EQ(m.types[0].public_method_count, 1);
  EXPECT_EQ(m.types[0].field_count, 1);
  EXPECT_EQ(m.types[2].name, "Row");
  EXPECT_EQ(m.types[2].field_count, 1);
}

// A named cast's target ends at the '>>' that closes it: the scan used to
// count only '<' and '>' and ran on to the next lone '>'.
TEST(ParserEdgeTest, NamedCastTargetEndsAtDoubleAngle) {
  SourceFileModel m = MustParse(
      "void F(int x, int a, int b) {\n"
      "  auto v = static_cast<std::vector<int>>(x);\n"
      "  bool y = a > b;\n"
      "  auto w = static_cast<Box<Pair<int>>>(x);\n"
      "  auto z = static_cast<unsigned>(x);\n"
      "}\n");
  ASSERT_EQ(m.casts.size(), 3u);
  EXPECT_EQ(m.casts[0].target_text, "std :: vector < int >>");
  EXPECT_EQ(m.casts[1].target_text, "Box < Pair < int >>");
  EXPECT_EQ(m.casts[2].target_text, "unsigned");
}

TEST(ParserEdgeTest, InlineNamespace) {
  SourceFileModel m = MustParse(
      "namespace api {\n"
      "inline namespace v2 {\n"
      "void Call() {}\n"
      "}\n"
      "}\n");
  ASSERT_EQ(m.functions.size(), 1u);
  // `inline` is consumed as a specifier; the namespace scope still applies.
  EXPECT_NE(m.functions[0].qualified_name.find("Call"), std::string::npos);
}

TEST(ParserEdgeTest, ConstexprAndStaticFunctions) {
  SourceFileModel m = MustParse(
      "constexpr int Square(int x) { return x * x; }\n"
      "static double Half(double v) { return v / 2; }\n");
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].name, "Square");
  EXPECT_TRUE(m.functions[1].is_static);
}

TEST(ParserEdgeTest, CallOperatorOverload) {
  SourceFileModel m = MustParse(
      "struct Functor {\n"
      "  int operator()(int x) const { return x + 1; }\n"
      "  bool operator<(const Functor& o) const { return false; }\n"
      "};\n");
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].name, "operator()");
  EXPECT_EQ(m.functions[1].name, "operator<");
}

TEST(ParserEdgeTest, ConversionOperator) {
  SourceFileModel m = MustParse(
      "struct Wrapper { operator bool() const { return true; } };");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "operatorbool");
}

TEST(ParserEdgeTest, OutOfLineTemplateMethod) {
  SourceFileModel m = MustParse(
      "template <typename T> class Box { T v_; public: T Get(); };\n"
      "template <typename T>\n"
      "T Box<T>::Get() { return v_; }\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "Get");
  EXPECT_EQ(m.functions[0].qualified_name, "Box::Get");
}

TEST(ParserEdgeTest, AttributesOnFunctions) {
  SourceFileModel m = MustParse(
      "[[nodiscard]] int Compute() { return 3; }\n"
      "void Deprecated() {}\n");
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].name, "Compute");
}

TEST(ParserEdgeTest, LambdaInsideFunctionFoldedIn) {
  SourceFileModel m = MustParse(
      "int f() {\n"
      "  auto add = [](int a, int b) { return a + b; };\n"
      "  return add(1, 2);\n"
      "}\n");
  // The lambda body belongs to f's extent (documented behavior).
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "f");
}

TEST(ParserEdgeTest, VirtualOverrideFinal) {
  SourceFileModel m = MustParse(
      "struct Base { virtual int Act() { return 0; } virtual ~Base() {} };\n"
      "struct Derived final : Base {\n"
      "  int Act() override final { return 1; }\n"
      "};\n");
  ASSERT_EQ(m.types.size(), 2u);
  EXPECT_EQ(m.types[1].name, "Derived");
  ASSERT_EQ(m.functions.size(), 3u);
  EXPECT_EQ(m.functions[2].qualified_name, "Derived::Act");
}

TEST(ParserEdgeTest, MultipleDeclaratorsOneStatement) {
  SourceFileModel m = MustParse("int a = 1, b = 2;\n");
  // The fuzzy parser records at least the statement's declaration intent;
  // exact multi-declarator splitting is a documented approximation.
  EXPECT_GE(m.globals.size(), 1u);
}

TEST(ParserEdgeTest, FunctionPointerParameter) {
  SourceFileModel m = MustParse(
      "int Apply(int (*fn)(int), int v) { return fn(v); }\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "Apply");
  EXPECT_EQ(m.functions[0].params.size(), 2u);
}

TEST(ParserEdgeTest, DefaultMemberInitializers) {
  SourceFileModel m = MustParse(
      "struct Config {\n"
      "  int retries = 3;\n"
      "  double timeout{1.5};\n"
      "  int Limit() const { return retries; }\n"
      "};\n");
  ASSERT_EQ(m.types.size(), 1u);
  EXPECT_EQ(m.types[0].field_count, 2);
  EXPECT_EQ(m.types[0].method_count, 1);
  EXPECT_TRUE(m.globals.empty());
}

TEST(ParserEdgeTest, EnumValuesDoNotLeakAsGlobals) {
  SourceFileModel m = MustParse(
      "enum class Mode { kAuto = 0, kManual = 1 };\n"
      "enum Flags { kRead = 1, kWrite = 2 };\n");
  EXPECT_EQ(m.types.size(), 2u);
  EXPECT_TRUE(m.globals.empty());
  EXPECT_TRUE(m.functions.empty());
}

TEST(ParserEdgeTest, StaticAssertAtNamespaceScope) {
  SourceFileModel m = MustParse(
      "static_assert(sizeof(int) == 4, \"ILP32/LP64 expected\");\n"
      "int after = 1;\n");
  ASSERT_EQ(m.globals.size(), 1u);
  EXPECT_EQ(m.globals[0].name, "after");
}

TEST(ParserEdgeTest, RawStringWithBracesDoesNotConfuseScopes) {
  SourceFileModel m = MustParse(
      "const char* kJson = R\"({\"a\": {\"b\": 1}})\";\n"
      "void After() {}\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "After");
}

TEST(ParserEdgeTest, PreprocessorConditionalsIgnoredStructurally) {
  SourceFileModel m = MustParse(
      "#ifdef USE_GPU\n"
      "void GpuPath() {}\n"
      "#else\n"
      "void CpuPath() {}\n"
      "#endif\n");
  // Both branches are visible to the unpreprocessed analyzer (as with
  // Lizard) — the directive lines themselves are not code.
  EXPECT_EQ(m.functions.size(), 2u);
}

TEST(ParserEdgeTest, TrailingCommaAndPackExpansion) {
  SourceFileModel m = MustParse(
      "template <typename... Args>\n"
      "int Sum(Args... args) { return (args + ... + 0); }\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "Sum");
}

TEST(ParserEdgeTest, UsingAliasTemplate) {
  SourceFileModel m = MustParse(
      "template <typename T> using Vec = std::vector<T>;\n"
      "int g = 0;\n");
  EXPECT_EQ(m.typedef_count, 1);
  ASSERT_EQ(m.globals.size(), 1u);
}

TEST(ParserEdgeTest, NoexceptExpressionInSignature) {
  SourceFileModel m = MustParse(
      "void Risky(int x) noexcept(noexcept(x + 1)) { (void)x; }\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "Risky");
}

// A default value's `=` is found past a template argument list that closes
// with `>>`, so the parameter keeps its name.
TEST(ParserEdgeTest, DefaultedParameterAfterDoubleAngleKeepsItsName) {
  SourceFileModel m = MustParse(
      "int Sum(std::vector<std::vector<int>> grid = {}, int scale = 2) {\n"
      "  return scale;\n"
      "}\n");
  ASSERT_EQ(m.functions.size(), 1u);
  const auto& params = m.functions[0].params;
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "grid");
  EXPECT_EQ(params[0].type_text, "std :: vector < std :: vector < int >>");
  EXPECT_EQ(params[1].name, "scale");
  EXPECT_EQ(params[1].type_text, "int");
}

}  // namespace
}  // namespace certkit::ast

// Unit tests for the ISO 26262 technique tables and the assessor.
#include <gtest/gtest.h>

#include "driver/analysis_driver.h"
#include "rules/assessor.h"
#include "rules/iso26262.h"

namespace certkit::rules {
namespace {

TEST(Iso26262TablesTest, Table1MatchesPaper) {
  const TechniqueTable& t = CodingGuidelinesTable();
  ASSERT_EQ(t.techniques.size(), 8u);
  // Row 1 "Enforcement of low complexity": ++ across all ASIL.
  for (Asil a : {Asil::kA, Asil::kB, Asil::kC, Asil::kD}) {
    EXPECT_EQ(t.techniques[0].At(a), Recommendation::kHighlyRecommended);
  }
  // Row 4 "defensive implementation": o + ++ ++.
  EXPECT_EQ(t.techniques[3].At(Asil::kA), Recommendation::kNone);
  EXPECT_EQ(t.techniques[3].At(Asil::kB), Recommendation::kRecommended);
  EXPECT_EQ(t.techniques[3].At(Asil::kC),
            Recommendation::kHighlyRecommended);
  EXPECT_EQ(t.techniques[3].At(Asil::kD),
            Recommendation::kHighlyRecommended);
  // Row 5 "established design principles": + + + ++.
  EXPECT_EQ(t.techniques[4].At(Asil::kC), Recommendation::kRecommended);
  EXPECT_EQ(t.techniques[4].At(Asil::kD),
            Recommendation::kHighlyRecommended);
  // Everything is ++ at ASIL D except nothing — all 8 rows are ++ at D? No:
  // rows 5 is ++ at D; per the paper "all elements are highly recommended
  // for ASIL D".
  for (const auto& tech : t.techniques) {
    EXPECT_EQ(tech.At(Asil::kD), Recommendation::kHighlyRecommended)
        << tech.name;
  }
}

TEST(Iso26262TablesTest, Table3MatchesPaper) {
  const TechniqueTable& t = ArchitecturalDesignTable();
  ASSERT_EQ(t.techniques.size(), 7u);
  // Row 3 "Restricted size of interfaces": + at every ASIL.
  for (Asil a : {Asil::kA, Asil::kB, Asil::kC, Asil::kD}) {
    EXPECT_EQ(t.techniques[2].At(a), Recommendation::kRecommended);
  }
  // Row 7 "Restricted use of interrupts": + + + ++.
  EXPECT_EQ(t.techniques[6].At(Asil::kA), Recommendation::kRecommended);
  EXPECT_EQ(t.techniques[6].At(Asil::kD),
            Recommendation::kHighlyRecommended);
}

TEST(Iso26262TablesTest, Table8MatchesPaper) {
  const TechniqueTable& t = UnitDesignTable();
  ASSERT_EQ(t.techniques.size(), 10u);
  // Row 6 "Limited use of pointers": o + + ++.
  EXPECT_EQ(t.techniques[5].At(Asil::kA), Recommendation::kNone);
  EXPECT_EQ(t.techniques[5].At(Asil::kB), Recommendation::kRecommended);
  EXPECT_EQ(t.techniques[5].At(Asil::kC), Recommendation::kRecommended);
  EXPECT_EQ(t.techniques[5].At(Asil::kD),
            Recommendation::kHighlyRecommended);
  // Row 10 "No recursions": + + ++ ++.
  EXPECT_EQ(t.techniques[9].At(Asil::kA), Recommendation::kRecommended);
  EXPECT_EQ(t.techniques[9].At(Asil::kC),
            Recommendation::kHighlyRecommended);
}

TEST(Iso26262TablesTest, SatisfiesSemantics) {
  EXPECT_TRUE(Satisfies(Verdict::kCompliant,
                        Recommendation::kHighlyRecommended));
  EXPECT_FALSE(Satisfies(Verdict::kPartial,
                         Recommendation::kHighlyRecommended));
  EXPECT_TRUE(Satisfies(Verdict::kPartial, Recommendation::kRecommended));
  EXPECT_FALSE(Satisfies(Verdict::kNonCompliant,
                         Recommendation::kRecommended));
  EXPECT_TRUE(Satisfies(Verdict::kNonCompliant, Recommendation::kNone));
  EXPECT_TRUE(Satisfies(Verdict::kNotApplicable,
                        Recommendation::kHighlyRecommended));
}

TEST(Iso26262TablesTest, MarksRoundTrip) {
  EXPECT_STREQ(RecommendationMark(Recommendation::kNone), "o");
  EXPECT_STREQ(RecommendationMark(Recommendation::kRecommended), "+");
  EXPECT_STREQ(RecommendationMark(Recommendation::kHighlyRecommended), "++");
}

// --- assessor ---

// The one-file module m/f.cc, analyzed as every consumer analyzes a tree.
// An Assessor built from its MakeAssessorInputs() must not outlive it.
driver::CodebaseAnalysis OneModule(std::string src) {
  driver::DriverOptions options;
  options.jobs = 1;
  auto r = driver::AnalysisDriver(options).AnalyzeSources(
      {{"m/f.cc", std::move(src)}});
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(AssessorTest, CleanCodeIsLargelyCompliant) {
  const auto cb = OneModule(
      "int add(int a, int b) {\n"
      "  if (a < 0) { return 0; }\n"
      "  if (b < 0) { return 0; }\n"
      "  return a + b;\n"
      "}\n");
  Assessor assessor(cb.MakeAssessorInputs());
  TableAssessment t1 = assessor.AssessCodingGuidelines();
  ASSERT_EQ(t1.assessments.size(), 8u);
  // Row 1 (low complexity): compliant — CC is 3.
  EXPECT_EQ(t1.assessments[0].verdict, Verdict::kCompliant);
  // Row 3 (strong typing): no casts.
  EXPECT_EQ(t1.assessments[2].verdict, Verdict::kCompliant);
  // Row 6 always N/A for C++.
  EXPECT_EQ(t1.assessments[5].verdict, Verdict::kNotApplicable);
}

TEST(AssessorTest, CastsDegradeStrongTyping) {
  std::string src = "void f(double d) {\n";
  for (int i = 0; i < 50; ++i) {
    src += "  int v" + std::to_string(i) + " = (int)d; (void)v" +
           std::to_string(i) + ";\n";
  }
  src += "}\n";
  const auto cb = OneModule(src);
  Assessor assessor(cb.MakeAssessorInputs());
  TableAssessment t1 = assessor.AssessCodingGuidelines();
  EXPECT_EQ(t1.assessments[2].verdict, Verdict::kNonCompliant);
  EXPECT_GE(assessor.total_explicit_casts(), 50);
}

TEST(AssessorTest, UnitDesignTableHasTenRows) {
  const auto cb = OneModule("int f(int x) { return x; }\n");
  Assessor assessor(cb.MakeAssessorInputs());
  TableAssessment t3 = assessor.AssessUnitDesign();
  ASSERT_EQ(t3.assessments.size(), 10u);
  for (const auto& a : t3.assessments) {
    EXPECT_FALSE(a.evidence.empty());
  }
}

TEST(AssessorTest, ArchitectureTableHasSevenRows) {
  const auto cb = OneModule("void f() {}\n");
  Assessor assessor(cb.MakeAssessorInputs());
  TableAssessment t2 = assessor.AssessArchitecture();
  ASSERT_EQ(t2.assessments.size(), 7u);
}

TEST(AssessorTest, GotoMakesRow9NonCompliant) {
  const auto cb = OneModule(
      "int f(int x) { if (x) goto out; x = 2; out: return x; }\n");
  Assessor assessor(cb.MakeAssessorInputs());
  TableAssessment t3 = assessor.AssessUnitDesign();
  EXPECT_EQ(t3.assessments[8].verdict, Verdict::kNonCompliant);
}

TEST(AssessorTest, FunctionsCcOverThreshold) {
  std::string body;
  for (int i = 0; i < 15; ++i) {
    body += "if (x > " + std::to_string(i) + ") ++x;\n";
  }
  const auto cb = OneModule("int f(int x) {\n" + body + "return x;\n}\n");
  Assessor assessor(cb.MakeAssessorInputs());
  EXPECT_EQ(assessor.functions_cc_over(10), 1);  // CC = 16
  EXPECT_EQ(assessor.functions_cc_over(20), 0);
}

}  // namespace
}  // namespace certkit::rules

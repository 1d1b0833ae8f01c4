#include "lp/model.h"

#include <gtest/gtest.h>

namespace privsan {
namespace lp {
namespace {

TEST(LpModelTest, BuildBasicModel) {
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0.0, kInfinity, 3.0);
  int y = model.AddVariable(0.0, 10.0, 2.0);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 4.0);
  model.AddCoefficient(r, x, 1.0);
  model.AddCoefficient(r, y, 1.0);
  ASSERT_TRUE(model.Validate().ok());
  EXPECT_EQ(model.num_variables(), 2);
  EXPECT_EQ(model.num_constraints(), 1);
  EXPECT_EQ(model.variable(y).upper, 10.0);
  EXPECT_EQ(model.constraint(r).entries.size(), 2u);
}

TEST(LpModelTest, ValidateMergesDuplicateCoefficients) {
  LpModel model;
  int x = model.AddVariable(0.0, kInfinity, 1.0);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 1.0);
  model.AddCoefficient(r, x, 2.0);
  model.AddCoefficient(r, x, 3.0);
  ASSERT_TRUE(model.Validate().ok());
  ASSERT_EQ(model.constraint(r).entries.size(), 1u);
  EXPECT_DOUBLE_EQ(model.constraint(r).entries[0].value, 5.0);
}

TEST(LpModelTest, ValidateDropsNothingButSorts) {
  LpModel model;
  int a = model.AddVariable(0.0, 1.0, 0.0);
  int b = model.AddVariable(0.0, 1.0, 0.0);
  int r = model.AddConstraint(ConstraintSense::kEqual, 0.0);
  model.AddCoefficient(r, b, 1.0);
  model.AddCoefficient(r, a, 1.0);
  ASSERT_TRUE(model.Validate().ok());
  EXPECT_EQ(model.constraint(r).entries[0].variable, a);
  EXPECT_EQ(model.constraint(r).entries[1].variable, b);
}

TEST(LpModelTest, ValidateRejectsCrossedBounds) {
  LpModel model;
  model.AddVariable(2.0, 1.0, 0.0);
  EXPECT_FALSE(model.Validate().ok());
}

TEST(LpModelTest, ValidateRejectsNonFiniteData) {
  {
    LpModel model;
    model.AddVariable(0.0, 1.0, std::numeric_limits<double>::infinity());
    EXPECT_FALSE(model.Validate().ok());
  }
  {
    LpModel model;
    int x = model.AddVariable(0.0, 1.0, 0.0);
    int r = model.AddConstraint(ConstraintSense::kLessEqual,
                                std::numeric_limits<double>::quiet_NaN());
    model.AddCoefficient(r, x, 1.0);
    EXPECT_FALSE(model.Validate().ok());
  }
  {
    LpModel model;
    int x = model.AddVariable(0.0, 1.0, 0.0);
    int r = model.AddConstraint(ConstraintSense::kLessEqual, 1.0);
    model.AddCoefficient(r, x, std::numeric_limits<double>::infinity());
    EXPECT_FALSE(model.Validate().ok());
  }
}

TEST(LpModelTest, ObjectiveValue) {
  LpModel model(ObjectiveSense::kMaximize);
  model.AddVariable(0.0, kInfinity, 3.0);
  model.AddVariable(0.0, kInfinity, -1.0);
  EXPECT_DOUBLE_EQ(model.ObjectiveValue({2.0, 4.0}), 2.0);
}

TEST(LpModelTest, IsFeasibleChecksBounds) {
  LpModel model;
  model.AddVariable(0.0, 5.0, 0.0);
  ASSERT_TRUE(model.Validate().ok());
  EXPECT_TRUE(model.IsFeasible({3.0}, 1e-9));
  EXPECT_FALSE(model.IsFeasible({-0.1}, 1e-9));
  EXPECT_FALSE(model.IsFeasible({5.1}, 1e-9));
  EXPECT_TRUE(model.IsFeasible({5.0 + 1e-12}, 1e-9));
}

TEST(LpModelTest, IsFeasibleChecksAllSenses) {
  LpModel model;
  int x = model.AddVariable(-kInfinity, kInfinity, 0.0);
  int le = model.AddConstraint(ConstraintSense::kLessEqual, 2.0);
  int ge = model.AddConstraint(ConstraintSense::kGreaterEqual, -1.0);
  int eq = model.AddConstraint(ConstraintSense::kEqual, 1.0);
  model.AddCoefficient(le, x, 1.0);
  model.AddCoefficient(ge, x, 1.0);
  model.AddCoefficient(eq, x, 1.0);
  ASSERT_TRUE(model.Validate().ok());
  EXPECT_TRUE(model.IsFeasible({1.0}, 1e-9));
  EXPECT_FALSE(model.IsFeasible({2.0}, 1e-9));   // violates equality
  EXPECT_FALSE(model.IsFeasible({-2.0}, 1e-9));  // violates >=
}

TEST(LpModelTest, IntegerFlag) {
  LpModel model;
  int x = model.AddVariable(0.0, 1.0, 1.0, /*is_integer=*/true);
  EXPECT_TRUE(model.variable(x).is_integer);
}

}  // namespace
}  // namespace lp
}  // namespace privsan

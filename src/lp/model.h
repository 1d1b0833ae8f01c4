// Linear / integer program model builder.
//
// privsan implements its own optimization stack (the paper solves its UMPs
// with Matlab linprog/bintprog and NEOS solvers, none of which are
// available here). LpModel is the shared problem representation consumed by
// the simplex solver (lp/simplex.h) and branch & bound (lp/branch_and_bound.h).
//
//   LpModel model(ObjectiveSense::kMaximize);
//   int x = model.AddVariable(0, kInfinity, /*objective=*/1.0);
//   int r = model.AddConstraint(ConstraintSense::kLessEqual, 4.0);
//   model.AddCoefficient(r, x, 2.0);
#ifndef PRIVSAN_LP_MODEL_H_
#define PRIVSAN_LP_MODEL_H_

#include <limits>
#include <vector>

#include "util/result.h"

namespace privsan {
namespace lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class ObjectiveSense { kMinimize, kMaximize };
enum class ConstraintSense { kLessEqual, kGreaterEqual, kEqual };

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  bool is_integer = false;
};

struct Coefficient {
  int variable = 0;
  double value = 0.0;
};

struct Constraint {
  ConstraintSense sense = ConstraintSense::kLessEqual;
  double rhs = 0.0;
  std::vector<Coefficient> entries;  // column indices strictly increasing
};

class LpModel {
 public:
  explicit LpModel(ObjectiveSense sense = ObjectiveSense::kMinimize)
      : sense_(sense) {}

  ObjectiveSense sense() const { return sense_; }
  void set_sense(ObjectiveSense sense) { sense_ = sense; }

  // Returns the new variable's index.
  int AddVariable(double lower, double upper, double objective,
                  bool is_integer = false);

  // Returns the new constraint's index.
  int AddConstraint(ConstraintSense sense, double rhs);

  // Accumulates `value` onto A[row][col]. Entries may be added in any order;
  // duplicates are summed at Validate()/solve time.
  void AddCoefficient(int row, int col, double value);

  // Rebinds row r's right-hand side in place. The sparsity pattern is
  // untouched, so a model stays Validate()d across rhs changes — the kept
  // F-UMP model rebinds the privacy budget and |O| this way between solves.
  void set_constraint_rhs(int r, double rhs) { constraints_[r].rhs = rhs; }

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }
  // Total coefficient entries across all rows (exact after Validate(),
  // which merges duplicates and drops explicit zeros).
  size_t num_nonzeros() const;
  const Variable& variable(int j) const { return variables_[j]; }
  Variable& mutable_variable(int j) { return variables_[j]; }
  const Constraint& constraint(int r) const { return constraints_[r]; }

  // Sorts and merges duplicate coefficients in every row (dropping entries
  // that cancel to zero), then checks: finite coefficients/rhs/objective,
  // lower <= upper, indices in range.
  Status Validate();

  // Objective value of a point in this model's sense.
  double ObjectiveValue(const std::vector<double>& x) const;

  // Whether `x` satisfies all constraints and bounds within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol) const;

 private:
  ObjectiveSense sense_;
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_MODEL_H_

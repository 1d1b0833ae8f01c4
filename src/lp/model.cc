#include "lp/model.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.h"

namespace privsan {
namespace lp {

int LpModel::AddVariable(double lower, double upper, double objective,
                         bool is_integer) {
  variables_.push_back(Variable{lower, upper, objective, is_integer});
  return static_cast<int>(variables_.size()) - 1;
}

int LpModel::AddConstraint(ConstraintSense sense, double rhs) {
  constraints_.push_back(Constraint{sense, rhs, {}});
  return static_cast<int>(constraints_.size()) - 1;
}

void LpModel::AddCoefficient(int row, int col, double value) {
  PRIVSAN_CHECK(row >= 0 && row < num_constraints());
  PRIVSAN_CHECK(col >= 0 && col < num_variables());
  constraints_[row].entries.push_back(Coefficient{col, value});
}

Status LpModel::Validate() {
  for (int j = 0; j < num_variables(); ++j) {
    const Variable& v = variables_[j];
    if (std::isnan(v.lower) || std::isnan(v.upper) ||
        !std::isfinite(v.objective)) {
      return Status::InvalidArgument("variable " + std::to_string(j) +
                                     " has NaN bound or non-finite objective");
    }
    if (v.lower > v.upper) {
      return Status::InvalidArgument("variable " + std::to_string(j) +
                                     " has lower > upper");
    }
  }
  for (int r = 0; r < num_constraints(); ++r) {
    Constraint& c = constraints_[r];
    if (!std::isfinite(c.rhs)) {
      return Status::InvalidArgument("constraint " + std::to_string(r) +
                                     " has non-finite rhs");
    }
    for (const Coefficient& entry : c.entries) {
      if (entry.variable < 0 || entry.variable >= num_variables()) {
        return Status::InvalidArgument("constraint " + std::to_string(r) +
                                       " references unknown variable");
      }
      if (!std::isfinite(entry.value)) {
        return Status::InvalidArgument("constraint " + std::to_string(r) +
                                       " has non-finite coefficient");
      }
    }
    std::sort(c.entries.begin(), c.entries.end(),
              [](const Coefficient& a, const Coefficient& b) {
                return a.variable < b.variable;
              });
    // Merge duplicates in place, then drop entries that cancelled to zero
    // (presolve's singleton/empty-row detection relies on live counts).
    size_t out = 0;
    for (size_t i = 0; i < c.entries.size(); ++i) {
      if (out > 0 && c.entries[out - 1].variable == c.entries[i].variable) {
        c.entries[out - 1].value += c.entries[i].value;
      } else {
        c.entries[out++] = c.entries[i];
      }
    }
    c.entries.resize(out);
    std::erase_if(c.entries,
                  [](const Coefficient& e) { return e.value == 0.0; });
  }
  return Status::OK();
}

size_t LpModel::num_nonzeros() const {
  size_t count = 0;
  for (const Constraint& c : constraints_) count += c.entries.size();
  return count;
}

double LpModel::ObjectiveValue(const std::vector<double>& x) const {
  PRIVSAN_CHECK(x.size() == variables_.size());
  double value = 0.0;
  for (size_t j = 0; j < variables_.size(); ++j) {
    value += variables_[j].objective * x[j];
  }
  return value;
}

bool LpModel::IsFeasible(const std::vector<double>& x, double tol) const {
  PRIVSAN_CHECK(x.size() == variables_.size());
  for (size_t j = 0; j < variables_.size(); ++j) {
    if (x[j] < variables_[j].lower - tol || x[j] > variables_[j].upper + tol) {
      return false;
    }
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const Coefficient& entry : c.entries) {
      lhs += entry.value * x[entry.variable];
    }
    switch (c.sense) {
      case ConstraintSense::kLessEqual:
        if (lhs > c.rhs + tol) return false;
        break;
      case ConstraintSense::kGreaterEqual:
        if (lhs < c.rhs - tol) return false;
        break;
      case ConstraintSense::kEqual:
        if (std::abs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace lp
}  // namespace privsan

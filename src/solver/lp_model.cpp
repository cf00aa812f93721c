#include "solver/lp_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ovnes::solver {

int LpModel::add_variable(std::string name, double lower, double upper,
                          double cost) {
  if (lower > upper) {
    throw std::invalid_argument("LpModel: variable '" + name +
                                "' has lower > upper");
  }
  if (lower == -kInf && upper == kInf) {
    throw std::invalid_argument(
        "LpModel: variable '" + name +
        "' is fully free; give it at least one finite bound");
  }
  vars_.push_back(Variable{std::move(name), lower, upper, cost, false, 0});
  return num_vars() - 1;
}

int LpModel::add_binary(std::string name, double cost, int branch_priority) {
  const int j = add_variable(std::move(name), 0.0, 1.0, cost);
  vars_[static_cast<size_t>(j)].is_integer = true;
  vars_[static_cast<size_t>(j)].branch_priority = branch_priority;
  return j;
}

int LpModel::add_row(std::string name, RowSense sense, double rhs,
                     std::vector<Coef> coefs) {
  for (const Coef& c : coefs) {
    if (c.var < 0 || c.var >= num_vars()) {
      throw std::out_of_range("LpModel: row '" + name +
                              "' references unknown variable");
    }
  }
  // Merge duplicates so callers can accumulate terms naively. The sort is
  // stable, so each var's terms are summed in input order: the same
  // rounding as accumulating them one by one.
  const auto by_var = [](const Coef& a, const Coef& b) {
    return a.var < b.var;
  };
  if (!std::is_sorted(coefs.begin(), coefs.end(), by_var)) {
    if (coefs.size() > 32) {
      std::stable_sort(coefs.begin(), coefs.end(), by_var);
    } else {
      for (size_t k = 1; k < coefs.size(); ++k) {
        const Coef c = coefs[k];
        size_t p = k;
        for (; p > 0 && c.var < coefs[p - 1].var; --p) {
          coefs[p] = coefs[p - 1];
        }
        coefs[p] = c;
      }
    }
  }
  for (size_t k = 0; k < coefs.size();) {
    const int var = coefs[k].var;
    double sum = coefs[k].value;
    for (++k; k < coefs.size() && coefs[k].var == var; ++k) {
      sum += coefs[k].value;
    }
    if (sum != 0.0) coefs_.push_back({var, sum});
  }
  row_ptr_.push_back(static_cast<int>(coefs_.size()));
  row_names_.push_back(std::move(name));
  row_senses_.push_back(sense);
  row_rhs_.push_back(rhs);
  return num_rows() - 1;
}

void LpModel::truncate_rows(int num_rows) {
  if (num_rows < 0 || num_rows > this->num_rows()) {
    throw std::out_of_range("LpModel: truncate_rows beyond current rows");
  }
  const auto nr = static_cast<size_t>(num_rows);
  coefs_.resize(static_cast<size_t>(row_ptr_[nr]));
  row_ptr_.resize(nr + 1);
  row_names_.resize(nr);
  row_senses_.resize(nr);
  row_rhs_.resize(nr);
}

void LpModel::set_bounds(int var, double lower, double upper) {
  assert(var >= 0 && var < num_vars());
  if (lower > upper) throw std::invalid_argument("LpModel: lower > upper");
  vars_[static_cast<size_t>(var)].lower = lower;
  vars_[static_cast<size_t>(var)].upper = upper;
}

std::vector<int> LpModel::integer_vars() const {
  std::vector<int> out;
  for (int j = 0; j < num_vars(); ++j) {
    if (vars_[static_cast<size_t>(j)].is_integer) out.push_back(j);
  }
  return out;
}

double LpModel::objective_value(const std::vector<double>& x) const {
  assert(static_cast<int>(x.size()) == num_vars());
  double obj = 0.0;
  for (int j = 0; j < num_vars(); ++j) {
    obj += vars_[static_cast<size_t>(j)].cost * x[static_cast<size_t>(j)];
  }
  return obj;
}

double LpModel::max_violation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (int i = 0; i < num_rows(); ++i) {
    const RowView r = row(i);
    double lhs = 0.0;
    for (const Coef& c : r.coefs) lhs += c.value * x[static_cast<size_t>(c.var)];
    double v = 0.0;
    switch (r.sense) {
      case RowSense::LessEq: v = lhs - r.rhs; break;
      case RowSense::GreaterEq: v = r.rhs - lhs; break;
      case RowSense::Equal: v = std::abs(lhs - r.rhs); break;
    }
    worst = std::max(worst, v);
  }
  for (int j = 0; j < num_vars(); ++j) {
    const Variable& v = vars_[static_cast<size_t>(j)];
    worst = std::max(worst, v.lower - x[static_cast<size_t>(j)]);
    worst = std::max(worst, x[static_cast<size_t>(j)] - v.upper);
  }
  return worst;
}

}  // namespace ovnes::solver

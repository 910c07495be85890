#pragma once
// Small dense linear algebra for the fitting substrate.
//
// Levenberg-Marquardt needs only the normal equations J^T J, J^T r and a
// symmetric positive-definite solve of a handful of unknowns (<= 6 model
// parameters), and the linear energy constants are a three-variable
// non-negative least-squares problem (nnls3), so a compact row-major
// matrix with Cholesky is all we carry — implemented from scratch, no
// external dependencies.

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace archline::fit {

/// Dense row-major matrix of doubles.
class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The normal equations of ||A x - y||^2: A^T A into `ata` (n x n, n =
/// a.cols()) and A^T y into `aty` (n entries), in one pass over A's rows.
/// Each entry has its own accumulator, summed from 0.0 in row order, so it
/// equals the spelled-out serial sum over the rows bit for bit; the lower
/// triangle of `ata` mirrors the upper. Throws std::invalid_argument when
/// y, ata or aty do not fit A.
void normal_equations(const Mat& a, std::span<const double> y, Mat& ata,
                      std::span<double> aty);

/// Solves S x = b for symmetric positive-definite S via Cholesky, into
/// `x`, with `factor` (n x n) as the scratch for the lower factor; `x`
/// may not alias `b`. Returns false, with `x` unspecified, when S is not
/// positive definite. Allocates nothing.
[[nodiscard]] bool try_cholesky_solve(const Mat& s, std::span<const double> b,
                                      Mat& factor, std::span<double> x);

/// try_cholesky_solve into a new vector. Throws std::invalid_argument on
/// a dimension mismatch and std::runtime_error if S is not positive
/// definite.
[[nodiscard]] std::vector<double> cholesky_solve(const Mat& s,
                                                 std::span<const double> b);

/// Squared Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> x) noexcept;

/// Non-negative least squares in x = (eps_flop, eps_mem, pi1), given the
/// Gram matrix G = A^T A and A^T b of the linear rows ||A x - b||^2. The
/// optimum is the least-squares solution over one of the 7 nonempty sets
/// of free constants (the rest held at 0), so solving each set's normal
/// equations and keeping the feasible solution that `score` ranks lowest
/// is exact. The columns are scaled to unit norm first: eps is ~1e-10 J
/// and pi1 ~10 W. `score(x)` is the full objective at x. Returns the
/// lowest score (infinity when no set is feasible) and its x in `best`;
/// the constants it left free are the positive entries of `best`.
template <typename Score>
double nnls3(const Mat& g, std::span<const double> atb, Score score,
             std::array<double, 3>& best) {
  double scale[3];
  for (std::size_t c = 0; c < 3; ++c) scale[c] = 1.0 / std::sqrt(g(c, c));
  double best_score = std::numeric_limits<double>::infinity();
  for (unsigned set = 1; set < 8; ++set) {
    std::vector<std::size_t> free;
    for (std::size_t c = 0; c < 3; ++c)
      if (set & (1u << c)) free.push_back(c);
    Mat s(free.size(), free.size());
    std::vector<double> rhs(free.size());
    for (std::size_t i = 0; i < free.size(); ++i) {
      for (std::size_t j = 0; j < free.size(); ++j)
        s(i, j) = g(free[i], free[j]) * scale[free[i]] * scale[free[j]];
      rhs[i] = atb[free[i]] * scale[free[i]];
    }
    std::vector<double> y;
    try {
      y = cholesky_solve(s, rhs);
    } catch (const std::runtime_error&) {
      continue;  // these columns are linearly dependent
    }
    std::array<double, 3> x = {0.0, 0.0, 0.0};
    bool feasible = true;
    for (std::size_t i = 0; i < free.size(); ++i) {
      x[free[i]] = y[i] * scale[free[i]];
      feasible = feasible && x[free[i]] > 0.0;
    }
    if (!feasible) continue;
    const double f = score(x);
    if (f < best_score) {
      best_score = f;
      best = x;
    }
  }
  return best_score;
}

}  // namespace archline::fit

// Dense row-major 2D matrix with bounds-checked access.
//
// Used for transition-count matrices (Markov predictor), landmark
// adjacency/bandwidth matrices and distance-vector delay tables.
#pragma once

#include <cstddef>
#include <vector>

#include "util/assert.hpp"

namespace dtn {

template <typename T>
class FlatMatrix {
 public:
  FlatMatrix() = default;
  FlatMatrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T& at(std::size_t r, std::size_t c) {
    DTN_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& at(std::size_t r, std::size_t c) const {
    DTN_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  void fill(const T& value) { std::fill(data_.begin(), data_.end(), value); }

  /// Sum over one row (requires T to be additive).
  [[nodiscard]] T row_sum(std::size_t r) const {
    DTN_ASSERT(r < rows_);
    T acc{};
    for (std::size_t c = 0; c < cols_; ++c) acc += data_[r * cols_ + c];
    return acc;
  }

  [[nodiscard]] const std::vector<T>& raw() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace dtn

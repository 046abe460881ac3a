#include "nn/tensor.hpp"

#include <cmath>
#include <stdexcept>

namespace gddr::nn {

Tensor::Tensor(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0F) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("negative shape");
}

Tensor::Tensor(int rows, int cols, float fill_value) : Tensor(rows, cols) {
  fill(fill_value);
}

Tensor Tensor::row(std::span<const double> values) {
  Tensor t(1, static_cast<int>(values.size()));
  for (size_t i = 0; i < values.size(); ++i) {
    t.data_[i] = static_cast<float>(values[i]);
  }
  return t;
}

Tensor Tensor::row(std::initializer_list<float> values) {
  Tensor t(1, static_cast<int>(values.size()));
  size_t i = 0;
  for (float v : values) t.data_[i++] = v;
  return t;
}

Tensor Tensor::zeros_like(const Tensor& other) {
  return Tensor(other.rows_, other.cols_);
}

std::string Tensor::shape_str() const {
  // Appended piece by piece: GCC 12's -O3 inlining of
  // "[" + std::to_string(...) raises a false -Wrestrict warning.
  std::string out = "[";
  out += std::to_string(rows_);
  out += 'x';
  out += std::to_string(cols_);
  out += ']';
  return out;
}

void Tensor::reshape_zero(int rows, int cols) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("negative shape");
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0F);
}

void Tensor::reshape_copy(int rows, int cols, std::span<const float> src) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("negative shape");
  if (src.size() != static_cast<size_t>(rows) * static_cast<size_t>(cols)) {
    throw std::invalid_argument("reshape_copy: size mismatch");
  }
  rows_ = rows;
  cols_ = cols;
  data_.assign(src.begin(), src.end());
}

void Tensor::fill(float value) {
  for (float& v : data_) v = value;
}

void Tensor::add_in_place(const Tensor& other) {
  if (!same_shape(other)) {
    throw std::invalid_argument("add_in_place: shape mismatch " +
                                shape_str() + " vs " + other.shape_str());
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::scale_in_place(float factor) {
  for (float& v : data_) v *= factor;
}

double Tensor::squared_norm() const {
  double sum = 0.0;
  for (float v : data_) sum += static_cast<double>(v) * v;
  return sum;
}

void Tensor::fill_uniform(util::Rng& rng, double bound) {
  for (float& v : data_) {
    v = static_cast<float>(rng.uniform(-bound, bound));
  }
}

}  // namespace gddr::nn

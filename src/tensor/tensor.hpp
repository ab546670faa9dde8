// Dense float tensor with shared, copy-on-write storage: copies alias
// one buffer, and set, set4 and mutable_values unshare aliased storage
// before writing (clone copies eagerly).  Values are stored as float;
// the active inference datatype is a property of the *executor*, which
// quantises operator outputs through the DType codec (see dtype.hpp).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "tensor/shape.hpp"

namespace rangerpp::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);                            // zero-filled
  Tensor(Shape shape, std::vector<float> values);          // takes ownership

  static Tensor full(Shape shape, float value);
  static Tensor scalar(float value);

  const Shape& shape() const { return shape_; }
  std::size_t elements() const { return shape_.elements(); }
  bool empty() const { return !data_ || data_->empty(); }

  std::span<const float> values() const;
  std::span<float> mutable_values();  // unshares if aliased

  float at(std::size_t i) const;
  void set(std::size_t i, float v);

  // NHWC element access for rank-4 tensors (n is asserted to be 0 in
  // inference paths where batch is 1).
  float at4(int n, int h, int w, int c) const;
  void set4(int n, int h, int w, int c, float v);

  // Deep copy.
  Tensor clone() const;

  // Identity of the underlying storage (caches key on this to detect feed
  // reuse; holding the pointer pins the storage so the address stays
  // unique and copy-on-write protects against in-place mutation).
  std::shared_ptr<const std::vector<float>> storage() const { return data_; }

  // Returns a tensor sharing this storage but with a different shape of the
  // same element count (Reshape/Flatten are views).
  Tensor reshaped(Shape new_shape) const;

 private:
  std::size_t index4(int n, int h, int w, int c) const;
  void ensure_unique();

  Shape shape_;
  std::shared_ptr<std::vector<float>> data_;
};

}  // namespace rangerpp::tensor

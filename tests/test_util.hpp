// Shared helpers for the axsnn test suite.
#pragma once

#include <cmath>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "snn/layer.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::testing {

/// Same shape and same bytes: distinguishes -0 from +0 and compares NaN
/// payloads, which float == does not.
inline bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) ==
             0;
}

/// Computes a scalar "probe loss" L = sum(out ⊙ probe) for gradient checks;
/// dL/d(out) = probe.
inline float ProbeLoss(const Tensor& out, const Tensor& probe) {
  EXPECT_EQ(out.shape(), probe.shape());
  double s = 0.0;
  for (long i = 0; i < out.numel(); ++i) s += out[i] * probe[i];
  return static_cast<float>(s);
}

/// Central-difference numerical gradient of `loss_fn` with respect to the
/// elements of `param`, compared against `analytic` with tolerance `tol`.
/// `loss_fn` must re-run the full forward pass each call.
inline void CheckGradient(Tensor& param, const Tensor& analytic,
                          const std::function<float()>& loss_fn, float eps,
                          float tol, long max_checks = 64) {
  ASSERT_EQ(param.shape(), analytic.shape());
  const long n = param.numel();
  const long stride = std::max(1L, n / max_checks);
  for (long i = 0; i < n; i += stride) {
    const float saved = param[i];
    param[i] = saved + eps;
    const float up = loss_fn();
    param[i] = saved - eps;
    const float down = loss_fn();
    param[i] = saved;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(numeric, analytic[i], tol)
        << "gradient mismatch at flat index " << i;
  }
}

}  // namespace axsnn::testing

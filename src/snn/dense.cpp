#include "snn/dense.hpp"

#include <algorithm>

#include "approx/int8_backend.hpp"
#include "kernels/dense_kernels.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

Dense::Dense(std::string name, long in_features, long out_features, Rng& rng)
    : WeightLayer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features) {
  AXSNN_CHECK(in_features > 0 && out_features > 0,
              "Dense dimensions must be positive");
  InitWeights({out_features, in_features}, rng);
}

Shape Dense::OutputShape(const Shape& in) const {
  AXSNN_CHECK(!in.empty(), "Dense expects at least rank 1");
  const long numel = NumElements(in);
  // Accept [*, C, H, W] inputs too: anything after the [T, B] prefix is
  // flattened into features. We infer the prefix length from divisibility.
  AXSNN_CHECK(numel % in_features_ == 0,
              "Dense " << Name() << ": input numel " << numel
                       << " not divisible by in_features " << in_features_);
  const long n = numel / in_features_;
  // Output keeps the [T, B] prefix when present, else collapses to [n, F].
  if (in.size() >= 3) {
    AXSNN_CHECK(in[0] * in[1] == n,
                "Dense: [T, B] prefix does not match feature count");
    return {in[0], in[1], out_features_};
  }
  return {n, out_features_};
}

void Dense::SizeStepOutput(const Tensor& x, Tensor& out) {
  AXSNN_CHECK(x.numel() % in_features_ == 0,
              "Dense " << Name() << ": step input numel " << x.numel()
                       << " not divisible by in_features " << in_features_);
  const long n = x.numel() / in_features_;
  // Skip ResizeTo when the shape already matches: the temporary Shape it
  // takes would allocate on every timestep of an EventRunner::Run.
  if (out.rank() != 2 || out.dim(0) != n || out.dim(1) != out_features_)
    out.ResizeTo({n, out_features_});
}

void Dense::RunKernel(const Tensor& x, Tensor& out,
                      const kernels::PackedWords* packed) {
  if (int8_kernel()) {
    approx::Int8DenseForward(quantized_weight(), bias(), x, out,
                             kernel_mode(), scratch(), packed);
    return;
  }
  kernels::DenseForward(weight(), bias(), x, out, kernel_mode(), scratch(),
                        packed);
}

void Dense::BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                         GradRequest request) {
  AXSNN_CHECK(!cached_input().empty(),
              "Dense::Backward called before Forward");
  const Tensor& x = cached_input();
  const long n = x.numel() / in_features_;
  AXSNN_CHECK(grad_out.numel() == n * out_features_,
              "Dense::Backward gradient shape mismatch");

  const float* xd = x.data();
  const float* wd = weight().data();
  const float* gd = grad_out.data();
  float* gwd = dweight().data();
  float* gbd = dbias().data();

  // dW/db: each iteration owns one output row of dweight.
  if (WantsParamGrads(request)) {
    runtime::ParallelFor(0, out_features_, [&](long o) {
      float* gw = gwd + o * in_features_;
      double gb = 0.0;
      for (long s = 0; s < n; ++s) {
        const float g = gd[s * out_features_ + o];
        if (g == 0.0f) continue;
        gb += g;
        const float* xs = xd + s * in_features_;
        for (long i = 0; i < in_features_; ++i) gw[i] += g * xs[i];
      }
      gbd[o] += static_cast<float>(gb);
    });
  }

  if (!WantsInputGrad(request)) return;
  grad_in.ResizeTo(x.shape());
  float* gid = grad_in.data();
  // dX: each iteration owns one sample row of grad_in.
  runtime::ParallelFor(0, n, [&](long s) {
    const float* gs = gd + s * out_features_;
    float* gi = gid + s * in_features_;
    std::fill(gi, gi + in_features_, 0.0f);
    for (long o = 0; o < out_features_; ++o) {
      const float g = gs[o];
      if (g == 0.0f) continue;
      const float* wr = wd + o * in_features_;
      for (long i = 0; i < in_features_; ++i) gi[i] += g * wr[i];
    }
  });
}

std::unique_ptr<Layer> Dense::Clone() const { return CloneAs<Dense>(); }

}  // namespace axsnn::snn

#include "snn/lif_layer.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {
namespace {

/// One membrane update: integrates input `x` into `carry` (the post-reset
/// membrane) and returns u[t]. `carry` leaves as the membrane step t+1
/// integrates from — v_reset after a spike (hard reset), else u[t].
inline float Integrate(float& carry, float x, const LifParams& p) {
  const float u = p.beta * carry + x;
  carry = u >= p.v_threshold ? p.v_reset : u;
  return u;
}

/// One timestep of `len` neurons: the step body of both ForwardInto and
/// ForwardStep. Branch-free so it vectorizes; kStoreMembrane adds the
/// Backward cache store.
template <bool kStoreMembrane>
void Step(const float* __restrict x, float* __restrict s,
          float* __restrict carry, float* __restrict u, long len,
          LifParams p) {
  for (long i = 0; i < len; ++i) {
    const float u_t = Integrate(carry[i], x[i], p);
    s[i] = u_t >= p.v_threshold ? 1.0f : 0.0f;
    if constexpr (kStoreMembrane) u[i] = u_t;
  }
}

/// One reverse timestep of `len` neurons. With hard reset,
///   u[t+1] = beta * (1 - s[t]) * u[t] + beta * v_reset * s[t] + x[t+1]
/// so d u[t+1]/d u[t] = beta (1 - s[t]) and
///    d u[t+1]/d s[t] = beta (v_reset - u[t]).
/// `du_next` enters as dL/du[t+1] and leaves as dL/du[t]; s[t] is
/// recomputed from the cached membrane exactly as the forward derived it.
void BackStep(const float* __restrict u, const float* __restrict g,
              float* __restrict gi, float* __restrict du_next, long len,
              LifParams p) {
  for (long i = 0; i < len; ++i) {
    const float u_t = u[i];
    const float s_t = u_t >= p.v_threshold ? 1.0f : 0.0f;
    // Total gradient reaching the spike s[t]: from the layer output and
    // from the reset path of the next membrane update.
    const float ds = g[i] + du_next[i] * p.beta * (p.v_reset - u_t);
    // Spike -> membrane via surrogate; plus the leak path from u[t+1].
    const float du =
        ds * SurrogateGrad(u_t, p.v_threshold, p.surrogate_alpha) +
        du_next[i] * p.beta * (1.0f - s_t);
    gi[i] = du;  // du[t]/dx[t] = 1
    du_next[i] = du;
  }
}

/// Throws unless `shape` is time-major [T, B, F...] with T > 0: the
/// recursion divides the element count by T.
void CheckTimeMajor(const Shape& shape) {
  AXSNN_CHECK(shape.size() >= 2 && shape[0] > 0,
              "LifLayer expects [T, B, F...] with T > 0");
}

/// The first `n` floats of the carry buffer, grown (never shrunk) to fit.
float* CarrySlots(std::vector<float>& carry, long n) {
  if (carry.size() < static_cast<std::size_t>(n))
    carry.resize(static_cast<std::size_t>(n));
  return carry.data();
}

}  // namespace

LifLayer::LifLayer(std::string name, LifParams params)
    : name_(std::move(name)), params_(params) {
  params_.Validate();
}

void LifLayer::set_params(LifParams params) {
  params.Validate();
  params_ = params;
  cached_membrane_ = Tensor();
}

void LifLayer::set_params_raw(LifParams params) {
  params_ = params;  // no Validate(): faulted values pass through verbatim
  cached_membrane_ = Tensor();
}

Shape LifLayer::OutputShape(const Shape& in) const {
  CheckTimeMajor(in);
  return in;
}

void LifLayer::ForwardInto(const Tensor& x, Tensor& out, bool train) {
  SizeOutput(x, out);
  const long t_steps = x.dim(0);
  const long n = x.numel() / t_steps;  // neurons x batch

  float* ud = nullptr;
  if (train || grad_cache()) {
    cached_membrane_.ResizeTo(x.shape());
    ud = cached_membrane_.data();
  } else {
    cached_membrane_ = Tensor();  // Backward after an uncached pass throws
  }
  const float* xd = x.data();
  float* od = out.data();
  float* cd = CarrySlots(carry_, n);
  const LifParams p = params_;
  // The time recursion is sequential; parallelism is across neurons. Each
  // fixed chunk runs t outermost over its own neurons and carry slice, so
  // every step reads and writes contiguous plane rows.
  runtime::ParallelForChunks(0, n, [&](long /*chunk*/, long lo, long hi) {
    const long len = hi - lo;
    std::fill(cd + lo, cd + hi, 0.0f);
    for (long t = 0; t < t_steps; ++t) {
      const long off = t * n + lo;
      if (ud != nullptr) {
        Step<true>(xd + off, od + off, cd + lo, ud + off, len, p);
      } else {
        Step<false>(xd + off, od + off, cd + lo, nullptr, len, p);
      }
    }
  });
}

void LifLayer::ForwardStep(const Tensor& x, Tensor& out, StepContext& ctx) {
  out.ResizeTo(x.shape());
  const long n = x.numel();
  // Stepped runs never feed Backward: drop the BPTT cache so a Backward
  // call throws instead of differentiating a stale dense-path forward.
  cached_membrane_ = Tensor();

  const float* xd = x.data();
  float* od = out.data();
  float* cd = CarrySlots(carry_, n);
  const LifParams p = params_;
  const bool first = ctx.t == 0;
  // ForwardInto's chunk body for one t: the carry enters as step t's
  // post-reset membrane (zero at step 0), so the output is bit-identical
  // to ForwardInto's slice t.
  runtime::ParallelForChunks(0, n, [&](long /*chunk*/, long lo, long hi) {
    if (first) std::fill(cd + lo, cd + hi, 0.0f);
    Step<false>(xd + lo, od + lo, cd + lo, nullptr, hi - lo, p);
  });

  if (ctx.out != nullptr) {
    if (ctx.out->batch() * ctx.out->plane() == n) {
      ctx.out->PackFrom(od);
    } else {
      ctx.out->Invalidate();
    }
  }
}

void LifLayer::BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                            GradRequest request) {
  AXSNN_CHECK(!cached_membrane_.empty(),
              "LifLayer::Backward called before a cached Forward (train, or "
              "grad_cache on)");
  const Tensor& u = cached_membrane_;
  AXSNN_CHECK(grad_out.shape() == u.shape(),
              "LifLayer::Backward gradient shape mismatch");
  if (!WantsInputGrad(request)) return;  // no parameters

  const long t_steps = u.dim(0);
  const long n = u.numel() / t_steps;
  grad_in.ResizeTo(u.shape());

  const float* ud = u.data();
  const float* gd = grad_out.data();
  float* gi = grad_in.data();
  float* cd = CarrySlots(carry_, n);
  const LifParams p = params_;
  // Reverse-time recursion, chunk-outer like the forward: the carry slice
  // holds dL/du[t+1] for the chunk's neurons.
  runtime::ParallelForChunks(0, n, [&](long /*chunk*/, long lo, long hi) {
    const long len = hi - lo;
    std::fill(cd + lo, cd + hi, 0.0f);
    for (long t = t_steps - 1; t >= 0; --t) {
      const long off = t * n + lo;
      BackStep(ud + off, gd + off, gi + off, cd + lo, len, p);
    }
  });
}

LifStatistics LifLayer::Statistics(const Tensor& x) const {
  CheckTimeMajor(x.shape());
  const long t_steps = x.dim(0);
  const long n = x.numel() / t_steps;
  const float* xd = x.data();
  const LifParams p = params_;

  // Neuron-major with t inner, per fixed chunk, partials combined in chunk
  // order. Double sums depend on their order, and this is the order the
  // Eq. (1) calibration is defined by: keeping it keeps the thresholds,
  // and every approximate variant built on them, bit-identical.
  const long grain = runtime::DefaultGrain(n);
  std::vector<std::array<double, 3>> partials(
      static_cast<std::size_t>(runtime::NumChunks(n, grain)));
  runtime::ParallelForChunks(
      0, n,
      [&](long chunk, long lo, long hi) {
        double spikes = 0.0;
        double membrane = 0.0;
        double drive = 0.0;
        for (long i = lo; i < hi; ++i) {
          float carry = 0.0f;
          for (long t = 0; t < t_steps; ++t) {
            const float u_t = Integrate(carry, xd[t * n + i], p);
            spikes += u_t >= p.v_threshold ? 1.0f : 0.0f;
            membrane += u_t;
            if (u_t > 0.0f) drive += u_t;
          }
        }
        partials[static_cast<std::size_t>(chunk)] = {spikes, membrane, drive};
      },
      grain);

  LifStatistics stats;
  double total_membrane = 0.0;
  double total_drive = 0.0;
  for (const auto& part : partials) {
    stats.total_spikes += part[0];
    total_membrane += part[1];
    total_drive += part[2];
  }
  const double count = static_cast<double>(x.numel());
  stats.mean_rate = static_cast<float>(stats.total_spikes / count);
  stats.mean_membrane = static_cast<float>(total_membrane / count);
  stats.mean_drive = static_cast<float>(total_drive / count);
  return stats;
}

std::unique_ptr<Layer> LifLayer::Clone() const {
  return std::make_unique<LifLayer>(name_, params_);
}

}  // namespace axsnn::snn

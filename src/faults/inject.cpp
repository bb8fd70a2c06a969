#include "faults/inject.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "snn/lif_layer.hpp"
#include "snn/weight_layer.hpp"
#include "tensor/check.hpp"
#include "tensor/random.hpp"

namespace axsnn::faults {
namespace {

/// How a surface word is encoded in memory.
enum class WordEnc { kF32, kF16, kI8 };

int WordBits(WordEnc enc) {
  switch (enc) {
    case WordEnc::kF32:
      return 32;
    case WordEnc::kF16:
      return 16;
    case WordEnc::kI8:
      return 8;
  }
  return 32;
}

/// One contiguous word array of the bit surface. Raw pointers into the
/// network (or a neuron staging buffer); valid for the injection call only.
struct SurfaceSpan {
  long layer = 0;
  WeightTarget target = WeightTarget::kFloatWeights;
  WordEnc enc = WordEnc::kF32;
  float* f = nullptr;        // kF32 / kF16 storage
  std::int8_t* q = nullptr;  // kI8 storage
  long count = 0;
};

bool WantTarget(WeightTarget filter, WeightTarget t) {
  return filter == WeightTarget::kAny || filter == t;
}

/// Weight-domain surface: per weight-layer (Conv2d/Dense) ordinal, the
/// arrays the variant actually stores. Layer filter -1 keeps all ordinals.
std::vector<SurfaceSpan> WeightSpans(snn::Network& net, long layer_filter,
                                     WeightTarget target_filter,
                                     approx::Precision precision) {
  std::vector<SurfaceSpan> spans;
  long ordinal = 0;
  const WordEnc float_enc =
      precision == approx::Precision::kFp16 ? WordEnc::kF16 : WordEnc::kF32;
  for (std::size_t i = 0; i < net.size(); ++i) {
    auto* layer = dynamic_cast<snn::WeightLayer*>(&net.layer(i));
    if (layer == nullptr) continue;
    const long l = ordinal++;
    if (layer_filter >= 0 && l != layer_filter) continue;
    Tensor* weight = &layer->weight();
    QuantizedTensor* snapshot =
        layer->int8_kernel() ? &layer->quantized_weight() : nullptr;
    if (snapshot != nullptr) {
      // Integer execution: the hardware holds codes + scale words, not the
      // float master copy — that is the surface a fault lands on.
      if (WantTarget(target_filter, WeightTarget::kInt8Codes) &&
          !snapshot->empty()) {
        spans.push_back({l, WeightTarget::kInt8Codes, WordEnc::kI8, nullptr,
                         snapshot->mutable_flat().data(),
                         snapshot->numel()});
      }
      if (WantTarget(target_filter, WeightTarget::kInt8Scales) &&
          snapshot->rows() > 0) {
        spans.push_back({l, WeightTarget::kInt8Scales, WordEnc::kF32,
                         snapshot->mutable_scales().data(), nullptr,
                         snapshot->rows()});
      }
    } else if (WantTarget(target_filter, WeightTarget::kFloatWeights) &&
               weight->numel() > 0) {
      spans.push_back({l, WeightTarget::kFloatWeights, float_enc,
                       weight->data(), nullptr, weight->numel()});
    }
  }
  return spans;
}

/// Neuron-parameter staging: Vth and leak of each LIF, two fp32 words per
/// ordinal, mutated in a buffer and flushed via set_params_raw afterwards.
struct NeuronBuf {
  snn::LifLayer* lif = nullptr;
  float vals[2] = {0.0f, 0.0f};  // [0] = v_threshold, [1] = beta (leak)
};

std::vector<SurfaceSpan> NeuronSpans(snn::Network& net, long layer_filter,
                                     std::vector<NeuronBuf>& bufs) {
  bufs.clear();
  const std::vector<snn::LifLayer*> lifs = net.LifLayers();
  bufs.reserve(lifs.size());
  std::vector<SurfaceSpan> spans;
  for (std::size_t i = 0; i < lifs.size(); ++i) {
    const long l = static_cast<long>(i);
    if (layer_filter >= 0 && l != layer_filter) continue;
    NeuronBuf buf;
    buf.lif = lifs[i];
    buf.vals[0] = lifs[i]->params().v_threshold;
    buf.vals[1] = lifs[i]->params().beta;
    bufs.push_back(buf);
    spans.push_back({l, WeightTarget::kFloatWeights, WordEnc::kF32,
                     bufs.back().vals, nullptr, 2});
  }
  // bufs must not reallocate after spans captured pointers into it.
  return spans;
}

void CorruptWord(const SurfaceSpan& s, long w, int bit,
                 const FaultModel& model) {
  switch (s.enc) {
    case WordEnc::kF32: {
      const auto word = std::bit_cast<std::uint32_t>(s.f[w]);
      s.f[w] = std::bit_cast<float>(model.Corrupt(word, 32, bit));
      return;
    }
    case WordEnc::kF16: {
      // The stored word of an FP16 variant is the binary16 pattern; encode,
      // corrupt the half-word, decode. Values already on the fp16 lattice
      // round-trip exactly (Fp16Bits mirrors Fp16Round), so the only change
      // is the fault itself.
      const std::uint16_t half = approx::Fp16Bits(s.f[w]);
      const auto corrupted = static_cast<std::uint16_t>(
          model.Corrupt(half, 16, bit) & 0xffffu);
      s.f[w] = approx::Fp16FromBits(corrupted);
      return;
    }
    case WordEnc::kI8: {
      const auto byte = static_cast<std::uint8_t>(s.q[w]);
      auto code = static_cast<std::int8_t>(
          static_cast<std::uint8_t>(model.Corrupt(byte, 8, bit) & 0xffu));
      // The symmetric lattice never stores -128 (negation must stay exact
      // and the SIMD abs/sign kernels rely on it); a fault that produces it
      // lands on the nearest representable cell.
      if (code == std::int8_t{-128}) code = std::int8_t{-127};
      s.q[w] = code;
      return;
    }
  }
}

long SurfaceBits(const std::vector<SurfaceSpan>& spans) {
  long bits = 0;
  for (const SurfaceSpan& s : spans) bits += s.count * WordBits(s.enc);
  return bits;
}

long SurfaceWords(const std::vector<SurfaceSpan>& spans) {
  long words = 0;
  for (const SurfaceSpan& s : spans) words += s.count;
  return words;
}

/// Installs the transient-activation hook: `flips` sites, each a (feature
/// lane, bit) pair corrupting one lane of one layer's activation at every
/// (timestep, batch) plane. Lane selectors are drawn as raw 64-bit hashes
/// and reduced mod the runtime feature size, so the corruption is the same
/// per sample at any eval batch size.
InjectionReport InstallActivationHook(snn::Network& net,
                                      const FaultSpec& spec, Rng& rng) {
  AXSNN_CHECK(net.size() > 0, "activation fault on an empty network");
  const auto layer =
      spec.layer >= 0
          ? static_cast<std::size_t>(spec.layer) % net.size()
          : static_cast<std::size_t>(rng.UniformInt(net.size()));
  struct HookSite {
    std::uint64_t lane_hash;
    int bit;
  };
  std::vector<HookSite> sites;
  sites.reserve(static_cast<std::size_t>(spec.flips));
  InjectionReport rep;
  rep.activation_hook = true;
  for (long i = 0; i < spec.flips; ++i) {
    HookSite site{rng.NextU64(),
                  spec.bit >= 0 ? spec.bit % 32
                                : static_cast<int>(rng.UniformInt(32))};
    sites.push_back(site);
    rep.applied.push_back({static_cast<long>(layer),
                           WeightTarget::kFloatWeights, 0, site.bit});
  }
  rep.sites = spec.flips;
  // shared_ptr: Network::PostLayerHook is a copyable std::function.
  std::shared_ptr<FaultModel> model = MakeFaultModel(spec);
  net.set_post_layer_hook(
      [sites = std::move(sites), model = std::move(model),
       layer](std::size_t li, Tensor& act) {
        if (li != layer || act.rank() < 2) return;
        const long prefix = act.dim(0) * act.dim(1);  // T * B planes
        if (prefix <= 0) return;
        const long feat = act.numel() / prefix;
        if (feat <= 0) return;
        float* d = act.data();
        for (const HookSite& s : sites) {
          const long lane = static_cast<long>(
              s.lane_hash % static_cast<std::uint64_t>(feat));
          for (long p = 0; p < prefix; ++p) {
            float& v = d[p * feat + lane];
            v = std::bit_cast<float>(
                model->Corrupt(std::bit_cast<std::uint32_t>(v), 32, s.bit));
          }
        }
      });
  return rep;
}

}  // namespace

InjectionReport ApplyFault(snn::Network& net, const FaultSpec& spec,
                           approx::Precision precision) {
  spec.Validate();
  InjectionReport rep;
  if (spec.is_none()) return rep;
  Rng rng(spec.seed);
  if (spec.domain == FaultDomain::kActivations)
    return InstallActivationHook(net, spec, rng);

  std::vector<NeuronBuf> bufs;
  const std::vector<SurfaceSpan> spans =
      spec.domain == FaultDomain::kWeights
          ? WeightSpans(net, spec.layer, spec.target, precision)
          : NeuronSpans(net, spec.layer, bufs);
  rep.surface_words = SurfaceWords(spans);
  rep.surface_bits = SurfaceBits(spans);
  if (rep.surface_words == 0) return rep;  // empty surface: documented no-op

  const long sites =
      spec.ber > 0.0
          ? std::max<long>(1, std::llround(spec.ber *
                                           static_cast<double>(
                                               rep.surface_bits)))
          : spec.flips;
  const std::unique_ptr<FaultModel> model = MakeFaultModel(spec);
  for (long i = 0; i < sites; ++i) {
    long w = static_cast<long>(
        rng.UniformInt(static_cast<std::uint64_t>(rep.surface_words)));
    const SurfaceSpan* span = nullptr;
    for (const SurfaceSpan& s : spans) {
      if (w < s.count) {
        span = &s;
        break;
      }
      w -= s.count;
    }
    const int bits = WordBits(span->enc);
    const int bit = spec.bit >= 0 ? spec.bit % bits
                                  : static_cast<int>(rng.UniformInt(
                                        static_cast<std::uint64_t>(bits)));
    CorruptWord(*span, w, bit, *model);
    rep.applied.push_back({span->layer, span->target, w, bit});
  }
  rep.sites = sites;

  // Flush neuron staging buffers through the non-validating setter.
  for (NeuronBuf& buf : bufs) {
    snn::LifParams params = buf.lif->params();
    params.v_threshold = buf.vals[0];
    params.beta = buf.vals[1];
    buf.lif->set_params_raw(params);
  }
  return rep;
}

snn::Network CorruptedClone(const snn::Network& net, const FaultSpec& spec,
                            approx::Precision precision,
                            InjectionReport* report) {
  snn::Network copy = net.Clone();
  InjectionReport rep = ApplyFault(copy, spec, precision);
  if (report != nullptr) *report = std::move(rep);
  return copy;
}

void FlipBitAt(snn::Network& net, long layer, WeightTarget target, long word,
               int bit, approx::Precision precision) {
  AXSNN_CHECK(target != WeightTarget::kAny,
              "FlipBitAt needs a concrete target array");
  const std::vector<SurfaceSpan> spans =
      WeightSpans(net, layer, target, precision);
  AXSNN_CHECK(spans.size() == 1,
              "no such weight surface: layer " << layer << " target "
                                               << WeightTargetName(target));
  const SurfaceSpan& span = spans.front();
  AXSNN_CHECK(word >= 0 && word < span.count,
              "word " << word << " out of range for layer " << layer);
  FaultSpec flip;
  flip.kind = FaultKind::kBitFlip;
  const std::unique_ptr<FaultModel> model = MakeFaultModel(flip);
  CorruptWord(span, word, bit % WordBits(span.enc), *model);
}

std::vector<SurfaceArray> WeightSurface(snn::Network& net,
                                        approx::Precision precision) {
  std::vector<SurfaceArray> out;
  for (const SurfaceSpan& s :
       WeightSpans(net, -1, WeightTarget::kAny, precision)) {
    out.push_back({s.layer, s.target, s.count, WordBits(s.enc)});
  }
  return out;
}

}  // namespace axsnn::faults

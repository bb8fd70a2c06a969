#include "scenario/store.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "data/event_io.hpp"
#include "snn/lif_layer.hpp"
#include "tensor/serialize.hpp"

namespace axsnn::scenario {

namespace {

constexpr std::uint32_t kEnvelopeMagic = 0x41585354;  // "AXST"
constexpr std::uint32_t kEnvelopeVersion = 1;
/// Unit-journal sanity cap: a grid block never remotely approaches this.
constexpr std::int64_t kMaxUnitBlock = 1 << 26;

/// FNV-1a 64 over explicitly enumerated fields. Structs are never hashed
/// via memcpy — padding bytes are indeterminate.
class Fnv64 {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void I64(long long v) { U64(static_cast<std::uint64_t>(v)); }
  void F32(float v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t FnvOfBytes(const std::string& bytes) {
  Fnv64 h;
  h.Bytes(bytes.data(), bytes.size());
  return h.value();
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint32_t FloatBits(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

template <typename T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
void ReadPod(std::istream& is, T& v, const char* what) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is)
    throw std::runtime_error(std::string("axsnn: truncated store record: ") +
                             what);
}

// --- fingerprint helpers ---------------------------------------------------

void HashLif(Fnv64& h, const snn::LifParams& lif) {
  h.F32(lif.v_threshold);
  h.F32(lif.beta);
  h.F32(lif.v_reset);
  h.F32(lif.surrogate_alpha);
}

void HashTrainConfig(Fnv64& h, const snn::TrainConfig& cfg) {
  h.I64(cfg.epochs);
  h.I64(cfg.batch_size);
  h.F32(cfg.learning_rate);
  h.F32(cfg.beta1);
  h.F32(cfg.beta2);
  h.F32(cfg.adam_eps);
  h.F32(cfg.weight_decay);
  h.I64(cfg.time_steps);
  h.I64(static_cast<long>(cfg.encoding));
  h.U64(cfg.seed);
  h.I64(cfg.shuffle ? 1 : 0);
}

void HashTensor(Fnv64& h, const Tensor& t) {
  h.U64(t.rank());
  for (std::size_t d = 0; d < t.rank(); ++d) h.I64(t.dim(d));
  h.Bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

void HashStaticDataset(Fnv64& h, const data::StaticDataset& ds) {
  HashTensor(h, ds.images);
  h.U64(ds.labels.size());
  for (int label : ds.labels) h.I64(label);
  h.I64(ds.num_classes);
}

void HashEventDataset(Fnv64& h, const data::EventDataset& ds) {
  h.I64(ds.width);
  h.I64(ds.height);
  h.F32(ds.duration_ms);
  h.I64(ds.num_classes);
  h.U64(ds.labels.size());
  for (int label : ds.labels) h.I64(label);
  h.U64(ds.streams.size());
  for (const data::EventStream& s : ds.streams) {
    h.I64(s.width);
    h.I64(s.height);
    h.F32(s.duration_ms);
    h.U64(s.events.size());
    for (const data::Event& e : s.events) {
      h.I64(e.x);
      h.I64(e.y);
      h.I64(e.polarity);
      h.F32(e.t);
    }
  }
}

std::uint64_t Fingerprint(const core::StaticWorkbench& bench) {
  Fnv64 h;
  h.Str("axsnn-static-workbench-v1");
  const core::StaticWorkbench::Options& o = bench.options();
  h.I64(o.net.height);
  h.I64(o.net.width);
  h.I64(o.net.channels);
  h.I64(o.net.classes);
  h.I64(o.net.conv1_channels);
  h.I64(o.net.conv2_channels);
  h.I64(o.net.conv3_channels);
  h.I64(o.net.hidden);
  HashLif(h, o.net.lif);
  h.U64(o.net.seed);
  HashTrainConfig(h, o.train);
  h.I64(o.train_time_steps_cap);
  h.I64(o.attack_time_steps_cap);
  h.I64(o.attack_steps);
  h.I64(static_cast<long>(o.eval_encoding));
  h.I64(o.eval_batch);
  h.F64(o.threshold_gain);
  h.I64(o.int8_kernels ? 1 : 0);
  // kernel_mode excluded: bit-identical execution axis by contract.
  h.U64(o.seed);
  HashStaticDataset(h, bench.train_set());
  HashStaticDataset(h, bench.test_set());
  return h.value();
}

std::uint64_t Fingerprint(const core::DvsWorkbench& bench) {
  Fnv64 h;
  h.Str("axsnn-dvs-workbench-v1");
  const core::DvsWorkbench::Options& o = bench.options();
  h.I64(o.net.height);
  h.I64(o.net.width);
  h.I64(o.net.channels);
  h.I64(o.net.classes);
  h.I64(o.net.conv1_channels);
  h.I64(o.net.conv2_channels);
  h.I64(o.net.hidden);
  h.F32(o.net.dropout_rate);
  HashLif(h, o.net.lif);
  h.U64(o.net.seed);
  HashTrainConfig(h, o.train);
  h.I64(o.time_bins);
  h.I64(o.sparse.max_iterations);
  h.I64(o.sparse.events_per_iteration);
  h.I64(o.sparse.time_bins);
  h.I64(o.sparse.min_spacing);
  h.U64(o.sparse.seed);
  h.F32(o.frame.period_ms);
  h.I64(o.frame.border);
  h.I64(o.frame.both_polarities ? 1 : 0);
  h.I64(o.eval_batch);
  h.F64(o.threshold_gain);
  h.I64(o.int8_kernels ? 1 : 0);
  // kernel_mode / event_path excluded: bit-identical execution axes.
  h.U64(o.seed);
  HashEventDataset(h, bench.train_set());
  HashEventDataset(h, bench.test_set());
  return h.value();
}

/// Digest of (workbench fingerprint, engine family, every grid axis) with
/// exact float/double bit patterns — two grids share a journal only when
/// every axis value matches to the bit.
std::uint64_t GridDigest(std::uint64_t fingerprint, const char* family,
                         const ScenarioGrid& grid) {
  Fnv64 h;
  h.U64(fingerprint);
  h.Str(family);
  h.U64(grid.v_thresholds.size());
  for (float vth : grid.v_thresholds) h.F32(vth);
  h.U64(grid.time_steps.size());
  for (long t : grid.time_steps) h.I64(t);
  h.U64(grid.attacks.size());
  for (const AttackSpec& attack : grid.attacks) h.Str(attack.Label());
  h.U64(grid.epsilons.size());
  for (double eps : grid.epsilons) h.F64(eps);
  h.U64(grid.aqfs.size());
  for (const std::optional<core::AqfConfig>& aqf : grid.aqfs) {
    h.I64(aqf.has_value() ? 1 : 0);
    if (aqf.has_value()) {
      h.F32(aqf->quantization_step_s);
      h.I64(aqf->spatial_window);
      h.I64(aqf->activity_threshold);
      h.F32(aqf->temporal_threshold_ms);
    }
  }
  h.U64(grid.precisions.size());
  for (approx::Precision p : grid.precisions) h.I64(static_cast<long>(p));
  h.U64(grid.levels.size());
  for (double level : grid.levels) h.F64(level);
  h.U64(grid.kernel_modes.size());
  for (const std::optional<kernels::KernelMode>& mode : grid.kernel_modes) {
    h.I64(mode.has_value() ? 1 : 0);
    if (mode.has_value()) h.I64(static_cast<long>(*mode));
  }
  // Fault axis: the label renders every spec field (kind, domain, target,
  // sites, seed...), so a corrupted unit's journal can never alias a clean
  // grid's — or a differently-faulted grid's — records.
  h.U64(grid.faults.size());
  for (const faults::FaultSpec& fault : grid.faults) h.Str(fault.Label());
  h.I64(grid.min_train_accuracy_pct.has_value() ? 1 : 0);
  if (grid.min_train_accuracy_pct.has_value())
    h.F32(*grid.min_train_accuracy_pct);
  return h.value();
}

// --- shared record payloads ------------------------------------------------

void WriteUnitPayload(std::ostream& os, const UnitRecord& record) {
  WritePod<std::uint8_t>(os, record.gated ? 1 : 0);
  WritePod<float>(os, record.train_accuracy_pct);
  WritePod<std::int64_t>(os, static_cast<std::int64_t>(record.robustness.size()));
  os.write(reinterpret_cast<const char*>(record.robustness.data()),
           static_cast<std::streamsize>(record.robustness.size() *
                                        sizeof(float)));
}

void ReadUnitPayload(std::istream& is, UnitRecord& record) {
  std::uint8_t gated = 0;
  ReadPod(is, gated, "unit gate flag");
  record.gated = gated != 0;
  ReadPod(is, record.train_accuracy_pct, "unit train accuracy");
  std::int64_t count = 0;
  ReadPod(is, count, "unit block size");
  if (count < 0 || count > kMaxUnitBlock)
    throw std::runtime_error("axsnn: implausible unit block size");
  record.robustness.resize(static_cast<std::size_t>(count));
  if (count > 0) {
    is.read(reinterpret_cast<char*>(record.robustness.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
    if (!is)
      throw std::runtime_error(
          "axsnn: truncated store record: unit robustness block");
  }
}

void WriteTotalsPayload(std::ostream& os, const GridTotals& totals) {
  WritePod<std::int64_t>(os, totals.trained_models);
  WritePod<std::int64_t>(os, totals.crafted_sets);
}

GridTotals ReadTotalsPayload(std::istream& is) {
  std::int64_t trained = 0;
  std::int64_t crafted = 0;
  ReadPod(is, trained, "grid totals trained");
  ReadPod(is, crafted, "grid totals crafted");
  if (trained < 0 || crafted < 0)
    throw std::runtime_error("axsnn: negative grid totals");
  return GridTotals{static_cast<long>(trained), static_cast<long>(crafted)};
}

/// Serializes a trained model as its state dict plus meta/calibration
/// tensors (shared layout for both workbench families).
template <typename TrainedModel>
std::map<std::string, Tensor> ModelState(const TrainedModel& model) {
  std::map<std::string, Tensor> state = model.net.StateDict();
  state.emplace("meta.train_acc", Tensor({1}, {model.train_accuracy_pct}));
  for (std::size_t i = 0; i < model.calibration.lif.size(); ++i) {
    const approx::LayerCalibration& lc = model.calibration.lif[i];
    std::ostringstream key;
    key << "calib." << i;
    state.emplace(key.str(),
                  Tensor({4}, {lc.mean_rate, lc.mean_membrane, lc.mean_drive,
                               lc.v_threshold}));
  }
  return state;
}

/// Restores the meta/calibration half of ModelState onto a rebuilt net
/// (the weights were already loaded via LoadStateDict).
template <typename TrainedModel>
void RestoreModelMeta(const std::map<std::string, Tensor>& state,
                      TrainedModel& model) {
  const Tensor& acc = state.at("meta.train_acc");
  if (acc.numel() != 1)
    throw std::runtime_error("axsnn: malformed model record: meta.train_acc");
  model.train_accuracy_pct = acc[0];
  model.calibration.lif.clear();
  const auto lif_layers = model.net.LifLayers();
  for (std::size_t i = 0; i < lif_layers.size(); ++i) {
    std::ostringstream key;
    key << "calib." << i;
    const Tensor& c = state.at(key.str());
    if (c.numel() != 4)
      throw std::runtime_error("axsnn: malformed model record: " + key.str());
    approx::LayerCalibration lc;
    lc.lif_name = lif_layers[i]->Name();
    lc.mean_rate = c[0];
    lc.mean_membrane = c[1];
    lc.mean_drive = c[2];
    lc.v_threshold = c[3];
    model.calibration.lif.push_back(lc);
  }
}

// --- what differs per workbench ---------------------------------------------

const char* Family(const core::StaticWorkbench&) { return "static"; }
const char* Family(const core::DvsWorkbench&) { return "dvs"; }

std::uint32_t ModelKind(const core::StaticWorkbench&) {
  return kArtifactStaticModel;
}
std::uint32_t ModelKind(const core::DvsWorkbench&) { return kArtifactDvsModel; }

std::uint32_t CraftKind(const core::StaticWorkbench&) {
  return kArtifactCraftTensor;
}
std::uint32_t CraftKind(const core::DvsWorkbench&) {
  return kArtifactCraftEvents;
}

/// Static crafts key their exact budget; event attacks have none.
std::string EpsilonSuffix(const core::StaticWorkbench&, double epsilon) {
  return "_e" + Hex(DoubleBits(epsilon));
}
std::string EpsilonSuffix(const core::DvsWorkbench&, double) { return ""; }

long ModelTime(const core::StaticWorkbench::TrainedModel& model) {
  return model.time_steps;
}
long ModelTime(const core::DvsWorkbench::TrainedModel& model) {
  return model.time_bins;
}

/// The untrained net a persisted state dict loads into, plus the model's T.
void RebuildModel(const core::StaticWorkbench& bench, float vth,
                  long time_steps, core::StaticWorkbench::TrainedModel& out) {
  snn::StaticNetOptions net_opts = bench.options().net;
  net_opts.lif.v_threshold = vth;
  out.net = snn::BuildStaticNet(net_opts);
  out.time_steps = time_steps;
}
void RebuildModel(const core::DvsWorkbench& bench, float vth, long time_bins,
                  core::DvsWorkbench::TrainedModel& out) {
  snn::DvsNetOptions net_opts = bench.options().net;
  net_opts.lif.v_threshold = vth;
  net_opts.height = bench.train_set().height;
  net_opts.width = bench.train_set().width;
  out.net = snn::BuildDvsNet(net_opts);
  out.time_bins = time_bins;
}

void WriteCraft(std::ostream& os, const Tensor& images) {
  WriteTensor(os, images);
}
void WriteCraft(std::ostream& os, const data::EventDataset& streams) {
  data::WriteEventDataset(os, streams);
}
void ReadCraft(std::istream& is, Tensor& out) { out = ReadTensor(is); }
void ReadCraft(std::istream& is, data::EventDataset& out) {
  out = data::ReadEventDataset(is);
}

/// The memory -> disk -> compute lookup behind FetchModel / FetchCraft.
/// Disk I/O and compute run outside the lock, so misses on different keys
/// proceed in parallel; a lost same-key race keeps the first entry.
template <typename T, typename Load, typename Compute>
const T& Fetch(std::mutex& mu,
               std::map<std::string, std::unique_ptr<T>>& memory,
               TierCounts& counts, const std::string& key, Load&& load,
               Compute&& compute) {
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = memory.find(key);
    if (it != memory.end()) {
      ++counts.memory_hits;
      return *it->second;
    }
  }
  T value;
  const bool from_disk = load(value);
  if (!from_disk) value = compute();
  std::lock_guard<std::mutex> lock(mu);
  ++(from_disk ? counts.disk_hits : counts.computed);
  // The entry is allocated only after compute has freed its temporaries: a
  // long-lived entry allocated first pins the top of the allocator's heap.
  return *memory.emplace(key, std::make_unique<T>(std::move(value)))
              .first->second;
}

}  // namespace

// ---------------------------------------------------------------------------
// ArtifactStore
// ---------------------------------------------------------------------------

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {
  if (persistent()) std::filesystem::create_directories(root_);
}

std::string ArtifactStore::PathFor(const std::string& key) const {
  return root_ + "/" + key + ".bin";
}

void ArtifactStore::Put(const std::string& key, std::uint32_t kind,
                        const std::function<void(std::ostream&)>& write) {
  if (!persistent()) return;
  std::ostringstream payload_os(std::ios::binary);
  write(payload_os);
  const std::string payload = payload_os.str();
  const std::uint64_t digest = FnvOfBytes(payload);

  std::ostringstream tmp_os;
  tmp_os << root_ << "/tmp." << ::getpid() << "."
         << tmp_seq_.fetch_add(1, std::memory_order_relaxed) << "." << key;
  const std::string tmp = tmp_os.str();
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os)
      throw std::runtime_error("axsnn: cannot open store temp file: " + tmp);
    WritePod<std::uint32_t>(os, kEnvelopeMagic);
    WritePod<std::uint32_t>(os, kEnvelopeVersion);
    WritePod<std::uint32_t>(os, kind);
    WritePod<std::uint32_t>(os, 0);  // reserved
    WritePod<std::uint64_t>(os, payload.size());
    WritePod<std::uint64_t>(os, digest);
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.flush();
    if (!os) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("axsnn: short write to store temp file: " +
                               tmp);
    }
  }
  // Atomic commit: a reader sees either the previous complete artifact or
  // this one, never a partial file. Concurrent writers of one key both
  // wrote identical bytes (deterministic computations), so last-wins is
  // safe.
  std::error_code ec;
  std::filesystem::rename(tmp, PathFor(key), ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    throw std::runtime_error("axsnn: cannot commit store entry " + key +
                             ": " + ec.message());
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
}

bool ArtifactStore::Get(const std::string& key, std::uint32_t kind,
                        const std::function<void(std::istream&)>& read) const {
  if (!persistent()) return false;
  std::ifstream is(PathFor(key), std::ios::binary);
  if (!is) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  try {
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t stored_kind = 0;
    std::uint32_t reserved = 0;
    std::uint64_t size = 0;
    std::uint64_t digest = 0;
    ReadPod(is, magic, "envelope magic");
    ReadPod(is, version, "envelope version");
    ReadPod(is, stored_kind, "envelope kind");
    ReadPod(is, reserved, "envelope reserved");
    ReadPod(is, size, "envelope payload size");
    ReadPod(is, digest, "envelope checksum");
    if (magic != kEnvelopeMagic)
      throw std::runtime_error("axsnn: bad store envelope magic");
    if (version != kEnvelopeVersion)
      throw std::runtime_error("axsnn: unsupported store envelope version");
    if (stored_kind != kind)
      throw std::runtime_error("axsnn: store entry kind mismatch");
    // The claimed size must match the bytes left in the file before
    // anything is allocated: a corrupt header never drives an allocation.
    const std::streamoff payload_start = is.tellg();
    is.seekg(0, std::ios::end);
    const std::streamoff left = is.tellg() - payload_start;
    if (payload_start < 0 || left < 0 ||
        static_cast<std::uint64_t>(left) != size)
      throw std::runtime_error("axsnn: store payload size disagrees with file");
    is.seekg(payload_start);
    std::string payload(static_cast<std::size_t>(size), '\0');
    is.read(payload.data(), static_cast<std::streamsize>(size));
    if (!is) throw std::runtime_error("axsnn: truncated store payload");
    if (FnvOfBytes(payload) != digest)
      throw std::runtime_error("axsnn: store payload checksum mismatch");
    std::istringstream payload_is(payload, std::ios::binary);
    read(payload_is);
  } catch (const std::exception&) {
    // Truncated, garbage, wrong-kind or otherwise unparseable: report a
    // corrupt miss so the caller recomputes (and overwrites) it.
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// ScenarioStore
// ---------------------------------------------------------------------------

template <typename Bench>
ScenarioStore<Bench>::ScenarioStore(std::string root, const Bench& bench)
    : store_(std::move(root)),
      bench_(bench),
      fingerprint_(store_.persistent() ? Fingerprint(bench) : 0) {}

template <typename Bench>
std::string ScenarioStore<Bench>::ModelKey(float vth, long time_steps) const {
  std::ostringstream os;
  os << "m_" << Hex(fingerprint_) << "_v" << Hex(FloatBits(vth)) << "_t"
     << time_steps;
  return os.str();
}

template <typename Bench>
std::string ScenarioStore<Bench>::CraftKey(float vth, long time_steps,
                                           const AttackSpec& attack,
                                           double epsilon) const {
  Fnv64 label;
  label.Str(attack.Label());
  return ModelKey(vth, time_steps) + "_a" + Hex(label.value()) +
         EpsilonSuffix(bench_, epsilon);
}

template <typename Bench>
std::string ScenarioStore<Bench>::GridKey(const ScenarioGrid& grid) const {
  return "g_" + Hex(GridDigest(fingerprint_, Family(bench_), grid));
}

template <typename Bench>
const typename Bench::TrainedModel& ScenarioStore<Bench>::FetchModel(
    float vth, long time_steps, const std::function<TrainedModel()>& train) {
  return Fetch(
      mu_, models_, model_counts_, ModelKey(vth, time_steps),
      [&](TrainedModel& out) { return LoadModel(vth, time_steps, out); },
      [&] {
        TrainedModel fresh = train();
        SaveModel(fresh);
        return fresh;
      });
}

template <typename Bench>
const typename Bench::AdversarialSet& ScenarioStore<Bench>::FetchCraft(
    const TrainedModel& model, const AttackSpec& attack, double epsilon,
    const std::function<AdversarialSet()>& craft) {
  return Fetch(
      mu_, crafts_, craft_counts_,
      CraftKey(model.v_threshold, ModelTime(model), attack, epsilon),
      [&](AdversarialSet& out) {
        return LoadCraft(model, attack, epsilon, out);
      },
      [&] {
        AdversarialSet fresh = craft();
        SaveCraft(model, attack, epsilon, fresh);
        return fresh;
      });
}

template <typename Bench>
TierCounts ScenarioStore<Bench>::model_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_counts_;
}

template <typename Bench>
TierCounts ScenarioStore<Bench>::craft_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return craft_counts_;
}

template <typename Bench>
bool ScenarioStore<Bench>::LoadModel(float vth, long time_steps,
                                     TrainedModel& out) const {
  return store_.Get(
      ModelKey(vth, time_steps), ModelKind(bench_), [&](std::istream& is) {
        const std::map<std::string, Tensor> state = ReadTensorMap(is);
        RebuildModel(bench_, vth, time_steps, out);
        out.net.LoadStateDict(state);
        out.v_threshold = vth;
        RestoreModelMeta(state, out);
      });
}

template <typename Bench>
void ScenarioStore<Bench>::SaveModel(const TrainedModel& model) {
  store_.Put(ModelKey(model.v_threshold, ModelTime(model)), ModelKind(bench_),
             [&](std::ostream& os) { WriteTensorMap(os, ModelState(model)); });
}

template <typename Bench>
bool ScenarioStore<Bench>::LoadCraft(const TrainedModel& model,
                                     const AttackSpec& attack, double epsilon,
                                     AdversarialSet& out) const {
  return store_.Get(
      CraftKey(model.v_threshold, ModelTime(model), attack, epsilon),
      CraftKind(bench_), [&](std::istream& is) { ReadCraft(is, out); });
}

template <typename Bench>
void ScenarioStore<Bench>::SaveCraft(const TrainedModel& model,
                                     const AttackSpec& attack, double epsilon,
                                     const AdversarialSet& crafted) {
  store_.Put(CraftKey(model.v_threshold, ModelTime(model), attack, epsilon),
             CraftKind(bench_),
             [&](std::ostream& os) { WriteCraft(os, crafted); });
}

template <typename Bench>
bool ScenarioStore<Bench>::LoadUnit(const std::string& grid_key, long unit,
                                    UnitRecord& out) const {
  return store_.Get(grid_key + "_u" + std::to_string(unit), kArtifactUnit,
                    [&](std::istream& is) { ReadUnitPayload(is, out); });
}

template <typename Bench>
void ScenarioStore<Bench>::SaveUnit(const std::string& grid_key, long unit,
                                    const UnitRecord& record) {
  store_.Put(grid_key + "_u" + std::to_string(unit), kArtifactUnit,
             [&](std::ostream& os) { WriteUnitPayload(os, record); });
}

template <typename Bench>
GridTotals ScenarioStore<Bench>::LoadTotals(
    const std::string& grid_key) const {
  GridTotals totals;
  store_.Get(grid_key + "_totals", kArtifactTotals,
             [&](std::istream& is) { totals = ReadTotalsPayload(is); });
  return totals;
}

template <typename Bench>
void ScenarioStore<Bench>::SaveTotals(const std::string& grid_key,
                                      const GridTotals& totals) {
  store_.Put(grid_key + "_totals", kArtifactTotals,
             [&](std::ostream& os) { WriteTotalsPayload(os, totals); });
}

template class ScenarioStore<core::StaticWorkbench>;
template class ScenarioStore<core::DvsWorkbench>;

}  // namespace axsnn::scenario

// The scenario store: the engine's only cache, in memory and on disk.
//
// One typed ScenarioStore<Bench> per workbench holds every artifact the
// engine reuses, in two tiers keyed by the same strings:
//
//   * trained models    key = (workbench fingerprint, vth bits, T)
//   * crafted datasets  key = model key + (attack-label hash, epsilon bits)
//   * unit journal      key = (grid key, unit index) — one record per
//                       finished work unit (train accuracy, gate flag, the
//                       unit's robustness block), enabling checkpoint/resume
//   * grid totals       key = (grid key) — cumulative fresh trainings and
//                       crafts across every run that touched the grid, so a
//                       merged shard report prints the same counters as the
//                       single-process run
//
// Models and crafts are looked up memory -> disk -> compute-and-save
// (FetchModel / FetchCraft); the journal and totals live on disk only. A
// store with an empty root is memory-only: nothing persists across
// processes, and journal reads miss. Reruns, resumed runs and shard
// processes (shard.hpp) reuse each other's work through a shared root.
//
// The workbench fingerprint hashes every option and dataset byte that
// affects training, crafting or evaluation, so two workbenches sharing a
// directory can never serve each other stale artifacts. (The kernel-mode
// and event-path knobs are deliberately excluded: both are bit-identical
// execution axes by contract, pinned by the CI matrix legs.)
//
// Every value on disk is one file: a small checksummed envelope (magic,
// version, payload kind, size, FNV-1a 64 digest) around a tensor/serialize
// or data/event_io payload, written to a temp file and atomically renamed
// into place — a reader never observes a half-written artifact, and
// concurrent writers of one key settle on one winner (both wrote identical
// bytes; the computations are deterministic). Any validation or parse
// failure counts the entry corrupt and reads as a miss: the engine
// recomputes and overwrites instead of crashing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/workbench.hpp"
#include "scenario/scenario.hpp"

namespace axsnn::scenario {

/// Envelope payload kinds. A kind mismatch (a craft key colliding with a
/// model file, say) reads as corrupt, never as a silently wrong payload.
inline constexpr std::uint32_t kArtifactStaticModel = 1;
inline constexpr std::uint32_t kArtifactDvsModel = 2;
inline constexpr std::uint32_t kArtifactCraftTensor = 3;
inline constexpr std::uint32_t kArtifactCraftEvents = 4;
inline constexpr std::uint32_t kArtifactUnit = 5;
inline constexpr std::uint32_t kArtifactTotals = 6;

/// Generic key -> checksummed-file store. Thread-safe; keys must be
/// filesystem-safe ([A-Za-z0-9_.-], the typed stores only emit those).
/// An empty root means no disk: Put does nothing and Get misses without
/// counting.
class ArtifactStore {
 public:
  /// Creates `root` (and parents) on demand.
  explicit ArtifactStore(std::string root);

  bool persistent() const { return !root_.empty(); }

  /// Final on-disk path of a key (exposed for tests and tooling).
  std::string PathFor(const std::string& key) const;

  /// Serializes via `write` and commits atomically (temp file + rename).
  /// Throws std::runtime_error when the filesystem rejects the write.
  void Put(const std::string& key, std::uint32_t kind,
           const std::function<void(std::ostream&)>& write);

  /// Validates the envelope (magic, version, kind, size, checksum) and
  /// deserializes via `read`. Returns false — a miss — when the key is
  /// absent, and also when the entry is truncated, corrupt, of another
  /// kind, or `read` throws (counted in corrupt_entries()).
  bool Get(const std::string& key, std::uint32_t kind,
           const std::function<void(std::istream&)>& read) const;

  long hits() const { return hits_.load(std::memory_order_relaxed); }
  long misses() const { return misses_.load(std::memory_order_relaxed); }
  long writes() const { return writes_.load(std::memory_order_relaxed); }
  long corrupt_entries() const {
    return corrupt_.load(std::memory_order_relaxed);
  }

 private:
  std::string root_;
  mutable std::atomic<long> hits_{0};
  mutable std::atomic<long> misses_{0};
  mutable std::atomic<long> corrupt_{0};
  std::atomic<long> writes_{0};
  std::atomic<long> tmp_seq_{0};
};

/// One journaled work unit: everything the engine writes into the unit's
/// contiguous cell block. `robustness` holds the full block in cell order
/// (empty when the unit was gated by min_train_accuracy_pct).
struct UnitRecord {
  bool gated = false;
  float train_accuracy_pct = 0.0f;
  std::vector<float> robustness;
};

/// Cumulative fresh-computation counters of a grid across runs and shards.
struct GridTotals {
  long trained_models = 0;
  long crafted_sets = 0;
};

/// Where one artifact kind's FetchModel / FetchCraft lookups were served
/// from, cumulative over the store's lifetime.
struct TierCounts {
  long memory_hits = 0;
  long disk_hits = 0;
  long computed = 0;
};

/// Typed store over one workbench: core::StaticWorkbench or
/// core::DvsWorkbench, the two instantiations in store.cpp. Borrows the
/// workbench (must outlive the store). A store with a root fingerprints the
/// workbench's options + datasets on construction; a memory-only store
/// serves one workbench in one process, so it skips that hash and keys with
/// fingerprint 0. Thread-safe.
template <typename Bench>
class ScenarioStore {
 public:
  using TrainedModel = typename Bench::TrainedModel;
  /// Adversarial images (static) or event streams (DVS).
  using AdversarialSet = typename Bench::AdversarialSet;

  /// An empty `root` makes a memory-only store.
  ScenarioStore(std::string root, const Bench& bench);

  /// `time_steps` is the model's T — the workbench binning for DVS models.
  std::string ModelKey(float vth, long time_steps) const;
  /// Event attacks have no budget: DVS craft keys leave `epsilon` out.
  std::string CraftKey(float vth, long time_steps, const AttackSpec& attack,
                       double epsilon) const;
  /// Deterministic digest of (fingerprint, every grid axis) — the namespace
  /// of the unit journal and totals record.
  std::string GridKey(const ScenarioGrid& grid) const;

  /// Memory, then disk, then `train` (saved to disk). The reference stays
  /// valid for the store's lifetime. Concurrent misses on one key both
  /// compute (deterministic, so identical) and the first entry is kept.
  const TrainedModel& FetchModel(float vth, long time_steps,
                                 const std::function<TrainedModel()>& train);
  /// As FetchModel, for the set `craft` builds against `model`.
  const AdversarialSet& FetchCraft(
      const TrainedModel& model, const AttackSpec& attack, double epsilon,
      const std::function<AdversarialSet()>& craft);

  TierCounts model_counts() const;
  TierCounts craft_counts() const;

  // Disk-only access (no memory tier, no counts above): false / no-op
  // without a root.
  bool LoadModel(float vth, long time_steps, TrainedModel& out) const;
  void SaveModel(const TrainedModel& model);

  bool LoadCraft(const TrainedModel& model, const AttackSpec& attack,
                 double epsilon, AdversarialSet& out) const;
  void SaveCraft(const TrainedModel& model, const AttackSpec& attack,
                 double epsilon, const AdversarialSet& crafted);

  bool LoadUnit(const std::string& grid_key, long unit,
                UnitRecord& out) const;
  void SaveUnit(const std::string& grid_key, long unit,
                const UnitRecord& record);

  /// Zeros when the grid has no totals record yet.
  GridTotals LoadTotals(const std::string& grid_key) const;
  void SaveTotals(const std::string& grid_key, const GridTotals& totals);

  const ArtifactStore& artifacts() const { return store_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  ArtifactStore store_;
  const Bench& bench_;
  std::uint64_t fingerprint_ = 0;
  mutable std::mutex mu_;  // guards the memory tier and its counts
  std::map<std::string, std::unique_ptr<TrainedModel>> models_;
  std::map<std::string, std::unique_ptr<AdversarialSet>> crafts_;
  TierCounts model_counts_;
  TierCounts craft_counts_;
};

using StaticScenarioStore = ScenarioStore<core::StaticWorkbench>;
using DvsScenarioStore = ScenarioStore<core::DvsWorkbench>;

}  // namespace axsnn::scenario

// Scenario engine: executes a declarative ScenarioGrid on a workbench.
//
// One ScenarioEngine<Bench> runs Algorithm 1's loop for both workbenches:
// the grid becomes work units — one (structural cell, attack, epsilon)
// triple per unit — run on the global runtime pool with grain 1, exactly
// like the hand-rolled sweep loops it replaces. Phase 1 trains every
// structural cell a unit still needs, cells in parallel; phase 2 crafts
// once per unit and fans the unit's variant block out. The AQF axis only
// filters event streams, so a DVS unit evaluates one block per AQF entry.
//
// Every trained model and crafted set goes through the engine's store
// (store.hpp) — memory, then disk when the store has a root, then compute
// and save — so grids and successive Run calls sharing a structural cell
// never retrain it, and grids reusing an attack (Table II's operating
// points, Algorithm-1 searches over the same cell) never re-craft. An
// engine starts on its own memory-only store; set_store attaches a shared
// on-disk one, under which every finished work unit is journaled, so
// Run(grid, options) supports checkpoint/resume (replay journaled units,
// compute only the remainder) and shard fan-out (`--shard i/N` unit
// partitioning; a resume pass with no shard merges all journals in grid
// order — see shard.hpp).
//
// Determinism: training, crafting and evaluation are each deterministic in
// their seeds, every unit owns its output slots, and nested kernel loops
// keep fixed chunk boundaries whether they borrow idle pool workers (a
// one-cell training phase, a sweep's last units) or run inline — so Run
// results are bit-identical at any pool size, across store hits and misses,
// and across any shard split.
#pragma once

#include <concepts>
#include <string>
#include <vector>

#include "core/workbench.hpp"
#include "scenario/scenario.hpp"
#include "scenario/shard.hpp"
#include "scenario/store.hpp"

namespace axsnn::scenario {

/// Execution counters of one Run call.
struct ScenarioStats {
  double wall_seconds = 0.0;   ///< whole Run
  double train_seconds = 0.0;  ///< phase 1 (cell training, after planning)
  double sweep_seconds = 0.0;  ///< phase 2 (craft + variant evaluation)
  long trained_models = 0;     ///< fresh training computations this call
  long train_cache_hits = 0;   ///< models served by the store's memory tier
  long crafted_sets = 0;       ///< fresh craft computations this call
  long craft_cache_hits = 0;   ///< crafts served by the store's memory tier
  long gated_units = 0;        ///< units skipped by min_train_accuracy_pct
  /// Evaluations that ran on a corrupted clone (fault axis entries and
  /// corrupts_model() attacks — src/faults/). Zero on fault-free grids.
  long faulted_evals = 0;
  // Distributed-execution counters (zero on a memory-only store):
  long store_model_hits = 0;   ///< trained models deserialized from disk
  long store_craft_hits = 0;   ///< crafted sets deserialized from disk
  long replayed_units = 0;     ///< journaled units replayed (resume)
  /// Cumulative fresh computations across every run/shard that touched this
  /// grid's store journal. On a memory-only store these equal
  /// trained_models / crafted_sets, so single-process reports are unchanged
  /// — and a merged shard run reports the same totals as the
  /// single-process run.
  long total_trained_models = 0;
  long total_crafted_sets = 0;
  /// Corrupted artifact envelopes the store has detected (and treated as
  /// recompute misses) over its lifetime; zero on a memory-only store.
  /// CI asserts 0 on clean-cache runs.
  long corrupt_entries = 0;
};

/// Grid results, aligned with ExpandScenarioGrid(grid) order.
struct ScenarioOutcome {
  ScenarioGrid grid;
  std::vector<ScenarioCell> cells;
  /// R(eps) [%] per cell; NaN for gated (unevaluated) cells.
  std::vector<float> robustness_pct;
  /// Train accuracy [%] of the cell's accurate model.
  std::vector<float> train_accuracy_pct;
  /// False for cells skipped by the quality gate.
  std::vector<char> evaluated;
  ScenarioStats stats;

  /// Robustness at one coordinate tuple (see ScenarioGrid::Index).
  float Robustness(std::size_t vth_i, std::size_t time_i,
                   std::size_t attack_i, std::size_t eps_i, std::size_t aqf_i,
                   std::size_t precision_i, std::size_t level_i,
                   std::size_t kernel_i, std::size_t fault_i) const {
    return robustness_pct[grid.Index(vth_i, time_i, attack_i, eps_i, aqf_i,
                                     precision_i, level_i, kernel_i,
                                     fault_i)];
  }

  /// Fault-free shorthand (fault index 0).
  float Robustness(std::size_t vth_i, std::size_t time_i,
                   std::size_t attack_i, std::size_t eps_i, std::size_t aqf_i,
                   std::size_t precision_i, std::size_t level_i,
                   std::size_t kernel_i) const {
    return Robustness(vth_i, time_i, attack_i, eps_i, aqf_i, precision_i,
                      level_i, kernel_i, 0);
  }
};

/// Engine over one workbench: core::StaticWorkbench or core::DvsWorkbench,
/// the two instantiations in engine.cpp. The DVS engine requires
/// single-entry time_steps / epsilons axes and resolves every cell's T to
/// the workbench binning.
template <typename Bench>
class ScenarioEngine {
 public:
  using TrainedModel = typename Bench::TrainedModel;
  using Store = ScenarioStore<Bench>;

  explicit ScenarioEngine(const Bench& bench);

  /// Attaches a store (borrowed; must outlive the engine's runs) for models,
  /// crafts and the unit journal; nullptr re-attaches the engine's own
  /// memory-only store.
  void set_store(Store* store) {
    store_ = store != nullptr ? store : &own_store_;
  }
  /// The attached store (the engine's own one until set_store).
  Store& store() { return *store_; }

  /// Trains (or fetches) the model of one structural cell through the
  /// store — the Algorithm-1 serial path shares models with grids this way.
  const TrainedModel& TrainCached(float vth, long time_steps)
    requires std::same_as<Bench, core::StaticWorkbench>;
  /// DVS models train at the workbench binning.
  const TrainedModel& TrainCached(float vth)
    requires std::same_as<Bench, core::DvsWorkbench>;

  /// Executes the grid. Validates first (throws std::invalid_argument on
  /// unknown attacks/params or axis misuse). `options.resume` requires a
  /// store with a root; units outside `options.shard` stay unevaluated
  /// unless replayed from the journal.
  ScenarioOutcome Run(const ScenarioGrid& grid,
                      const RunOptions& options = {});

  const Bench& bench() const { return bench_; }

 private:
  const TrainedModel& Model(float vth, long time_steps);

  const Bench& bench_;
  Store own_store_;
  Store* store_ = &own_store_;
};

using StaticScenarioEngine = ScenarioEngine<core::StaticWorkbench>;
using DvsScenarioEngine = ScenarioEngine<core::DvsWorkbench>;

}  // namespace axsnn::scenario

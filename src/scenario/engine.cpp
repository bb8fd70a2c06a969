#include "scenario/engine.hpp"

#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "faults/inject.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::scenario {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The per-unit variant list: the aqf x precision x level x kernel inner
/// block of the documented nesting, in cell order. The aqf coordinate is
/// not a variant property (the static engine forbids it, the DVS engine
/// evaluates one aqf slice at a time), so the list covers precision x level
/// x kernel and callers place it per aqf slice.
std::vector<core::VariantSpec> VariantBlock(const ScenarioGrid& grid) {
  std::vector<core::VariantSpec> specs;
  specs.reserve(grid.precisions.size() * grid.levels.size() *
                grid.kernel_modes.size());
  for (approx::Precision precision : grid.precisions)
    for (double level : grid.levels)
      for (const std::optional<kernels::KernelMode>& mode : grid.kernel_modes)
        specs.push_back({precision, level, mode});
  return specs;
}

/// Attack-level fault: a corrupts_model() attack (bitflip, stuckat) derives
/// one spec from its params; perturbation attacks contribute none.
faults::FaultSpec AttackFault(const AttackSpec& attack) {
  const attacks::Attack& impl = attacks::GetAttack(attack.name);
  return impl.corrupts_model() ? impl.FaultFromParams(attack.params)
                               : faults::FaultSpec{};
}

/// True when a unit with this attack takes the fault-free fast path — the
/// single EvaluateVariants call of the 8-axis engine. Fault-free grids
/// (default single none fault axis, perturbation attack) must keep their
/// golden reports byte-identical, so that path is preserved verbatim.
bool FaultFreeUnit(const ScenarioGrid& grid,
                   const faults::FaultSpec& attack_fault) {
  return attack_fault.is_none() && grid.faults.size() == 1 &&
         grid.faults[0].is_none();
}

/// What Run does with one work unit.
enum class UnitPlan : char {
  kCompute,  ///< train/craft/evaluate, then journal
  kSkip,     ///< owned by another shard; cells stay unevaluated
  kReplay,   ///< journaled result replays from the store
};

void ValidateRunOptions(const RunOptions& options, bool persistent_store) {
  if (options.shard.has_value()) {
    AXSNN_CHECK(options.shard->count > 0 && options.shard->index >= 0 &&
                    options.shard->index < options.shard->count,
                "shard spec must satisfy 0 <= index < count, got "
                    << options.shard->index << "/" << options.shard->count);
  }
  AXSNN_CHECK(!options.resume || persistent_store,
              "resume requires a scenario store with a root directory "
              "(set_store)");
}

/// Copies a replayed journal record into the unit's outcome block.
void ApplyReplay(const UnitRecord& record, std::size_t base, std::size_t block,
                 ScenarioOutcome& outcome) {
  for (std::size_t i = 0; i < block; ++i)
    outcome.train_accuracy_pct[base + i] = record.train_accuracy_pct;
  if (record.gated) return;  // robustness stays NaN, evaluated stays false
  for (std::size_t i = 0; i < block; ++i) {
    outcome.robustness_pct[base + i] = record.robustness[i];
    outcome.evaluated[base + i] = 1;
  }
}

// --- what differs per workbench ---------------------------------------------

bool ForEvents(const core::StaticWorkbench&) { return false; }
bool ForEvents(const core::DvsWorkbench&) { return true; }

/// DVS cells train at the workbench binning, whatever the (single-entry)
/// time axis says; static cells take the axis value.
std::optional<long> TimeOverride(const core::StaticWorkbench&) { return {}; }
std::optional<long> TimeOverride(const core::DvsWorkbench& bench) {
  return bench.options().time_bins;
}

core::StaticWorkbench::TrainedModel Train(const core::StaticWorkbench& bench,
                                          float vth, long time_steps) {
  return bench.Train(vth, time_steps);
}
core::DvsWorkbench::TrainedModel Train(const core::DvsWorkbench& bench,
                                       float vth, long) {
  return bench.Train(vth);
}

Tensor Craft(const core::StaticWorkbench& bench,
             const core::StaticWorkbench::TrainedModel& model,
             const AttackSpec& attack, double epsilon) {
  return bench.Craft(model, attack.name, static_cast<float>(epsilon),
                     attack.params);
}
data::EventDataset Craft(const core::DvsWorkbench& bench,
                         const core::DvsWorkbench::TrainedModel& model,
                         const AttackSpec& attack, double) {
  return bench.Craft(model, attack.name, attack.params);
}

/// Static grids carry only disengaged aqf entries (validated), so `aqf` is
/// always nullopt there.
std::vector<float> EvaluateVariants(
    const core::StaticWorkbench& bench,
    const core::StaticWorkbench::TrainedModel& model, const Tensor& images,
    const std::optional<core::AqfConfig>&,
    std::span<const core::VariantSpec> variants) {
  return bench.EvaluateVariants(model, images, variants);
}
std::vector<float> EvaluateVariants(
    const core::DvsWorkbench& bench,
    const core::DvsWorkbench::TrainedModel& model,
    const data::EventDataset& streams,
    const std::optional<core::AqfConfig>& aqf,
    std::span<const core::VariantSpec> variants) {
  return bench.EvaluateVariants(model, streams, aqf, variants);
}

float AccuracyPct(const core::StaticWorkbench& bench, snn::Network& victim,
                  const core::StaticWorkbench::TrainedModel& model,
                  const Tensor& images, const std::optional<core::AqfConfig>&) {
  return bench.AccuracyPct(victim, images, model.time_steps);
}
float AccuracyPct(const core::DvsWorkbench& bench, snn::Network& victim,
                  const core::DvsWorkbench::TrainedModel&,
                  const data::EventDataset& streams,
                  const std::optional<core::AqfConfig>& aqf) {
  return bench.AccuracyPct(victim, streams, aqf);
}

}  // namespace

template <typename Bench>
ScenarioEngine<Bench>::ScenarioEngine(const Bench& bench)
    : bench_(bench), own_store_(std::string(), bench) {}

template <typename Bench>
const typename Bench::TrainedModel& ScenarioEngine<Bench>::Model(
    float vth, long time_steps) {
  return store_->FetchModel(vth, time_steps,
                            [&] { return Train(bench_, vth, time_steps); });
}

template <typename Bench>
const typename Bench::TrainedModel& ScenarioEngine<Bench>::TrainCached(
    float vth, long time_steps)
  requires std::same_as<Bench, core::StaticWorkbench>
{
  return Model(vth, time_steps);
}

template <typename Bench>
const typename Bench::TrainedModel& ScenarioEngine<Bench>::TrainCached(
    float vth)
  requires std::same_as<Bench, core::DvsWorkbench>
{
  return Model(vth, bench_.options().time_bins);
}

template <typename Bench>
ScenarioOutcome ScenarioEngine<Bench>::Run(const ScenarioGrid& grid,
                                           const RunOptions& options) {
  const bool for_events = ForEvents(bench_);
  ValidateScenarioGrid(grid, for_events);
  ValidateRunOptions(options, store_->artifacts().persistent());

  const std::optional<long> time_override = TimeOverride(bench_);
  ScenarioOutcome outcome;
  outcome.grid = grid;
  outcome.cells = ExpandScenarioGrid(grid, time_override);
  const std::size_t cell_count = outcome.cells.size();
  outcome.robustness_pct.assign(cell_count,
                                std::numeric_limits<float>::quiet_NaN());
  outcome.train_accuracy_pct.assign(cell_count, 0.0f);
  outcome.evaluated.assign(cell_count, 0);

  const auto run_start = Clock::now();
  const TierCounts models0 = store_->model_counts();
  const TierCounts crafts0 = store_->craft_counts();
  std::atomic<long> gated_units{0};
  std::atomic<long> replayed_units{0};
  std::atomic<long> faulted_evals{0};

  const std::vector<core::VariantSpec> variants = VariantBlock(grid);
  const std::size_t fault_count = grid.faults.size();
  const std::size_t block =
      grid.aqfs.size() * variants.size() * fault_count;  // cells per unit
  const long vth_count = static_cast<long>(grid.v_thresholds.size());
  const long time_count = static_cast<long>(grid.time_steps.size());
  const long attack_count = static_cast<long>(grid.attacks.size());
  const long eps_count = static_cast<long>(grid.epsilons.size());
  const long unit_count = vth_count * time_count * attack_count * eps_count;

  // Unit planning: shard partition (unit % N), then journal replay for
  // resumed runs. The replay probe is sequential disk I/O — cheap next to
  // training — and a record whose block size disagrees with this grid is
  // treated as absent (defensive; the grid key already pins the axes).
  const std::string grid_key = store_->GridKey(grid);
  std::vector<UnitPlan> plan(static_cast<std::size_t>(unit_count),
                             UnitPlan::kCompute);
  std::vector<UnitRecord> replay(static_cast<std::size_t>(unit_count));
  for (long unit = 0; unit < unit_count; ++unit) {
    if (options.shard.has_value() && !options.shard->Owns(unit)) {
      plan[static_cast<std::size_t>(unit)] = UnitPlan::kSkip;
      continue;
    }
    if (!options.resume) continue;
    UnitRecord record;
    if (store_->LoadUnit(grid_key, unit, record) &&
        (record.gated || record.robustness.size() == block)) {
      plan[static_cast<std::size_t>(unit)] = UnitPlan::kReplay;
      replay[static_cast<std::size_t>(unit)] = std::move(record);
    }
  }

  // Phase 1: train every structural cell that still has a unit to compute,
  // cells in parallel. Replayed/foreign-shard units never touch a model, so
  // a warm resume trains nothing. Its clock starts after planning, so the
  // journal probes above are not booked as training.
  const auto train_start = Clock::now();
  std::vector<long> needed_cells;
  std::vector<char> cell_needed(
      static_cast<std::size_t>(vth_count * time_count), 0);
  for (long unit = 0; unit < unit_count; ++unit) {
    if (plan[static_cast<std::size_t>(unit)] != UnitPlan::kCompute) continue;
    const long cell = unit / (attack_count * eps_count);
    if (!cell_needed[static_cast<std::size_t>(cell)]) {
      cell_needed[static_cast<std::size_t>(cell)] = 1;
      needed_cells.push_back(cell);
    }
  }
  runtime::ParallelFor(
      0, static_cast<long>(needed_cells.size()),
      [&](long i) {
        const long cell = needed_cells[static_cast<std::size_t>(i)];
        (void)Model(
            grid.v_thresholds[static_cast<std::size_t>(cell / time_count)],
            time_override.value_or(
                grid.time_steps[static_cast<std::size_t>(cell % time_count)]));
      },
      /*grain=*/1);
  outcome.stats.train_seconds = SecondsSince(train_start);

  // Phase 2: one work unit per (structural cell, attack, epsilon) — craft
  // once, then fan the variant block out through EvaluateVariants. Each
  // unit owns a contiguous slice of the outcome, so the fan-out is
  // bit-identical at any pool size and across any shard split.
  const auto sweep_start = Clock::now();

  runtime::ParallelFor(
      0, unit_count,
      [&](long unit) {
        if (plan[static_cast<std::size_t>(unit)] == UnitPlan::kSkip) return;

        long rest = unit;
        const std::size_t ie = static_cast<std::size_t>(rest % eps_count);
        rest /= eps_count;
        const std::size_t ia = static_cast<std::size_t>(rest % attack_count);
        rest /= attack_count;
        const std::size_t it = static_cast<std::size_t>(rest % time_count);
        const std::size_t iv = static_cast<std::size_t>(rest / time_count);
        const std::size_t base = grid.Index(iv, it, ia, ie, 0, 0, 0, 0);

        if (plan[static_cast<std::size_t>(unit)] == UnitPlan::kReplay) {
          ApplyReplay(replay[static_cast<std::size_t>(unit)], base, block,
                      outcome);
          replayed_units.fetch_add(1, std::memory_order_relaxed);
          return;
        }

        const AttackSpec& attack = grid.attacks[ia];
        const double epsilon = grid.epsilons[ie];
        const TrainedModel& model =
            Model(grid.v_thresholds[iv],
                  time_override.value_or(grid.time_steps[it]));

        for (std::size_t i = 0; i < block; ++i)
          outcome.train_accuracy_pct[base + i] = model.train_accuracy_pct;

        if (grid.min_train_accuracy_pct.has_value() &&
            model.train_accuracy_pct < *grid.min_train_accuracy_pct) {
          gated_units.fetch_add(1, std::memory_order_relaxed);
          UnitRecord record;
          record.gated = true;
          record.train_accuracy_pct = model.train_accuracy_pct;
          store_->SaveUnit(grid_key, unit, record);
          return;  // robustness stays NaN, evaluated stays false
        }

        const auto& adversarial =
            store_->FetchCraft(model, attack, epsilon, [&] {
              return Craft(bench_, model, attack, epsilon);
            });

        // Fault-free units keep the single EvaluateVariants call (and its
        // bytes); fault units clone-then-corrupt every (variant, fault)
        // pair and evaluate it on the pool — each pair owns its slot, so
        // the fan-out stays bit-identical at any pool size. The attack's
        // fault (if any) applies before the axis fault, on the variant's
        // own precision surface. AccuracyPct falls back to the dense path
        // for hooked (activation-fault) clones.
        const faults::FaultSpec attack_fault = AttackFault(attack);
        const auto evaluate_slice =
            [&](const std::optional<core::AqfConfig>& aqf) {
          if (FaultFreeUnit(grid, attack_fault))
            return EvaluateVariants(bench_, model, adversarial, aqf,
                                    variants);
          std::vector<float> robustness(variants.size() * fault_count);
          runtime::ParallelFor(
              0, static_cast<long>(robustness.size()),
              [&](long j) {
                const std::size_t ifl =
                    static_cast<std::size_t>(j) % fault_count;
                const std::size_t ivr =
                    static_cast<std::size_t>(j) / fault_count;
                const core::VariantSpec& vspec = variants[ivr];
                snn::Network ax = bench_.MakeAx(model, vspec);
                bool faulted = false;
                if (!attack_fault.is_none()) {
                  faults::ApplyFault(ax, attack_fault, vspec.precision);
                  faulted = true;
                }
                const faults::FaultSpec& axis_fault = grid.faults[ifl];
                if (!axis_fault.is_none()) {
                  faults::ApplyFault(ax, axis_fault, vspec.precision);
                  faulted = true;
                }
                if (faulted)
                  faulted_evals.fetch_add(1, std::memory_order_relaxed);
                robustness[static_cast<std::size_t>(j)] =
                    AccuracyPct(bench_, ax, model, adversarial, aqf);
              },
              /*grain=*/1);
          return robustness;
        };
        // Both paths produce the variants x faults inner block. Static aqf
        // slices are all disengaged, so their block evaluates once and is
        // replicated; DVS evaluates each slice behind its own filter.
        std::vector<float> robustness;
        for (std::size_t iq = 0; iq < grid.aqfs.size(); ++iq) {
          if (iq == 0 || for_events) robustness = evaluate_slice(grid.aqfs[iq]);
          const std::size_t slice = base + iq * robustness.size();
          for (std::size_t i = 0; i < robustness.size(); ++i) {
            outcome.robustness_pct[slice + i] = robustness[i];
            outcome.evaluated[slice + i] = 1;
          }
        }

        UnitRecord record;
        record.train_accuracy_pct = model.train_accuracy_pct;
        record.robustness.assign(
            outcome.robustness_pct.begin() + static_cast<long>(base),
            outcome.robustness_pct.begin() + static_cast<long>(base + block));
        store_->SaveUnit(grid_key, unit, record);
      },
      /*grain=*/1);

  outcome.stats.sweep_seconds = SecondsSince(sweep_start);
  outcome.stats.wall_seconds = SecondsSince(run_start);
  const TierCounts models = store_->model_counts();
  const TierCounts crafts = store_->craft_counts();
  outcome.stats.trained_models = models.computed - models0.computed;
  outcome.stats.train_cache_hits = models.memory_hits - models0.memory_hits;
  outcome.stats.store_model_hits = models.disk_hits - models0.disk_hits;
  outcome.stats.crafted_sets = crafts.computed - crafts0.computed;
  outcome.stats.craft_cache_hits = crafts.memory_hits - crafts0.memory_hits;
  outcome.stats.store_craft_hits = crafts.disk_hits - crafts0.disk_hits;
  outcome.stats.gated_units = gated_units.load();
  outcome.stats.replayed_units = replayed_units.load();
  outcome.stats.faulted_evals = faulted_evals.load();
  outcome.stats.corrupt_entries = store_->artifacts().corrupt_entries();

  // Fold this run's fresh computations into the grid's cumulative journal
  // totals, so a merged shard run (or a warm rerun) reports the same
  // trained/crafted counters as the single-process cold run. Exact when
  // shards of one grid run sequentially (the CI recipe); concurrent shards
  // keep correct cells but may under-count the shared totals. A
  // memory-only store reads zeros and keeps nothing.
  GridTotals totals = store_->LoadTotals(grid_key);
  totals.trained_models += outcome.stats.trained_models;
  totals.crafted_sets += outcome.stats.crafted_sets;
  store_->SaveTotals(grid_key, totals);
  outcome.stats.total_trained_models = totals.trained_models;
  outcome.stats.total_crafted_sets = totals.crafted_sets;
  return outcome;
}

template class ScenarioEngine<core::StaticWorkbench>;
template class ScenarioEngine<core::DvsWorkbench>;

}  // namespace axsnn::scenario

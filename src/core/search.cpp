#include "core/search.hpp"

#include "scenario/engine.hpp"
#include "tensor/check.hpp"

namespace axsnn::core {

namespace {

void ValidateSpace(const SearchSpace& space, bool need_time_steps) {
  AXSNN_CHECK(!space.v_thresholds.empty(), "empty Vth axis");
  AXSNN_CHECK(!need_time_steps || !space.time_steps.empty(),
              "empty time-step axis");
  AXSNN_CHECK(!space.precisions.empty(), "empty precision axis");
  AXSNN_CHECK(!space.approx_levels.empty(), "empty approximation-level axis");
}

/// The configured attack, resolved through the registry: the explicit
/// attack_name wins over the enum spelling, unknown names throw with the
/// registered list.
const attacks::Attack& ResolveAttack(const SearchConfig& config) {
  const std::string name = config.attack_name.empty()
                               ? AttackName(config.attack)
                               : config.attack_name;
  const attacks::Attack& attack = attacks::GetAttack(name);
  (void)attack.ResolveParams(config.attack_params);
  return attack;
}

/// Tracks the maximum-robustness candidate across the whole sweep,
/// independent of whether any candidate has met the quality constraint.
/// (The previous version keyed the overwrite on `outcome.found`, which made
/// every pre-`found` candidate clobber `best` — the best-effort fallback
/// then reported the *last* candidate instead of the strongest one.)
/// Strict `>` keeps the earliest candidate on ties, matching Algorithm 1's
/// grid-order preference.
struct BestTracker {
  bool has_best = false;

  void Offer(SearchOutcome& outcome, const CandidateResult& candidate) {
    if (!has_best ||
        candidate.robustness_pct > outcome.best.robustness_pct) {
      outcome.best = candidate;
      has_best = true;
    }
  }
};

/// The (precision, level) grid of one structural cell, in Algorithm 1's
/// iteration order.
std::vector<VariantSpec> GridSpecs(const SearchSpace& space) {
  std::vector<VariantSpec> specs;
  specs.reserve(space.precisions.size() * space.approx_levels.size());
  for (approx::Precision precision : space.precisions)
    for (double level : space.approx_levels)
      specs.push_back({precision, level, std::nullopt});
  return specs;
}

/// Folds the fan-out results of one structural cell back into the outcome in
/// grid order, reproducing Algorithm 1 lines 15-24 exactly: the trace stops
/// at the winning candidate under return_first, just like the serial loop.
/// Returns true when the search should stop.
bool AccumulateCell(SearchOutcome& outcome, BestTracker& best,
                    const SearchConfig& config, CandidateResult base,
                    std::span<const VariantSpec> specs,
                    std::span<const float> robustness) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CandidateResult candidate = base;
    candidate.precision = specs[i].precision;
    candidate.level = specs[i].level;
    candidate.robustness_pct = robustness[i];
    outcome.trace.push_back(candidate);
    // Every candidate competes for `best`: failing candidates all sit below
    // Q, so the max is still the first hit whenever one exists, and when
    // nothing meets Q the best-effort answer is the strongest candidate.
    best.Offer(outcome, candidate);
    if (candidate.robustness_pct >= config.quality_constraint_pct) {
      outcome.found = true;
      if (config.return_first) return true;
    }
  }
  return false;
}

/// The search grid as a declarative scenario: structural axes from the
/// space, one attack spec from the config, the training gate as
/// min_train_accuracy_pct (Algorithm 1 line 4).
scenario::ScenarioGrid MakeSearchGrid(const SearchSpace& space,
                                      const SearchConfig& config,
                                      const attacks::Attack& attack) {
  scenario::ScenarioGrid grid;
  grid.v_thresholds = space.v_thresholds;
  if (!space.time_steps.empty()) grid.time_steps = space.time_steps;
  grid.attacks = {
      scenario::AttackSpec{attack.name(), config.attack_params}};
  grid.epsilons = {static_cast<double>(config.epsilon)};
  grid.precisions = space.precisions;
  grid.levels = space.approx_levels;
  grid.min_train_accuracy_pct = config.quality_constraint_pct;
  return grid;
}

/// Folds a full-grid scenario outcome back into a SearchOutcome in grid
/// order; gated structural cells contribute nothing, exactly like the
/// serial walk's `continue` on the training gate.
SearchOutcome FoldGridOutcome(const scenario::ScenarioOutcome& grid_outcome,
                              const SearchConfig& config,
                              std::span<const VariantSpec> specs) {
  SearchOutcome outcome;
  BestTracker best;
  const scenario::ScenarioGrid& grid = grid_outcome.grid;
  const std::size_t block = specs.size();
  for (std::size_t iv = 0; iv < grid.v_thresholds.size(); ++iv) {
    for (std::size_t it = 0; it < grid.time_steps.size(); ++it) {
      const std::size_t base = grid.Index(iv, it, 0, 0, 0, 0, 0, 0);
      if (!grid_outcome.evaluated[base]) continue;  // line 4: gated cell
      CandidateResult cell;
      cell.v_threshold = grid.v_thresholds[iv];
      cell.time_steps = grid_outcome.cells[base].time_steps;
      cell.train_accuracy_pct = grid_outcome.train_accuracy_pct[base];
      (void)AccumulateCell(
          outcome, best, config, cell, specs,
          std::span<const float>(grid_outcome.robustness_pct)
              .subspan(base, block));
    }
  }
  return outcome;
}

}  // namespace

SearchOutcome PrecisionScalingSearch(const StaticWorkbench& bench,
                                     const SearchSpace& space,
                                     const SearchConfig& config,
                                     scenario::StaticScenarioEngine* engine) {
  ValidateSpace(space, /*need_time_steps=*/true);
  const attacks::Attack& attack = ResolveAttack(config);
  AXSNN_CHECK(attack.supports_static(),
              "static search needs a static-capable attack — '"
                  << attack.name() << "' applies to event datasets only");

  AXSNN_CHECK(engine == nullptr || &engine->bench() == &bench,
              "the supplied scenario engine wraps a different workbench");
  const std::vector<VariantSpec> specs = GridSpecs(space);
  scenario::StaticScenarioEngine local(bench);
  scenario::StaticScenarioEngine& exec = engine != nullptr ? *engine : local;

  if (!config.return_first) {
    // Whole-grid mode: one declarative scenario on the engine.
    return FoldGridOutcome(exec.Run(MakeSearchGrid(space, config, attack)),
                           config, specs);
  }

  // First-hit mode: the paper's serial grid walk, stopping at the first
  // candidate meeting Q (so later structural cells never train).
  SearchOutcome outcome;
  BestTracker best;
  for (float vth : space.v_thresholds) {
    for (long t : space.time_steps) {
      // Line 3: train the accurate SNN at this structural cell.
      const StaticWorkbench::TrainedModel& model = exec.TrainCached(vth, t);
      // Line 4: quality gate on learning.
      if (model.train_accuracy_pct < config.quality_constraint_pct) continue;
      // Line 5: adversarial examples crafted on the accurate model.
      Tensor adversarial = bench.Craft(model, attack.name(), config.epsilon,
                                       config.attack_params);

      // Lines 8-21 for the whole (precision, level) grid of this structural
      // cell: independent variants fan out on the runtime pool.
      const std::vector<float> robustness =
          bench.EvaluateVariants(model, adversarial, specs);

      // Lines 22-24: fold back in grid order; accept on the quality
      // constraint exactly like the serial loop.
      CandidateResult base;
      base.v_threshold = vth;
      base.time_steps = t;
      base.train_accuracy_pct = model.train_accuracy_pct;
      if (AccumulateCell(outcome, best, config, base, specs, robustness))
        return outcome;
    }
  }
  // When nothing met Q, `best` already holds the strongest candidate seen
  // (found stays false) — the best-effort answer for any return_first mode.
  return outcome;
}

SearchOutcome PrecisionScalingSearch(const DvsWorkbench& bench,
                                     const SearchSpace& space,
                                     const SearchConfig& config,
                                     scenario::DvsScenarioEngine* engine) {
  ValidateSpace(space, /*need_time_steps=*/false);
  const attacks::Attack& attack = ResolveAttack(config);
  AXSNN_CHECK(attack.supports_events(),
              "neuromorphic search needs an event-capable attack — '"
                  << attack.name() << "' applies to static batches only");

  AXSNN_CHECK(engine == nullptr || &engine->bench() == &bench,
              "the supplied scenario engine wraps a different workbench");
  const std::optional<AqfConfig> aqf =
      config.neuromorphic ? std::optional<AqfConfig>(config.aqf)
                          : std::nullopt;
  const std::vector<VariantSpec> specs = GridSpecs(space);
  scenario::DvsScenarioEngine local(bench);
  scenario::DvsScenarioEngine& exec = engine != nullptr ? *engine : local;

  if (!config.return_first) {
    scenario::ScenarioGrid grid = MakeSearchGrid(space, config, attack);
    grid.time_steps = {bench.options().time_bins};  // binning fixes T
    grid.epsilons = {0.0};                          // no event epsilon
    grid.aqfs = {aqf};
    return FoldGridOutcome(exec.Run(grid), config, specs);
  }

  SearchOutcome outcome;
  BestTracker best;
  for (float vth : space.v_thresholds) {
    const DvsWorkbench::TrainedModel& model = exec.TrainCached(vth);
    if (model.train_accuracy_pct < config.quality_constraint_pct) continue;
    data::EventDataset adversarial =
        bench.Craft(model, attack.name(), config.attack_params);

    const std::vector<float> robustness =
        bench.EvaluateVariants(model, adversarial, aqf, specs);

    CandidateResult base;
    base.v_threshold = vth;
    base.time_steps = model.time_bins;
    base.train_accuracy_pct = model.train_accuracy_pct;
    if (AccumulateCell(outcome, best, config, base, specs, robustness))
      return outcome;
  }
  return outcome;
}

}  // namespace axsnn::core

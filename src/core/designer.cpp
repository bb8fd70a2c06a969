#include "core/designer.hpp"

#include <stdexcept>

#include "scenario/engine.hpp"

namespace axsnn::core {

StaticDesign DesignSecureAxsnn(const StaticWorkbench& bench,
                               const SearchSpace& space,
                               const SearchConfig& config) {
  scenario::StaticScenarioEngine engine(bench);
  SearchOutcome outcome = PrecisionScalingSearch(bench, space, config, &engine);
  if (!outcome.found && config.return_first) {
    throw std::runtime_error(
        "axsnn: no configuration met the quality constraint; widen the "
        "search space or lower Q");
  }
  // The search trained the winning cell through the engine's store: a
  // memory hit, bit-identical to training it again.
  const StaticWorkbench::TrainedModel& winner = engine.TrainCached(
      outcome.best.v_threshold, outcome.best.time_steps);
  StaticDesign design;
  design.accurate = {winner.net.Clone(), winner.v_threshold,
                     winner.time_steps, winner.train_accuracy_pct,
                     winner.calibration};
  design.axsnn = bench.MakeAx(design.accurate, outcome.best.level,
                              outcome.best.precision);
  design.outcome = std::move(outcome);
  return design;
}

DvsDesign DesignSecureAxsnn(const DvsWorkbench& bench,
                            const SearchSpace& space,
                            const SearchConfig& config) {
  scenario::DvsScenarioEngine engine(bench);
  SearchOutcome outcome = PrecisionScalingSearch(bench, space, config, &engine);
  if (!outcome.found && config.return_first) {
    throw std::runtime_error(
        "axsnn: no configuration met the quality constraint; widen the "
        "search space or lower Q");
  }
  const DvsWorkbench::TrainedModel& winner =
      engine.TrainCached(outcome.best.v_threshold);
  DvsDesign design;
  design.accurate = {winner.net.Clone(), winner.v_threshold, winner.time_bins,
                     winner.train_accuracy_pct, winner.calibration};
  design.axsnn = bench.MakeAx(design.accurate, outcome.best.level,
                              outcome.best.precision);
  design.outcome = std::move(outcome);
  return design;
}

}  // namespace axsnn::core

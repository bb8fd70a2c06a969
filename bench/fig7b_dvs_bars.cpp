// Fig. 7b — DVS-Gesture bar chart: AccSNN and AxSNN accuracy with no
// attack, under the Sparse attack, and under the Frame attack (no defense).
//
// Paper: AccSNN 92% clean; both models collapse under both neuromorphic
// attacks (AccSNN to 12%/10%, AxSNN similar) — motivating the AQF defense
// evaluated in Table II.
//
// Declarative form: one DVS ScenarioGrid — attack axis {none, Sparse,
// Frame} x level axis {0, 0.1} (level 0 is the accurate model) — with the
// engine training once and crafting each attack once.
#include <iostream>

#include "bench_common.hpp"
#include "eval/report.hpp"
#include "scenario/store.hpp"

using namespace axsnn;

int main(int argc, char** argv) {
  const scenario::ShardRunnerOptions cli = bench::ParseCliOrExit(argc, argv);
  bench::PrintBanner(
      "Fig. 7b (DVS gesture: attacks without defense)",
      "clean 92%; sparse/frame attacks collapse both AccSNN and AxSNN");

  core::DvsWorkbench workbench(bench::MakeDvsTrain(550),
                               bench::MakeDvsTest(110), bench::DvsOptions());
  scenario::DvsScenarioEngine engine(workbench);
  scenario::DvsScenarioStore store(cli.cache_dir, workbench);
  engine.set_store(&store);

  scenario::ScenarioGrid grid;
  grid.v_thresholds = {1.0f};
  grid.attacks = {scenario::AttackSpec{"none", {}},
                  scenario::AttackSpec{"Sparse", {}},
                  scenario::AttackSpec{"Frame", {}}};
  grid.levels = {0.0, 0.1};  // AccSNN, AxSNN(0.1)

  const scenario::ScenarioOutcome outcome =
      engine.Run(grid, cli.run_options());
  std::cout << "trained AccSNN (Vth=1.0, " << workbench.options().time_bins
            << " time bins): train accuracy "
            << outcome.train_accuracy_pct.front() << "%\n";

  std::vector<std::vector<std::string>> rows;
  const auto add_row = [&](const std::string& name, std::size_t level_i) {
    std::vector<std::string> row = {name};
    for (std::size_t attack_i = 0; attack_i < grid.attacks.size(); ++attack_i)
      row.push_back(eval::FormatValue(
          outcome.Robustness(0, 0, attack_i, 0, 0, 0, level_i, 0)));
    rows.push_back(std::move(row));
  };
  add_row("AccSNN", 0);
  add_row("AxSNN(0.1)", 1);

  eval::PrintTable(std::cout,
                   "Fig. 7b: DVS128-Gesture-class accuracy [%] (no defense)",
                   {"model", "no attack", "sparse", "frame"}, rows);
  bench::WriteScenarioStats(cli.stats_out, outcome.stats);
  return 0;
}

// Scenario-golden harness: a miniature declarative Fig.-2 grid whose
// rendered report is fully deterministic (seeded training, bit-identical
// kernels at any pool size, no timing lines). CI runs this binary and
// byte-diffs its stdout against bench/golden/scenario_fig2_mini.golden, so
// a refactor of the scenario engine, the attack registry or the workbench
// plumbing can never silently change experiment results.
//
// The distributed-execution flags extend the gate: CI also runs the grid as
// two shards into a shared --cache-dir, merges with --resume, and byte-
// diffs the merged report against the *same* golden — the report prints the
// journal's cumulative totals, which for a merged (or warm) run equal the
// single-process counters. The per-run counters land in --stats-out, where
// the cache-reuse gate asserts a warm rerun computes nothing.
//
// Regenerating the golden (only after an *intentional* numerical change):
//   ./bench_scenario_golden > ../bench/golden/scenario_fig2_mini.golden
#include <iostream>

#include "bench_common.hpp"
#include "eval/report.hpp"
#include "scenario/store.hpp"

using namespace axsnn;

int main(int argc, char** argv) {
  const scenario::ShardRunnerOptions cli = bench::ParseCliOrExit(argc, argv);
  core::StaticWorkbench workbench = bench::MiniFig2Workbench();
  scenario::StaticScenarioEngine engine(workbench);
  scenario::StaticScenarioStore store(cli.cache_dir, workbench);
  engine.set_store(&store);

  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {8};
  grid.attacks = {scenario::AttackSpec{"PGD", {}}};
  grid.epsilons = {0.0, 0.05, 0.1};
  grid.precisions = {approx::Precision::kFp32, approx::Precision::kInt8};
  grid.levels = {0.0, 0.01};

  const scenario::ScenarioOutcome outcome =
      engine.Run(grid, cli.run_options());

  std::cout << "== scenario golden: fig2 mini grid ==\n"
            << "cells: " << grid.CellCount()
            << ", trained models: " << outcome.stats.total_trained_models
            << ", crafted sets: " << outcome.stats.total_crafted_sets << "\n"
            << "train accuracy: "
            << eval::FormatValue(outcome.train_accuracy_pct.front(), 2)
            << "%\n";

  std::vector<eval::Series> series;
  for (std::size_t ip = 0; ip < grid.precisions.size(); ++ip) {
    for (std::size_t il = 0; il < grid.levels.size(); ++il) {
      eval::Series s{approx::PrecisionName(grid.precisions[ip]) + "/lvl=" +
                         eval::FormatValue(grid.levels[il], 2),
                     {}};
      for (std::size_t ie = 0; ie < grid.epsilons.size(); ++ie)
        s.values.push_back(outcome.Robustness(0, 0, 0, ie, 0, ip, il, 0));
      series.push_back(std::move(s));
    }
  }
  eval::PrintSeriesTable(std::cout,
                         "mini Fig. 2: PGD accuracy [%] by (precision, level)",
                         "eps", grid.epsilons, series);
  bench::WriteScenarioStats(cli.stats_out, outcome.stats);
  return 0;
}

// Fig. 8 (extension): bit-flip robustness across the approximate lattice.
//
// The paper's threat model perturbs inputs; this harness opens the storage
// surface instead — NeuroAttack-style deterministic bit-flip campaigns
// (src/faults/) swept as a first-class scenario-grid axis. One mini grid:
//
//   attacks     none | bitflip{flips=12}   (registry fault attack: the
//                                           adversary flips weight bits
//                                           instead of perturbing pixels)
//   precisions  fp32 | fp16 | int8          (the approximate lattice)
//   faults      none | BER 5e-4 | BER 5e-3 | int8 scale corruption
//                                           (the fault grid axis: evaluated
//                                           variant corrupted per cell)
//
// so every robustness row answers "how much accuracy does this precision
// tier give up under this corruption budget". The fp16 rows flip binary16
// half-words, the int8 rows flip 8-bit codes — and the last fault column
// pins exponent-bit corruption of the per-channel fp32 scale words, the
// int8 snapshot's highest-leverage storage.
//
// The report is fully deterministic (seeded training, seeded site draws,
// bit-identical kernels at any pool size), so CI byte-diffs it against
// bench/golden/fig8_bitflip_mini.golden — including a two-shard fan-out
// merged with --resume, which must reproduce the single-process bytes.
//
// Regenerating the golden (only after an *intentional* numerical change):
//   ./bench_fig8_bitflip > ../bench/golden/fig8_bitflip_mini.golden
#include <iostream>

#include "bench_common.hpp"
#include "eval/report.hpp"
#include "faults/campaign.hpp"
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
  grid.attacks = {scenario::AttackSpec{"none", {}},
                  scenario::AttackSpec{"bitflip", {{"flips", 12}, {"seed", 3}}}};
  grid.epsilons = {0.0};
  grid.precisions = {approx::Precision::kFp32, approx::Precision::kFp16,
                     approx::Precision::kInt8};
  grid.levels = {0.0};

  faults::FaultSpec ber_low;
  ber_low.kind = faults::FaultKind::kBitFlip;
  ber_low.ber = 5e-4;
  ber_low.seed = 101;
  faults::FaultSpec ber_high = ber_low;
  ber_high.ber = 5e-3;
  // Per-channel scale corruption: exponent bit 23 of the int8 snapshot's
  // fp32 scale words (a no-op on the float variants — empty surface).
  faults::FaultSpec scale_hit;
  scale_hit.kind = faults::FaultKind::kBitFlip;
  scale_hit.target = faults::WeightTarget::kInt8Scales;
  scale_hit.flips = 4;
  scale_hit.bit = 23;
  scale_hit.seed = 7;
  grid.faults = {faults::FaultSpec{}, ber_low, ber_high, scale_hit};

  const scenario::ScenarioOutcome outcome =
      engine.Run(grid, cli.run_options());

  std::cout << "== fig8: bit-flip robustness across the approximate lattice ==\n"
            << "cells: " << grid.CellCount()
            << ", trained models: " << outcome.stats.total_trained_models
            << ", crafted sets: " << outcome.stats.total_crafted_sets << "\n"
            << "train accuracy: "
            << eval::FormatValue(outcome.train_accuracy_pct.front(), 2)
            << "%\n";
  for (std::size_t ifl = 0; ifl < grid.faults.size(); ++ifl)
    std::cout << "fault[" << ifl << "] = " << grid.faults[ifl].Label() << "\n";

  for (std::size_t ia = 0; ia < grid.attacks.size(); ++ia) {
    std::vector<double> xs;
    for (std::size_t ifl = 0; ifl < grid.faults.size(); ++ifl)
      xs.push_back(static_cast<double>(ifl));
    std::vector<eval::Series> series;
    for (std::size_t ip = 0; ip < grid.precisions.size(); ++ip) {
      eval::Series s{approx::PrecisionName(grid.precisions[ip]), {}};
      for (std::size_t ifl = 0; ifl < grid.faults.size(); ++ifl)
        s.values.push_back(outcome.Robustness(0, 0, ia, 0, 0, ip, 0, 0, ifl));
      series.push_back(std::move(s));
    }
    eval::PrintSeriesTable(std::cout,
                           "mini Fig. 8 (" + grid.attacks[ia].Label() +
                               "): accuracy [%] by (precision, fault)",
                           "fault", xs, series);
  }

  // NeuroAttack-style greedy ranking on the int8 variant: which storage
  // bits hurt most, most damaging first. Deterministic in (model bytes,
  // seed), so it reproduces byte-identically on every shard/merge run.
  const auto& model = engine.TrainCached(0.25f, 8);
  const Tensor& images = workbench.test_set().images;
  const faults::EvalFn eval_fn = [&](snn::Network& victim) {
    return workbench.AccuracyPct(victim, images, model.time_steps);
  };
  core::VariantSpec int8_spec;
  int8_spec.precision = approx::Precision::kInt8;
  snn::Network ax = workbench.MakeAx(model, int8_spec);
  const float clean = workbench.AccuracyPct(ax, images, model.time_steps);

  faults::SensitivityOptions sopts;
  sopts.rounds = 3;
  sopts.seed = 5;
  const std::vector<faults::SensitivityStep> steps =
      faults::GreedySensitivitySearch(ax, approx::Precision::kInt8, eval_fn,
                                      sopts);
  std::cout << "== greedy sensitivity ranking (int8 variant) ==\n"
            << "clean accuracy: " << eval::FormatValue(clean, 2) << "%\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const faults::SensitivityStep& s = steps[i];
    std::cout << "flip " << (i + 1) << ": layer=" << s.layer
              << " target=" << faults::WeightTargetName(s.target)
              << " bit=" << s.bit << " word=" << s.word << " -> accuracy "
              << eval::FormatValue(s.accuracy_pct, 2) << "% (drop "
              << eval::FormatValue(s.drop_pct, 2) << "%)\n";
  }

  bench::WriteScenarioStats(cli.stats_out, outcome.stats);
  return 0;
}

// DVS-golden harness: a miniature Fig.-7b grid whose rendered report is
// fully deterministic (seeded synthetic gestures, seeded training, no
// timing lines). CI runs this binary under AXSNN_EVENT_PATH=off and =on
// and byte-diffs both outputs against bench/golden/fig7b_dvs_mini.golden:
// the dense reference path and the compressed spike-stream event path must
// produce the same report to the byte, so neither a temporal-pipeline
// refactor nor the skip-on-silent fast path can silently change results.
//
// The same mini grid also runs through the DVS scenario engine, which must
// reproduce every directly evaluated cell bit for bit; the binary exits 1
// (reporting the mismatches on stderr, so the golden bytes stay put) when
// it does not.
//
// Regenerating the golden (only after an *intentional* numerical change):
//   ./bench_dvs_golden > ../bench/golden/fig7b_dvs_mini.golden
#include <cstring>
#include <iostream>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "eval/report.hpp"

using namespace axsnn;

int main() {
  core::DvsWorkbench::Options opts;
  opts.train.epochs = 2;
  opts.time_bins = 8;
  opts.eval_batch = 16;
  core::DvsWorkbench workbench(bench::MakeDvsTrain(44), bench::MakeDvsTest(22),
                               opts);
  // Trained once, through the engine, so its grid below reuses the model.
  scenario::DvsScenarioEngine engine(workbench);
  const core::DvsWorkbench::TrainedModel& model = engine.TrainCached(1.0f);

  // No path-identifying output: the whole point is that the dense and event
  // path renditions of this report are byte-for-byte the same file.
  std::cout << "== dvs golden: fig7b mini grid ==\n"
            << "time bins: " << opts.time_bins << ", train accuracy: "
            << eval::FormatValue(model.train_accuracy_pct, 2) << "%\n";

  const data::EventDataset frame_attacked = workbench.Craft(model, "Frame");

  const std::vector<core::VariantSpec> specs = {
      {approx::Precision::kFp32, 0.0, std::nullopt},
      {approx::Precision::kFp32, 0.1, std::nullopt},
      {approx::Precision::kInt8, 0.0, std::nullopt},
      {approx::Precision::kInt8, 0.1, std::nullopt},
  };
  const std::vector<float> clean =
      workbench.EvaluateVariants(model, workbench.test_set(), std::nullopt,
                                 specs);
  const std::vector<float> attacked =
      workbench.EvaluateVariants(model, frame_attacked, std::nullopt, specs);

  std::vector<std::vector<std::string>> rows;
  const char* names[] = {"AccSNN/fp32", "AxSNN(0.1)/fp32", "AccSNN/int8",
                         "AxSNN(0.1)/int8"};
  for (std::size_t i = 0; i < specs.size(); ++i)
    rows.push_back({names[i], eval::FormatValue(clean[i]),
                    eval::FormatValue(attacked[i])});
  eval::PrintTable(std::cout,
                   "mini Fig. 7b: DVS accuracy [%] (clean / frame attack)",
                   {"variant", "no attack", "frame"}, rows);

  // {none, Frame} x {fp32, int8} x {0, 0.1}: cell order is attack-major,
  // then precision, then level, i.e. `specs` once per attack.
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {1.0f};
  grid.attacks = {scenario::AttackSpec{"none", {}},
                  scenario::AttackSpec{"Frame", {}}};
  grid.precisions = {approx::Precision::kFp32, approx::Precision::kInt8};
  grid.levels = {0.0, 0.1};
  const scenario::ScenarioOutcome outcome = engine.Run(grid);

  std::vector<float> direct = clean;
  direct.insert(direct.end(), attacked.begin(), attacked.end());
  int failures = 0;
  if (outcome.stats.trained_models != 0) {
    std::cerr << "dvs golden: the engine retrained the cached model\n";
    ++failures;
  }
  if (outcome.robustness_pct.size() != direct.size()) {
    std::cerr << "dvs golden: engine grid has " << outcome.robustness_pct.size()
              << " cells, expected " << direct.size() << "\n";
    return 1;
  }
  for (std::size_t i = 0; i < direct.size(); ++i) {
    if (std::memcmp(&outcome.robustness_pct[i], &direct[i], sizeof(float)) !=
        0) {
      std::cerr << "dvs golden: engine cell " << i << " = "
                << outcome.robustness_pct[i] << ", direct evaluation = "
                << direct[i] << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

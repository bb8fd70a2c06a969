#include "bench_common.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "eval/report.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/store.hpp"
#include "tensor/check.hpp"

namespace axsnn::bench {

std::vector<double> PaperEpsGrid() {
  return {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5};
}

Tensor MakeSpikes(Shape shape, float density, Rng& rng) {
  Tensor gate = Tensor::Uniform(shape, 0.0f, 1.0f, rng);
  Tensor vals = Tensor::Uniform(shape, 0.25f, 1.0f, rng);
  Tensor x(std::move(shape));
  for (long i = 0; i < x.numel(); ++i)
    x[i] = gate[i] < density ? vals[i] : 0.0f;
  return x;
}

std::vector<float> VthGrid() {
  std::vector<float> v;
  for (float x = 0.25f; x <= 2.26f; x += 0.25f) v.push_back(x);
  return v;
}

std::vector<long> TimeGrid() {
  std::vector<long> t;
  for (long x = 32; x <= 80; x += 8) t.push_back(x);
  return t;
}

data::StaticDataset MakeStaticTrain(long count) {
  data::SyntheticMnistOptions opts;
  opts.count = count;
  opts.seed = 1001;
  return data::MakeSyntheticMnist(opts);
}

data::StaticDataset MakeStaticTest(long count) {
  data::SyntheticMnistOptions opts;
  opts.count = count;
  opts.seed = 2002;
  return data::MakeSyntheticMnist(opts);
}

data::EventDataset MakeDvsTrain(long count) {
  data::DvsGestureOptions opts;
  opts.count = count;
  opts.seed = 3003;
  return data::MakeSyntheticDvsGesture(opts);
}

data::EventDataset MakeDvsTest(long count) {
  data::DvsGestureOptions opts;
  opts.count = count;
  opts.seed = 4004;
  return data::MakeSyntheticDvsGesture(opts);
}

core::StaticWorkbench::Options FigureOptions() {
  core::StaticWorkbench::Options opts;
  opts.train.epochs = 6;
  opts.train.batch_size = 32;
  opts.train_time_steps_cap = 12;
  opts.attack_time_steps_cap = 8;
  opts.attack_steps = 10;
  // Eq. (1) gain recalibrated at this training budget so the published
  // level bands hold (level 0.1 ~ half accuracy, level 1.0 ~ chance).
  opts.threshold_gain = 2.5;
  return opts;
}

core::StaticWorkbench::Options HeatmapOptions() {
  core::StaticWorkbench::Options opts;
  opts.train.epochs = 3;
  opts.train.batch_size = 48;
  opts.train_time_steps_cap = 10;
  opts.attack_time_steps_cap = 8;
  opts.attack_steps = 6;
  opts.eval_batch = 96;
  return opts;
}

core::DvsWorkbench::Options DvsOptions() {
  core::DvsWorkbench::Options opts;
  opts.train.epochs = 16;
  opts.time_bins = 24;
  return opts;
}

core::StaticWorkbench MiniFig2Workbench() {
  core::StaticWorkbench::Options opts;
  opts.net.lif.v_threshold = 0.25f;
  opts.train.epochs = 2;
  opts.train.batch_size = 32;
  opts.train_time_steps_cap = 6;
  opts.attack_time_steps_cap = 6;
  opts.attack_steps = 3;
  opts.eval_batch = 64;

  data::SyntheticMnistOptions d;
  d.count = 192;
  d.seed = 51;
  data::StaticDataset train = data::MakeSyntheticMnist(d);
  d.count = 48;
  d.seed = 52;
  data::StaticDataset test = data::MakeSyntheticMnist(d);
  return core::StaticWorkbench(std::move(train), std::move(test), opts);
}

std::string CacheDir() {
  const std::string dir = "axsnn_bench_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

void PrintBanner(const std::string& artifact, const std::string& paper_claim) {
  std::cout << "#############################################################\n"
            << "# Reproduction: Security-Aware Approximate Spiking Neural\n"
            << "# Networks (DATE 2023) — " << artifact << "\n"
            << "# Paper claim: " << paper_claim << "\n"
            << "# Substrate: synthetic datasets, CPU SNN trainer; epsilon\n"
            << "# axis compressed by x" << kEpsilonScale
            << " (see EXPERIMENTS.md).\n"
            << "#############################################################\n";
}

scenario::ShardRunnerOptions ParseCliOrExit(int argc, char** argv,
                                            bool allow_shard,
                                            bool allow_resume) {
  try {
    return scenario::ParseShardRunnerArgs(argc, argv, allow_shard,
                                          allow_resume);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\nusage: " << argv[0] << " "
              << (allow_shard ? scenario::ShardRunnerUsage()
                              : "[--cache-dir DIR] [--stats-out FILE]")
              << "\n";
    std::exit(2);
  }
}

void WriteScenarioStats(const std::string& path,
                        const scenario::ScenarioStats& stats) {
  if (path.empty()) return;
  std::ofstream os(path);
  AXSNN_CHECK(os.good(), "cannot open stats output file " << path);
  os << "{\n"
     << "  \"trained_models_run\": " << stats.trained_models << ",\n"
     << "  \"crafted_sets_run\": " << stats.crafted_sets << ",\n"
     << "  \"store_model_hits\": " << stats.store_model_hits << ",\n"
     << "  \"store_craft_hits\": " << stats.store_craft_hits << ",\n"
     << "  \"replayed_units\": " << stats.replayed_units << ",\n"
     << "  \"gated_units\": " << stats.gated_units << ",\n"
     << "  \"faulted_evals\": " << stats.faulted_evals << ",\n"
     << "  \"corrupt_entries\": " << stats.corrupt_entries << ",\n"
     << "  \"total_trained_models\": " << stats.total_trained_models << ",\n"
     << "  \"total_crafted_sets\": " << stats.total_crafted_sets << ",\n"
     << "  \"train_seconds\": " << stats.train_seconds << ",\n"
     << "  \"sweep_seconds\": " << stats.sweep_seconds << ",\n"
     << "  \"wall_seconds\": " << stats.wall_seconds << "\n"
     << "}\n";
  AXSNN_CHECK(os.good(), "failed writing stats output file " << path);
}

void RunEpsSweepFigure(const EpsSweepFigure& figure,
                       const scenario::ShardRunnerOptions& cli) {
  PrintBanner(figure.artifact, figure.paper_claim);
  std::cout << "runtime pool: " << runtime::GlobalPool()->thread_count()
            << " thread(s)\n";

  core::StaticWorkbench workbench(MakeStaticTrain(2048), MakeStaticTest(512),
                                  FigureOptions());
  scenario::StaticScenarioEngine engine(workbench);
  scenario::StaticScenarioStore store(cli.cache_dir, workbench);
  engine.set_store(&store);

  const std::vector<double> eps_grid = PaperEpsGrid();
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {32};
  grid.attacks = {scenario::AttackSpec{figure.attack, {}}};
  grid.epsilons.clear();
  for (double paper_eps : eps_grid) {
    // Multiply in float exactly like the pre-engine harnesses, so crafted
    // sets (and the golden fig2 report) stay bit-identical.
    grid.epsilons.push_back(
        static_cast<double>(static_cast<float>(paper_eps) * kEpsilonScale));
  }
  grid.levels = figure.levels;

  const scenario::ScenarioOutcome outcome =
      engine.Run(grid, cli.run_options());

  std::cout << "trained AccSNN: train accuracy "
            << outcome.train_accuracy_pct.front() << "%\n";
  for (double paper_eps : eps_grid)
    std::cout << "paper eps " << paper_eps << " done\n";

  std::vector<eval::Series> series;
  for (std::size_t il = 0; il < figure.levels.size(); ++il) {
    eval::Series s{figure.series_names[il], {}};
    for (std::size_t ie = 0; ie < eps_grid.size(); ++ie)
      s.values.push_back(outcome.Robustness(0, 0, 0, ie, 0, 0, il, 0));
    series.push_back(std::move(s));
  }
  eval::PrintSeriesTable(std::cout, figure.table_title, "eps", eps_grid,
                         series);
  eval::PrintRunFooter(std::cout, outcome.stats.sweep_seconds,
                       static_cast<long>(grid.CellCount()),
                       runtime::GlobalPool()->thread_count());
  WriteScenarioStats(cli.stats_out, outcome.stats);
}

void RunPrecisionHeatmap(approx::Precision precision,
                         const std::string& figure_name,
                         const std::string& paper_claim,
                         const scenario::ShardRunnerOptions& cli) {
  PrintBanner(figure_name, paper_claim);
  core::StaticWorkbench workbench(MakeStaticTrain(384), MakeStaticTest(192),
                                  HeatmapOptions());
  scenario::StaticScenarioEngine engine(workbench);
  // Figs. 4-6 always persist their cells: the three precision sweeps share
  // all 63 models and both adversarial sets through the store.
  scenario::StaticScenarioStore store(
      cli.cache_dir.empty() ? CacheDir() : cli.cache_dir, workbench);
  engine.set_store(&store);

  scenario::ScenarioGrid grid;
  grid.v_thresholds = VthGrid();
  grid.time_steps = TimeGrid();
  grid.attacks = {scenario::AttackSpec{"PGD", {}},
                  scenario::AttackSpec{"BIM", {}}};
  grid.epsilons = {1.0 * kEpsilonScale};  // paper eps 1.0
  grid.precisions = {precision};
  grid.levels = {0.01};

  const scenario::ScenarioOutcome outcome =
      engine.Run(grid, cli.run_options());

  const auto vths = VthGrid();
  const auto times = TimeGrid();
  std::vector<std::vector<double>> pgd(times.size(),
                                       std::vector<double>(vths.size()));
  std::vector<std::vector<double>> bim = pgd;
  for (std::size_t row = 0; row < times.size(); ++row) {
    for (std::size_t col = 0; col < vths.size(); ++col) {
      pgd[row][col] = outcome.Robustness(col, row, 0, 0, 0, 0, 0, 0);
      bim[row][col] = outcome.Robustness(col, row, 1, 0, 0, 0, 0, 0);
    }
  }

  std::vector<double> time_labels(times.begin(), times.end());
  std::vector<double> vth_labels(vths.begin(), vths.end());
  eval::PrintHeatmap(std::cout, figure_name + " (a): PGD accuracy [%]",
                     "timesteps", time_labels, "Vth", vth_labels, pgd);
  eval::PrintHeatmap(std::cout, figure_name + " (b): BIM accuracy [%]",
                     "timesteps", time_labels, "Vth", vth_labels, bim);
  WriteScenarioStats(cli.stats_out, outcome.stats);
}

}  // namespace axsnn::bench

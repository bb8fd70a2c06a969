// Scenario-subsystem tests: the attack registry (registration, lookup,
// param-schema validation), declarative grid expansion, the engine's
// trained-model cache semantics, pool-size determinism of a mini grid, the
// Algorithm-1 training gate, and registry-only attacks running end-to-end
// (a PGD parameter ladder on the static bench, Corner/Dash on the DVS
// bench) without any workbench enum involvement.
#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "attacks/registry.hpp"
#include "core/search.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/engine.hpp"

namespace axsnn {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { runtime::SetGlobalThreads(threads); }
  ~ScopedThreads() { runtime::SetGlobalThreads(0); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;
};

// --- registry ---------------------------------------------------------------

TEST(AttackRegistry, BuiltinsRegisteredInCanonicalOrder) {
  const std::vector<std::string> names = attacks::RegisteredAttackNames();
  ASSERT_GE(names.size(), 7u);
  EXPECT_EQ(names[0], "none");
  EXPECT_EQ(names[1], "PGD");
  EXPECT_EQ(names[2], "BIM");
  EXPECT_EQ(names[3], "Sparse");
  EXPECT_EQ(names[4], "Frame");
  EXPECT_EQ(names[5], "Corner");
  EXPECT_EQ(names[6], "Dash");
}

TEST(AttackRegistry, LookupRoundTripAndApplicability) {
  for (const std::string& name : attacks::RegisteredAttackNames()) {
    const attacks::Attack& attack = attacks::GetAttack(name);
    EXPECT_EQ(attack.name(), name);
    EXPECT_FALSE(attack.description().empty());
  }
  EXPECT_TRUE(attacks::GetAttack("PGD").supports_static());
  EXPECT_FALSE(attacks::GetAttack("PGD").supports_events());
  EXPECT_TRUE(attacks::GetAttack("Sparse").supports_events());
  EXPECT_FALSE(attacks::GetAttack("Sparse").supports_static());
  EXPECT_TRUE(attacks::GetAttack("none").supports_static());
  EXPECT_TRUE(attacks::GetAttack("none").supports_events());
}

TEST(AttackRegistry, UnknownNameThrowsListingRegistered) {
  EXPECT_EQ(attacks::AttackRegistry::Global().Find("NoSuchAttack"), nullptr);
  try {
    attacks::GetAttack("NoSuchAttack");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("NoSuchAttack"), std::string::npos);
    EXPECT_NE(message.find("PGD"), std::string::npos)
        << "error should list the registered attacks: " << message;
  }
}

class TestOnlyAttack final : public attacks::Attack {
 public:
  std::string name() const override { return "TestOnly"; }
  std::string description() const override { return "registry test dummy"; }
  bool supports_static() const override { return true; }
  Tensor CraftStatic(const snn::Network&, const Tensor& images,
                     std::span<const int>, const attacks::StaticCraftContext&,
                     const attacks::ParamMap& params) const override {
    (void)ResolveParams(params);
    return images;
  }
};

TEST(AttackRegistry, ExtensionRegistersOnceAndRejectsDuplicates) {
  auto& registry = attacks::AttackRegistry::Global();
  if (registry.Find("TestOnly") == nullptr)
    registry.Register(std::make_unique<TestOnlyAttack>());
  EXPECT_EQ(registry.Get("TestOnly").description(), "registry test dummy");
  EXPECT_THROW(registry.Register(std::make_unique<TestOnlyAttack>()),
               std::invalid_argument);
}

TEST(AttackParams, ResolveFillsDefaultsAndRejectsUnknownKeys) {
  const attacks::Attack& sparse = attacks::GetAttack("Sparse");
  const attacks::ParamMap resolved =
      sparse.ResolveParams({{"max_iterations", 4.0}});
  EXPECT_EQ(resolved.at("max_iterations"), 4.0);
  EXPECT_EQ(resolved.at("events_per_iteration"), 24.0);  // schema default
  EXPECT_EQ(resolved.at("min_spacing"), 6.0);
  try {
    sparse.ResolveParams({{"max_iters", 4.0}});  // typo
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("max_iters"), std::string::npos);
    EXPECT_NE(message.find("max_iterations"), std::string::npos)
        << "error should list the declared parameters: " << message;
  }
}

// --- grid expansion ---------------------------------------------------------

scenario::ScenarioGrid MakeWideGrid() {
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f, 0.75f};
  grid.time_steps = {8, 16, 24};
  grid.attacks = {scenario::AttackSpec{"none", {}},
                  scenario::AttackSpec{"PGD", {}}};
  grid.epsilons = {0.0, 0.05};
  grid.precisions = {approx::Precision::kFp32, approx::Precision::kInt8};
  grid.levels = {0.0, 0.01, 0.1};
  grid.kernel_modes = {std::nullopt, kernels::KernelMode::kNaive};
  return grid;
}

TEST(ScenarioGrid, CellCountIsAxisProduct) {
  const scenario::ScenarioGrid grid = MakeWideGrid();
  EXPECT_EQ(grid.CellCount(), 2u * 3u * 2u * 2u * 1u * 2u * 3u * 2u);
  EXPECT_EQ(scenario::ExpandScenarioGrid(grid).size(), grid.CellCount());
}

TEST(ScenarioGrid, ExpansionOrderMatchesIndex) {
  const scenario::ScenarioGrid grid = MakeWideGrid();
  const auto cells = scenario::ExpandScenarioGrid(grid);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const scenario::ScenarioCell& c = cells[i];
    EXPECT_EQ(grid.Index(c.vth_index, c.time_index, c.attack_index,
                         c.eps_index, c.aqf_index, c.precision_index,
                         c.level_index, c.kernel_index),
              i);
    EXPECT_EQ(c.vth, grid.v_thresholds[c.vth_index]);
    EXPECT_EQ(c.time_steps, grid.time_steps[c.time_index]);
    EXPECT_EQ(c.level, grid.levels[c.level_index]);
  }
  EXPECT_THROW(grid.Index(2, 0, 0, 0, 0, 0, 0, 0), std::invalid_argument);
}

TEST(ScenarioGrid, ValidationCatchesMisuse) {
  scenario::ScenarioGrid grid;
  grid.attacks = {scenario::AttackSpec{"Sparse", {}}};
  // Event-only attack on a static grid.
  EXPECT_THROW(scenario::ValidateScenarioGrid(grid, /*for_events=*/false),
               std::invalid_argument);
  // Static-only attack on an event grid.
  grid.attacks = {scenario::AttackSpec{"PGD", {}}};
  EXPECT_THROW(scenario::ValidateScenarioGrid(grid, /*for_events=*/true),
               std::invalid_argument);
  // Unknown attack parameter fails up front.
  grid.attacks = {scenario::AttackSpec{"PGD", {{"stepz", 3.0}}}};
  EXPECT_THROW(scenario::ValidateScenarioGrid(grid, /*for_events=*/false),
               std::invalid_argument);
  // Empty axis.
  grid.attacks = {scenario::AttackSpec{"PGD", {}}};
  grid.levels.clear();
  EXPECT_THROW(scenario::ValidateScenarioGrid(grid, /*for_events=*/false),
               std::invalid_argument);
  // Multi-entry epsilon axis on an event grid.
  scenario::ScenarioGrid dvs;
  dvs.attacks = {scenario::AttackSpec{"Frame", {}}};
  dvs.epsilons = {0.0, 0.1};
  EXPECT_THROW(scenario::ValidateScenarioGrid(dvs, /*for_events=*/true),
               std::invalid_argument);
  // AQF on a static grid.
  scenario::ScenarioGrid with_aqf;
  with_aqf.aqfs = {core::AqfConfig{}};
  EXPECT_THROW(scenario::ValidateScenarioGrid(with_aqf, /*for_events=*/false),
               std::invalid_argument);
}

// --- engine -----------------------------------------------------------------

core::StaticWorkbench& SharedMiniBench() {
  static core::StaticWorkbench* bench = [] {
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
    return new core::StaticWorkbench(std::move(train), std::move(test), opts);
  }();
  return *bench;
}

scenario::ScenarioGrid MiniStaticGrid() {
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {8};
  grid.attacks = {scenario::AttackSpec{"PGD", {}}};
  grid.epsilons = {0.025, 0.05};  // two work units sharing one model
  grid.levels = {0.0, 0.01};
  return grid;
}

TEST(ScenarioEngine, ModelCacheHitSemantics) {
  scenario::StaticScenarioEngine engine(SharedMiniBench());
  const scenario::ScenarioGrid grid = MiniStaticGrid();

  const auto first = engine.Run(grid);
  // One structural cell: trained exactly once (phase 1), both work units
  // hit the cache.
  EXPECT_EQ(first.stats.trained_models, 1);
  EXPECT_EQ(first.stats.train_cache_hits, 2);
  EXPECT_EQ(first.stats.crafted_sets, 2);
  EXPECT_EQ(first.stats.craft_cache_hits, 0);

  const auto second = engine.Run(grid);
  // Re-running the same grid is pure evaluation: no training, no crafting.
  EXPECT_EQ(second.stats.trained_models, 0);
  EXPECT_EQ(second.stats.crafted_sets, 0);
  EXPECT_EQ(second.stats.craft_cache_hits, 2);
  ASSERT_EQ(first.robustness_pct.size(), second.robustness_pct.size());
  for (std::size_t i = 0; i < first.robustness_pct.size(); ++i)
    EXPECT_EQ(first.robustness_pct[i], second.robustness_pct[i])
        << "cache hit changed cell " << i;
  EXPECT_EQ(engine.store().model_counts().computed, 1);
}

TEST(ScenarioEngine, CacheOffRetrainsPerUnitWithIdenticalResults) {
  const core::StaticWorkbench& bench = SharedMiniBench();
  const scenario::ScenarioGrid grid = MiniStaticGrid();

  // Cache-free reference: every work unit trains, crafts and evaluates its
  // variant block for itself (units on the pool, grain 1).
  std::vector<core::VariantSpec> variants;
  for (double level : grid.levels)
    variants.push_back({approx::Precision::kFp32, level, std::nullopt});
  const long units = static_cast<long>(grid.epsilons.size());
  std::vector<float> without_cache(grid.epsilons.size() * variants.size());
  runtime::ParallelFor(
      0, units,
      [&](long unit) {
        const auto model =
            bench.Train(grid.v_thresholds[0], grid.time_steps[0]);
        const Tensor adversarial = bench.Craft(
            model, "PGD",
            static_cast<float>(grid.epsilons[static_cast<std::size_t>(unit)]));
        const std::vector<float> block =
            bench.EvaluateVariants(model, adversarial, variants);
        std::copy(block.begin(), block.end(),
                  without_cache.begin() +
                      unit * static_cast<long>(block.size()));
      },
      /*grain=*/1);

  scenario::StaticScenarioEngine cached(bench);
  const auto with_cache = cached.Run(grid);
  EXPECT_EQ(with_cache.stats.trained_models, 1);  // one per structural cell
  ASSERT_EQ(with_cache.robustness_pct.size(), without_cache.size());
  for (std::size_t i = 0; i < with_cache.robustness_pct.size(); ++i)
    EXPECT_EQ(with_cache.robustness_pct[i], without_cache[i])
        << "model cache changed cell " << i;
}

TEST(ScenarioEngine, PoolSizeOneVersusNIsBitIdentical) {
  const scenario::ScenarioGrid grid = MiniStaticGrid();
  std::vector<float> reference;
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    scenario::StaticScenarioEngine engine(SharedMiniBench());
    const auto outcome = engine.Run(grid);
    if (reference.empty()) {
      reference = outcome.robustness_pct;
    } else {
      ASSERT_EQ(reference.size(), outcome.robustness_pct.size());
      for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(reference[i], outcome.robustness_pct[i])
            << "pool size " << threads << " changed cell " << i;
    }
  }
}

TEST(ScenarioEngine, KernelModeAxisNeverChangesResults) {
  scenario::StaticScenarioEngine engine(SharedMiniBench());
  scenario::ScenarioGrid grid = MiniStaticGrid();
  grid.epsilons = {0.05};
  grid.kernel_modes = {std::nullopt, kernels::KernelMode::kNaive,
                       kernels::KernelMode::kSparse,
                       kernels::KernelMode::kSimd};
  const auto outcome = engine.Run(grid);
  for (std::size_t il = 0; il < grid.levels.size(); ++il) {
    const float reference = outcome.Robustness(0, 0, 0, 0, 0, 0, il, 0);
    for (std::size_t ik = 1; ik < grid.kernel_modes.size(); ++ik)
      EXPECT_EQ(outcome.Robustness(0, 0, 0, 0, 0, 0, il, ik), reference)
          << "kernel mode entry " << ik << " changed level " << il;
  }
}

TEST(ScenarioEngine, TrainingGateSkipsCells) {
  scenario::StaticScenarioEngine engine(SharedMiniBench());
  scenario::ScenarioGrid grid = MiniStaticGrid();
  grid.min_train_accuracy_pct = 101.0f;  // impossible
  const auto outcome = engine.Run(grid);
  EXPECT_EQ(outcome.stats.gated_units, 2);
  for (std::size_t i = 0; i < outcome.robustness_pct.size(); ++i) {
    EXPECT_FALSE(outcome.evaluated[i]);
    EXPECT_TRUE(std::isnan(outcome.robustness_pct[i]));
    EXPECT_GT(outcome.train_accuracy_pct[i], 0.0f);  // still recorded
  }
}

TEST(ScenarioEngine, RegistryOnlyPgdLadderRunsEndToEnd) {
  // A PGD parameter ladder — an attack variant the workbench enum cannot
  // express — straight through the registry: shorter ladders (fewer steps)
  // must run end-to-end and produce sane robustness values.
  scenario::StaticScenarioEngine engine(SharedMiniBench());
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {8};
  grid.attacks = {scenario::AttackSpec{"PGD", {{"steps", 1.0}}},
                  scenario::AttackSpec{"PGD", {{"steps", 3.0}}}};
  grid.epsilons = {0.05};
  grid.levels = {0.0};
  const auto outcome = engine.Run(grid);
  ASSERT_EQ(outcome.robustness_pct.size(), 2u);
  for (float r : outcome.robustness_pct) {
    EXPECT_GE(r, 0.0f);
    EXPECT_LE(r, 100.0f);
  }
  EXPECT_EQ(outcome.stats.crafted_sets, 2);  // distinct params, no sharing
}

TEST(SearchOnEngine, WholeGridModeMatchesDirectEvaluation) {
  core::StaticWorkbench& bench = SharedMiniBench();
  core::SearchSpace space;
  space.v_thresholds = {0.25f};
  space.time_steps = {8};
  space.precisions = {approx::Precision::kFp32};
  space.approx_levels = {0.0, 0.01};
  core::SearchConfig cfg;
  cfg.attack = core::AttackKind::kPgd;
  cfg.epsilon = 0.05f;
  cfg.quality_constraint_pct = 5.0f;
  cfg.return_first = false;

  scenario::StaticScenarioEngine engine(bench);
  const core::SearchOutcome outcome =
      core::PrecisionScalingSearch(bench, space, cfg, &engine);
  ASSERT_EQ(outcome.trace.size(), 2u);

  // The engine-backed grid must reproduce a hand-rolled evaluation of the
  // same cells exactly.
  const auto& model = engine.TrainCached(0.25f, 8);
  Tensor adversarial = bench.Craft(model, "PGD", 0.05f);
  const std::vector<core::VariantSpec> specs = {
      {approx::Precision::kFp32, 0.0, std::nullopt},
      {approx::Precision::kFp32, 0.01, std::nullopt}};
  const std::vector<float> expected =
      bench.EvaluateVariants(model, adversarial, specs);
  EXPECT_EQ(outcome.trace[0].robustness_pct, expected[0]);
  EXPECT_EQ(outcome.trace[1].robustness_pct, expected[1]);
  EXPECT_EQ(outcome.trace[0].level, 0.0);
  EXPECT_EQ(outcome.trace[1].level, 0.01);
}

// --- neuromorphic: registry-only attacks end-to-end -------------------------

core::DvsWorkbench& SharedMiniDvsBench() {
  static core::DvsWorkbench* bench = [] {
    data::DvsGestureOptions d;
    d.count = 120;
    d.seed = 9;
    data::EventDataset train = data::MakeSyntheticDvsGesture(d);
    d.count = 24;
    d.seed = 10;
    data::EventDataset test = data::MakeSyntheticDvsGesture(d);
    core::DvsWorkbench::Options opts;
    opts.train.epochs = 4;
    opts.time_bins = 10;
    opts.sparse.max_iterations = 2;
    return new core::DvsWorkbench(std::move(train), std::move(test), opts);
  }();
  return *bench;
}

TEST(DvsScenario, CornerAndDashRunThroughRegistryOnly) {
  // Corner and Dash have no AttackKind enum case — they exist only in the
  // registry — yet a declarative grid sweeps them end-to-end.
  core::DvsWorkbench& bench = SharedMiniDvsBench();
  scenario::DvsScenarioEngine engine(bench);
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {1.0f};
  grid.attacks = {scenario::AttackSpec{"none", {}},
                  scenario::AttackSpec{"Corner", {{"patch", 4.0}}},
                  scenario::AttackSpec{"Dash", {}}};
  grid.levels = {0.0};
  const auto outcome = engine.Run(grid);
  ASSERT_EQ(outcome.robustness_pct.size(), 3u);
  for (float r : outcome.robustness_pct) {
    EXPECT_GE(r, 0.0f);
    EXPECT_LE(r, 100.0f);
  }

  // The registry path injects events (string-keyed Craft, const model).
  const auto& model = engine.TrainCached(1.0f);
  const data::EventDataset corner = bench.Craft(model, "Corner");
  long clean_events = 0;
  long corner_events = 0;
  for (const auto& stream : bench.test_set().streams)
    clean_events += static_cast<long>(stream.events.size());
  for (const auto& stream : corner.streams)
    corner_events += static_cast<long>(stream.events.size());
  EXPECT_GT(corner_events, clean_events);
}

}  // namespace
}  // namespace axsnn

// Integration tests for the paper's contribution: the workbenches,
// Algorithm 1 (precision-scaling search) and the designer facade.
//
// These train tiny models end-to-end, so they are the slowest tests in the
// suite; they use reduced datasets and epochs.
#include <gtest/gtest.h>

#include "core/designer.hpp"
#include "core/search.hpp"
#include "core/workbench.hpp"
#include "scenario/engine.hpp"

namespace axsnn::core {
namespace {

StaticWorkbench::Options SmallStaticOptions() {
  StaticWorkbench::Options opts;
  opts.net.lif.v_threshold = 0.25f;
  opts.train.epochs = 3;
  opts.train.batch_size = 32;
  opts.train_time_steps_cap = 8;
  opts.attack_time_steps_cap = 6;
  opts.attack_steps = 4;
  return opts;
}

StaticWorkbench& SharedStaticBench() {
  static StaticWorkbench* bench = [] {
    data::SyntheticMnistOptions d;
    d.count = 512;
    d.seed = 1;
    data::StaticDataset train = data::MakeSyntheticMnist(d);
    d.count = 128;
    d.seed = 2;
    data::StaticDataset test = data::MakeSyntheticMnist(d);
    return new StaticWorkbench(std::move(train), std::move(test),
                               SmallStaticOptions());
  }();
  return *bench;
}

TEST(AttackName, AllKindsNamed) {
  EXPECT_EQ(AttackName(AttackKind::kNone), "none");
  EXPECT_EQ(AttackName(AttackKind::kPgd), "PGD");
  EXPECT_EQ(AttackName(AttackKind::kBim), "BIM");
  EXPECT_EQ(AttackName(AttackKind::kSparse), "Sparse");
  EXPECT_EQ(AttackName(AttackKind::kFrame), "Frame");
}

TEST(StaticWorkbench, TrainProducesWorkingModel) {
  StaticWorkbench& bench = SharedStaticBench();
  auto model = bench.Train(0.25f, 16);
  EXPECT_GT(model.train_accuracy_pct, 60.0f);
  EXPECT_EQ(model.calibration.lif.size(), 4u);
  EXPECT_FLOAT_EQ(model.v_threshold, 0.25f);
  const float clean = bench.AccuracyPct(model.net, bench.test_set().images,
                                        model.time_steps);
  EXPECT_GT(clean, 60.0f);
}

TEST(StaticWorkbench, CraftNoneReturnsCleanImages) {
  StaticWorkbench& bench = SharedStaticBench();
  auto model = bench.Train(0.25f, 8);
  Tensor images = bench.Craft(model, AttackKind::kNone, 1.0f);
  EXPECT_TRUE(images.AllClose(bench.test_set().images, 0.0f));
}

TEST(StaticWorkbench, AxsnnLosesAccuracyAtHighLevel) {
  StaticWorkbench& bench = SharedStaticBench();
  auto model = bench.Train(0.25f, 16);
  snn::Network ax_mild = bench.MakeAx(model, 0.001, approx::Precision::kFp32);
  snn::Network ax_heavy = bench.MakeAx(model, 1.0, approx::Precision::kFp32);
  const float clean = bench.AccuracyPct(model.net, bench.test_set().images, 16);
  const float mild = bench.AccuracyPct(ax_mild, bench.test_set().images, 16);
  const float heavy = bench.AccuracyPct(ax_heavy, bench.test_set().images, 16);
  EXPECT_GT(mild, clean - 10.0f);
  EXPECT_LT(heavy, 30.0f);  // level 1.0 ruins the classifier
}

TEST(StaticWorkbench, RejectsNeuromorphicAttacks) {
  StaticWorkbench& bench = SharedStaticBench();
  auto model = bench.Train(0.25f, 8);
  EXPECT_THROW(bench.Craft(model, AttackKind::kSparse, 1.0f),
               std::invalid_argument);
}

TEST(PrecisionScalingSearch, FindsConfigMeetingQ) {
  StaticWorkbench& bench = SharedStaticBench();
  SearchSpace space;
  space.v_thresholds = {0.25f};
  space.time_steps = {16};
  space.precisions = {approx::Precision::kInt8, approx::Precision::kFp32};
  space.approx_levels = {0.001, 0.01};
  SearchConfig cfg;
  cfg.attack = AttackKind::kPgd;
  cfg.epsilon = 0.01f;
  cfg.quality_constraint_pct = 50.0f;
  SearchOutcome outcome = PrecisionScalingSearch(bench, space, cfg);
  EXPECT_TRUE(outcome.found);
  EXPECT_GE(outcome.best.robustness_pct, 50.0f);
  EXPECT_FALSE(outcome.trace.empty());
  // return_first stops at the winning candidate.
  EXPECT_EQ(outcome.trace.back().robustness_pct, outcome.best.robustness_pct);
}

TEST(PrecisionScalingSearch, ImpossibleQReturnsNotFound) {
  StaticWorkbench& bench = SharedStaticBench();
  SearchSpace space;
  space.v_thresholds = {0.25f};
  space.time_steps = {8};
  space.precisions = {approx::Precision::kFp32};
  space.approx_levels = {1.0};  // destroys the network
  SearchConfig cfg;
  cfg.attack = AttackKind::kPgd;
  cfg.epsilon = 0.05f;
  // Q low enough that training passes the quality gate, but level 1.0 prunes
  // the network to chance so no candidate can reach it.
  cfg.quality_constraint_pct = 60.0f;
  cfg.return_first = false;
  SearchOutcome outcome = PrecisionScalingSearch(bench, space, cfg);
  EXPECT_FALSE(outcome.found);
  EXPECT_FALSE(outcome.trace.empty());  // grid still evaluated
  EXPECT_LT(outcome.best.robustness_pct, 60.0f);
}

TEST(PrecisionScalingSearch, BestEffortFallbackKeepsMaxRobustness) {
  // No variant can meet Q, so the search must fall back to the strongest
  // candidate in the trace — not the last one evaluated (regression test
  // for the pre-`found` overwrite in UpdateBest). The level axis is ordered
  // so the strongest candidate sits in the *middle* of the grid: level 1.0
  // prunes the network to chance while 0.01 barely touches it.
  StaticWorkbench& bench = SharedStaticBench();
  SearchSpace space;
  space.v_thresholds = {0.25f};
  space.time_steps = {8};
  space.precisions = {approx::Precision::kFp32};
  space.approx_levels = {1.0, 0.01, 1.0};
  SearchConfig cfg;
  cfg.attack = AttackKind::kPgd;
  cfg.epsilon = 0.05f;
  // The training gate passes (~63% train accuracy) but no candidate comes
  // near Q: the mild middle variant reaches ~34% robustness under PGD and
  // the level-1.0 ones ~10%.
  cfg.quality_constraint_pct = 60.0f;
  cfg.return_first = false;
  SearchOutcome outcome = PrecisionScalingSearch(bench, space, cfg);
  EXPECT_FALSE(outcome.found);
  ASSERT_EQ(outcome.trace.size(), 3u);
  float max_robustness = outcome.trace.front().robustness_pct;
  for (const CandidateResult& c : outcome.trace)
    max_robustness = std::max(max_robustness, c.robustness_pct);
  // The mild middle candidate must beat the destroyed level-1.0 ones, so
  // the trace's maximum is not at the back — the buggy tracker reported
  // trace.back() here.
  EXPECT_EQ(outcome.trace[1].robustness_pct, max_robustness);
  EXPECT_GT(max_robustness, outcome.trace.back().robustness_pct);
  EXPECT_EQ(outcome.best.robustness_pct, max_robustness);
  EXPECT_EQ(outcome.best.level, 0.01);
  EXPECT_LT(outcome.best.robustness_pct, cfg.quality_constraint_pct);
}

TEST(PrecisionScalingSearch, QualityGateSkipsBadCells) {
  // With Q above anything a 1-epoch model reaches, every structural cell is
  // rejected at the training gate and the trace stays empty.
  data::SyntheticMnistOptions d;
  d.count = 128;
  d.seed = 3;
  data::StaticDataset train = data::MakeSyntheticMnist(d);
  d.seed = 4;
  data::StaticDataset test = data::MakeSyntheticMnist(d);
  StaticWorkbench::Options opts = SmallStaticOptions();
  opts.train.epochs = 1;
  StaticWorkbench bench(std::move(train), std::move(test), opts);
  SearchSpace space;
  space.v_thresholds = {2.25f};  // barely trainable at 1 epoch
  space.time_steps = {8};
  space.precisions = {approx::Precision::kFp32};
  space.approx_levels = {0.01};
  SearchConfig cfg;
  cfg.quality_constraint_pct = 99.5f;
  SearchOutcome outcome = PrecisionScalingSearch(bench, space, cfg);
  EXPECT_FALSE(outcome.found);
  EXPECT_TRUE(outcome.trace.empty());
}

TEST(PrecisionScalingSearch, ValidatesSpaceAndAttack) {
  StaticWorkbench& bench = SharedStaticBench();
  SearchSpace empty;
  SearchConfig cfg;
  EXPECT_THROW(PrecisionScalingSearch(bench, empty, cfg),
               std::invalid_argument);
  SearchSpace space;
  space.v_thresholds = {0.25f};
  space.time_steps = {8};
  space.precisions = {approx::Precision::kFp32};
  space.approx_levels = {0.01};
  cfg.attack = AttackKind::kSparse;
  EXPECT_THROW(PrecisionScalingSearch(bench, space, cfg),
               std::invalid_argument);
}

TEST(Designer, MaterializesWinningDesign) {
  StaticWorkbench& bench = SharedStaticBench();
  SearchSpace space;
  space.v_thresholds = {0.25f};
  space.time_steps = {16};
  space.precisions = {approx::Precision::kInt8};
  space.approx_levels = {0.001};
  SearchConfig cfg;
  cfg.attack = AttackKind::kNone;
  cfg.quality_constraint_pct = 55.0f;
  StaticDesign design = DesignSecureAxsnn(bench, space, cfg);
  EXPECT_TRUE(design.outcome.found);
  const float acc = bench.AccuracyPct(design.axsnn, bench.test_set().images,
                                      design.outcome.best.time_steps);
  EXPECT_GT(acc, 50.0f);
}

TEST(Designer, ThrowsWhenNothingMeetsQ) {
  StaticWorkbench& bench = SharedStaticBench();
  SearchSpace space;
  space.v_thresholds = {0.25f};
  space.time_steps = {8};
  space.precisions = {approx::Precision::kFp32};
  space.approx_levels = {1.0};
  SearchConfig cfg;
  cfg.attack = AttackKind::kNone;
  cfg.quality_constraint_pct = 99.9f;
  EXPECT_THROW(DesignSecureAxsnn(bench, space, cfg), std::runtime_error);
}

// --- Neuromorphic workbench integration ------------------------------------

DvsWorkbench& SharedDvsBench() {
  static DvsWorkbench* bench = [] {
    data::DvsGestureOptions d;
    d.count = 220;
    d.seed = 1;
    data::EventDataset train = data::MakeSyntheticDvsGesture(d);
    d.count = 44;
    d.seed = 2;
    data::EventDataset test = data::MakeSyntheticDvsGesture(d);
    DvsWorkbench::Options opts;
    opts.train.epochs = 12;
    opts.time_bins = 16;
    opts.sparse.max_iterations = 4;
    return new DvsWorkbench(std::move(train), std::move(test), opts);
  }();
  return *bench;
}

/// One DVS engine shared across tests: its store trains the accurate model
/// once (training is the slow part) and serves it to every test, the
/// Algorithm-1 search included.
scenario::DvsScenarioEngine& SharedDvsEngine() {
  static scenario::DvsScenarioEngine engine(SharedDvsBench());
  return engine;
}

const DvsWorkbench::TrainedModel& SharedDvsModel() {
  return SharedDvsEngine().TrainCached(1.0f);
}

TEST(DvsWorkbench, TrainEvaluateRoundTrip) {
  DvsWorkbench& bench = SharedDvsBench();
  const auto& model = SharedDvsModel();
  EXPECT_GT(model.train_accuracy_pct, 55.0f);
  snn::Network net = model.net.Clone();
  const float clean = bench.AccuracyPct(net, bench.test_set());
  EXPECT_GT(clean, 55.0f);
}

TEST(DvsWorkbench, FrameAttackThenAqfRecovers) {
  DvsWorkbench& bench = SharedDvsBench();
  const auto& model = SharedDvsModel();
  snn::Network net = model.net.Clone();
  const float clean = bench.AccuracyPct(net, bench.test_set());
  data::EventDataset attacked = bench.Craft(model, AttackKind::kFrame);
  const float under_attack = bench.AccuracyPct(net, attacked);
  AqfConfig aqf;
  const float defended = bench.AccuracyPct(net, attacked, aqf);
  EXPECT_LT(under_attack, clean - 10.0f);
  EXPECT_GT(defended, under_attack + 10.0f);
}

TEST(DvsWorkbench, RejectsGradientAttacks) {
  DvsWorkbench& bench = SharedDvsBench();
  const auto& model = SharedDvsModel();
  EXPECT_THROW(bench.Craft(model, AttackKind::kPgd), std::invalid_argument);
}

TEST(NeuromorphicSearch, RunsFrameWithAqf) {
  DvsWorkbench& bench = SharedDvsBench();
  SearchSpace space;
  space.v_thresholds = {1.0f};
  space.precisions = {approx::Precision::kFp32};
  space.approx_levels = {0.01};
  SearchConfig cfg;
  cfg.attack = AttackKind::kFrame;
  cfg.neuromorphic = true;
  cfg.quality_constraint_pct = 30.0f;
  cfg.return_first = false;
  SearchOutcome outcome =
      PrecisionScalingSearch(bench, space, cfg, &SharedDvsEngine());
  EXPECT_FALSE(outcome.trace.empty());
  EXPECT_GT(outcome.best.robustness_pct, 30.0f);
}

}  // namespace
}  // namespace axsnn::core

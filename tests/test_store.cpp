// Distributed scenario execution: the hardened tensor/serialize error
// surface, --shard/--resume argv parsing, the checksummed artifact store
// (round trip, kind mismatch, corruption-as-miss), and the engine-level
// contracts — warm reruns and resumed runs recompute nothing, shard
// fan-out + merge is bit-identical to a single-process run, corrupted
// entries fall back to recompute, gated units replay from the journal,
// and two different workbenches can never serve each other artifacts.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/workbench.hpp"
#include "scenario/engine.hpp"
#include "scenario/shard.hpp"
#include "scenario/store.hpp"
#include "tensor/serialize.hpp"

namespace axsnn {
namespace {

/// Unique per-test store directory, removed on scope exit.
class ScopedDir {
 public:
  explicit ScopedDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("axsnn_test_store_" + tag))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- serialize hardening ----------------------------------------------------

TEST(SerializeHardening, TruncatedStreamReportsByteOffset) {
  std::ostringstream os;
  WriteTensor(os, Tensor({2, 3}, {1, 2, 3, 4, 5, 6}));
  const std::string bytes = os.str();
  std::istringstream cut(bytes.substr(0, bytes.size() - 5));
  try {
    ReadTensor(cut);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated tensor stream"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }
}

TEST(SerializeHardening, BadMagicReportsMalformedAtOffset) {
  std::istringstream garbage("not a tensor stream at all, honest");
  try {
    ReadTensor(garbage);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed tensor stream"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }
}

TEST(SerializeHardening, AbsurdRankRejectedBeforeAllocation) {
  // Hand-craft magic + version + rank 4096: must reject on the rank field,
  // not attempt to read 4096 dimensions.
  std::ostringstream os;
  const auto put_u32 = [&os](std::uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(0x41585342u);  // "AXSB"
  put_u32(kSerializeVersion);
  put_u32(4096u);
  std::istringstream is(os.str());
  EXPECT_THROW(ReadTensor(is), std::runtime_error);
}

TEST(SerializeHardening, VersionMismatchRejected) {
  std::ostringstream os;
  WriteTensor(os, Tensor({1}, {42.0f}));
  std::string bytes = os.str();
  bytes[4] = static_cast<char>(kSerializeVersion + 1);  // bump version field
  std::istringstream is(bytes);
  try {
    ReadTensor(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

// --- shard spec / argv parsing ----------------------------------------------

TEST(ShardSpec, ParsesValidSpecsAndOwnership) {
  const auto spec = scenario::ParseShardSpec("1/3");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->index, 1);
  EXPECT_EQ(spec->count, 3);
  EXPECT_FALSE(spec->Owns(0));
  EXPECT_TRUE(spec->Owns(1));
  EXPECT_FALSE(spec->Owns(2));
  EXPECT_TRUE(spec->Owns(4));
  const auto sole = scenario::ParseShardSpec("0/1");
  ASSERT_TRUE(sole.has_value());
  EXPECT_TRUE(sole->Owns(17));
}

TEST(ShardSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "3", "2/2", "-1/2", "1/0", "0/0", "2/4abc",
                          "abc/4", "1/2/3", "1/", "/2", "0x1/2", " 1/2"}) {
    EXPECT_FALSE(scenario::ParseShardSpec(bad).has_value())
        << "accepted \"" << bad << "\"";
  }
}

TEST(ShardRunnerArgs, ParsesFullFlagSet) {
  const char* argv[] = {"bench",    "--shard",     "1/4",
                        "--cache-dir", "/tmp/store", "--resume",
                        "--stats-out", "stats.json"};
  const auto opts = scenario::ParseShardRunnerArgs(
      static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  ASSERT_TRUE(opts.shard.has_value());
  EXPECT_EQ(opts.shard->index, 1);
  EXPECT_EQ(opts.shard->count, 4);
  EXPECT_EQ(opts.cache_dir, "/tmp/store");
  EXPECT_TRUE(opts.resume);
  EXPECT_EQ(opts.stats_out, "stats.json");
  const scenario::RunOptions run = opts.run_options();
  EXPECT_TRUE(run.shard.has_value());
  EXPECT_TRUE(run.resume);
}

TEST(ShardRunnerArgs, RejectsBadArgv) {
  const auto parse = [](std::vector<const char*> args, bool allow_shard = true,
                        bool allow_resume = true) {
    args.insert(args.begin(), "bench");
    return scenario::ParseShardRunnerArgs(static_cast<int>(args.size()),
                                          const_cast<char**>(args.data()),
                                          allow_shard, allow_resume);
  };
  EXPECT_THROW(parse({"--shard", "2/2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--shard"}), std::invalid_argument);
  EXPECT_THROW(parse({"--cache-dir"}), std::invalid_argument);
  EXPECT_THROW(parse({"--frobnicate"}), std::invalid_argument);
  // --resume without --cache-dir has no journal to replay.
  EXPECT_THROW(parse({"--resume"}), std::invalid_argument);
  // Drivers with non-partitionable reports opt out of shard/resume.
  EXPECT_THROW(parse({"--shard", "0/2"}, /*allow_shard=*/false),
               std::invalid_argument);
  EXPECT_THROW(parse({"--cache-dir", "d", "--resume"}, /*allow_shard=*/true,
                     /*allow_resume=*/false),
               std::invalid_argument);
}

// --- generic artifact store -------------------------------------------------

TEST(ArtifactStore, RoundTripAndCounters) {
  ScopedDir dir("roundtrip");
  scenario::ArtifactStore store(dir.path());
  const Tensor payload({2, 2}, {1, 2, 3, 4});
  store.Put("some_key", scenario::kArtifactCraftTensor,
            [&](std::ostream& os) { WriteTensor(os, payload); });
  EXPECT_EQ(store.writes(), 1);

  Tensor back;
  EXPECT_TRUE(store.Get("some_key", scenario::kArtifactCraftTensor,
                        [&](std::istream& is) { back = ReadTensor(is); }));
  ASSERT_EQ(back.numel(), 4);
  for (long i = 0; i < 4; ++i) EXPECT_EQ(back[i], payload[i]);
  EXPECT_EQ(store.hits(), 1);

  EXPECT_FALSE(store.Get("absent_key", scenario::kArtifactCraftTensor,
                         [](std::istream&) {}));
  EXPECT_EQ(store.misses(), 1);
  EXPECT_EQ(store.corrupt_entries(), 0);
}

TEST(ArtifactStore, KindMismatchReadsAsCorruptMiss) {
  ScopedDir dir("kind");
  scenario::ArtifactStore store(dir.path());
  store.Put("key", scenario::kArtifactCraftTensor,
            [](std::ostream& os) { WriteTensor(os, Tensor({1}, {7.0f})); });
  EXPECT_FALSE(store.Get("key", scenario::kArtifactStaticModel,
                         [](std::istream&) {}));
  EXPECT_EQ(store.corrupt_entries(), 1);
}

TEST(ArtifactStore, TruncatedAndGarbageEntriesReadAsCorruptMiss) {
  ScopedDir dir("corrupt");
  scenario::ArtifactStore store(dir.path());
  store.Put("key", scenario::kArtifactCraftTensor,
            [](std::ostream& os) { WriteTensor(os, Tensor({1}, {7.0f})); });

  // Truncate the committed file.
  const std::string path = store.PathFor("key");
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_FALSE(store.Get("key", scenario::kArtifactCraftTensor,
                         [](std::istream&) {}));
  EXPECT_EQ(store.corrupt_entries(), 1);

  // Flipped payload bytes fail the checksum.
  store.Put("key2", scenario::kArtifactCraftTensor,
            [](std::ostream& os) { WriteTensor(os, Tensor({1}, {7.0f})); });
  {
    std::fstream f(store.PathFor("key2"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    f.put('\x5a');
  }
  EXPECT_FALSE(store.Get("key2", scenario::kArtifactCraftTensor,
                         [](std::istream&) {}));
  EXPECT_EQ(store.corrupt_entries(), 2);

  // A header-only entry claiming 2^40 - 1 payload bytes: the claim is
  // checked against the file before anything is allocated.
  {
    std::ofstream f(store.PathFor("key3"), std::ios::binary | std::ios::trunc);
    const auto put = [&f](auto v) {
      f.write(reinterpret_cast<const char*>(&v), sizeof v);
    };
    put(std::uint32_t{0x41585354});  // envelope magic "AXST"
    put(std::uint32_t{1});           // envelope version
    put(scenario::kArtifactCraftTensor);
    put(std::uint32_t{0});  // reserved
    put(std::uint64_t{(1ull << 40) - 1});
    put(std::uint64_t{0});  // checksum
  }
  EXPECT_FALSE(store.Get("key3", scenario::kArtifactCraftTensor,
                         [](std::istream&) {}));
  EXPECT_EQ(store.corrupt_entries(), 3);
}

// --- engine + store contracts -----------------------------------------------

core::StaticWorkbench& StoreMiniBench() {
  static core::StaticWorkbench* bench = [] {
    core::StaticWorkbench::Options opts;
    opts.net.lif.v_threshold = 0.25f;
    opts.train.epochs = 1;
    opts.train.batch_size = 32;
    opts.train_time_steps_cap = 4;
    opts.attack_time_steps_cap = 4;
    opts.attack_steps = 2;
    opts.eval_batch = 64;
    data::SyntheticMnistOptions d;
    d.count = 96;
    d.seed = 61;
    data::StaticDataset train = data::MakeSyntheticMnist(d);
    d.count = 24;
    d.seed = 62;
    data::StaticDataset test = data::MakeSyntheticMnist(d);
    return new core::StaticWorkbench(std::move(train), std::move(test), opts);
  }();
  return *bench;
}

scenario::ScenarioGrid StoreMiniGrid() {
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {6};
  grid.attacks = {scenario::AttackSpec{"PGD", {}}};
  grid.epsilons = {0.025, 0.05, 0.075};  // three work units, one model
  grid.levels = {0.0, 0.01};
  return grid;
}

void ExpectSameCells(const scenario::ScenarioOutcome& a,
                     const scenario::ScenarioOutcome& b, const char* label) {
  ASSERT_EQ(a.robustness_pct.size(), b.robustness_pct.size());
  for (std::size_t i = 0; i < a.robustness_pct.size(); ++i) {
    EXPECT_EQ(a.robustness_pct[i], b.robustness_pct[i])
        << label << " changed cell " << i;
    EXPECT_EQ(a.evaluated[i], b.evaluated[i]) << label << " cell " << i;
    EXPECT_EQ(a.train_accuracy_pct[i], b.train_accuracy_pct[i])
        << label << " cell " << i;
  }
}

TEST(ScenarioStore, WarmRerunComputesNothingAndMatches) {
  ScopedDir dir("warm");
  const scenario::ScenarioGrid grid = StoreMiniGrid();

  scenario::StaticScenarioStore store1(dir.path(), StoreMiniBench());
  scenario::StaticScenarioEngine cold(StoreMiniBench());
  cold.set_store(&store1);
  const auto first = cold.Run(grid);
  EXPECT_EQ(first.stats.trained_models, 1);
  EXPECT_EQ(first.stats.crafted_sets, 3);
  EXPECT_EQ(first.stats.total_trained_models, 1);
  EXPECT_EQ(first.stats.total_crafted_sets, 3);

  // Fresh engine + fresh store object = a restarted process: everything
  // must come off disk, nothing recomputes, results are bit-identical.
  scenario::StaticScenarioStore store2(dir.path(), StoreMiniBench());
  scenario::StaticScenarioEngine warm(StoreMiniBench());
  warm.set_store(&store2);
  const auto second = warm.Run(grid);
  EXPECT_EQ(second.stats.trained_models, 0);
  EXPECT_EQ(second.stats.crafted_sets, 0);
  EXPECT_EQ(second.stats.store_model_hits, 1);
  EXPECT_EQ(second.stats.store_craft_hits, 3);
  EXPECT_EQ(second.stats.total_trained_models, 1);  // journal totals persist
  EXPECT_EQ(second.stats.total_crafted_sets, 3);
  ExpectSameCells(first, second, "warm store rerun");
}

TEST(ScenarioStore, ShardFanOutPlusMergeIsBitIdentical) {
  scenario::StaticScenarioEngine reference_engine(StoreMiniBench());
  const scenario::ScenarioGrid grid = StoreMiniGrid();
  const auto reference = reference_engine.Run(grid);

  for (long shards : {2L, 3L}) {
    ScopedDir dir("shards" + std::to_string(shards));
    // Each shard is a fresh process image; they share the store directory.
    for (long i = 0; i < shards; ++i) {
      scenario::StaticScenarioStore store(dir.path(), StoreMiniBench());
      scenario::StaticScenarioEngine engine(StoreMiniBench());
      engine.set_store(&store);
      scenario::RunOptions options;
      options.shard = scenario::ShardSpec{i, shards};
      const auto partial = engine.Run(grid, options);
      EXPECT_LE(partial.stats.trained_models, 1);
    }
    // Merge pass: resume with no shard replays every journaled unit.
    scenario::StaticScenarioStore store(dir.path(), StoreMiniBench());
    scenario::StaticScenarioEngine merge_engine(StoreMiniBench());
    merge_engine.set_store(&store);
    scenario::RunOptions options;
    options.resume = true;
    const auto merged = merge_engine.Run(grid, options);
    EXPECT_EQ(merged.stats.replayed_units, 3);
    EXPECT_EQ(merged.stats.trained_models, 0);
    EXPECT_EQ(merged.stats.crafted_sets, 0);
    // Sequential shards: journal totals equal the single-process counters.
    EXPECT_EQ(merged.stats.total_trained_models, reference.stats.trained_models)
        << shards << " shards";
    EXPECT_EQ(merged.stats.total_crafted_sets, reference.stats.crafted_sets)
        << shards << " shards";
    ExpectSameCells(reference, merged,
                    (std::to_string(shards) + "-shard merge").c_str());
  }
}

TEST(ScenarioStore, KilledRunResumesWithoutRecomputingFinishedUnits) {
  ScopedDir dir("resume");
  const scenario::ScenarioGrid grid = StoreMiniGrid();

  // "Killed" run: only shard 0/3 finished (unit 0 journaled), the rest of
  // the grid never ran.
  {
    scenario::StaticScenarioStore store(dir.path(), StoreMiniBench());
    scenario::StaticScenarioEngine engine(StoreMiniBench());
    engine.set_store(&store);
    scenario::RunOptions options;
    options.shard = scenario::ShardSpec{0, 3};
    (void)engine.Run(grid, options);
  }

  // Restarted run: replays the finished unit, computes the remaining two,
  // and matches a never-interrupted run exactly.
  scenario::StaticScenarioStore store(dir.path(), StoreMiniBench());
  scenario::StaticScenarioEngine engine(StoreMiniBench());
  engine.set_store(&store);
  scenario::RunOptions options;
  options.resume = true;
  const auto resumed = engine.Run(grid, options);
  EXPECT_EQ(resumed.stats.replayed_units, 1);
  EXPECT_EQ(resumed.stats.trained_models, 0);  // model persisted before kill
  EXPECT_EQ(resumed.stats.crafted_sets, 2);
  EXPECT_EQ(resumed.stats.total_trained_models, 1);
  EXPECT_EQ(resumed.stats.total_crafted_sets, 3);

  scenario::StaticScenarioEngine uninterrupted(StoreMiniBench());
  const auto reference = uninterrupted.Run(grid);
  ExpectSameCells(reference, resumed, "kill/resume");
}

TEST(ScenarioStore, CorruptedModelEntryRecomputesToSameResult) {
  ScopedDir dir("heal");
  const scenario::ScenarioGrid grid = StoreMiniGrid();

  scenario::StaticScenarioStore store1(dir.path(), StoreMiniBench());
  scenario::StaticScenarioEngine cold(StoreMiniBench());
  cold.set_store(&store1);
  const auto first = cold.Run(grid);

  // Smash the persisted model.
  const std::string model_path =
      store1.artifacts().PathFor(store1.ModelKey(0.25f, 6));
  ASSERT_TRUE(std::filesystem::exists(model_path));
  { std::ofstream(model_path, std::ios::trunc) << "garbage"; }

  scenario::StaticScenarioStore store2(dir.path(), StoreMiniBench());
  scenario::StaticScenarioEngine warm(StoreMiniBench());
  warm.set_store(&store2);
  const auto healed = warm.Run(grid);
  EXPECT_EQ(healed.stats.trained_models, 1);  // recomputed, not crashed
  EXPECT_EQ(store2.artifacts().corrupt_entries(), 1);
  EXPECT_EQ(healed.stats.crafted_sets, 0);  // crafts were intact
  ExpectSameCells(first, healed, "corrupt-entry recompute");

  // The recompute healed the store: a third run is pure reuse again.
  scenario::StaticScenarioStore store3(dir.path(), StoreMiniBench());
  scenario::StaticScenarioEngine again(StoreMiniBench());
  again.set_store(&store3);
  EXPECT_EQ(again.Run(grid).stats.trained_models, 0);
}

TEST(ScenarioStore, GatedUnitsJournalAndReplay) {
  ScopedDir dir("gated");
  scenario::ScenarioGrid grid = StoreMiniGrid();
  grid.min_train_accuracy_pct = 101.0f;  // gate everything

  scenario::StaticScenarioStore store1(dir.path(), StoreMiniBench());
  scenario::StaticScenarioEngine cold(StoreMiniBench());
  cold.set_store(&store1);
  const auto first = cold.Run(grid);
  EXPECT_EQ(first.stats.gated_units, 3);

  scenario::StaticScenarioStore store2(dir.path(), StoreMiniBench());
  scenario::StaticScenarioEngine resume_engine(StoreMiniBench());
  resume_engine.set_store(&store2);
  scenario::RunOptions options;
  options.resume = true;
  const auto replayed = resume_engine.Run(grid, options);
  EXPECT_EQ(replayed.stats.replayed_units, 3);
  EXPECT_EQ(replayed.stats.trained_models, 0);
  for (std::size_t i = 0; i < replayed.robustness_pct.size(); ++i) {
    EXPECT_FALSE(replayed.evaluated[i]);
    EXPECT_TRUE(std::isnan(replayed.robustness_pct[i]));
    EXPECT_GT(replayed.train_accuracy_pct[i], 0.0f);  // replayed from journal
  }
}

TEST(ScenarioStore, DifferentWorkbenchesNeverShareArtifacts) {
  ScopedDir dir("fingerprint");
  scenario::StaticScenarioStore store_a(dir.path(), StoreMiniBench());
  scenario::StaticScenarioEngine engine(StoreMiniBench());
  engine.set_store(&store_a);
  (void)engine.Run(StoreMiniGrid());

  // Same directory, different training budget: fingerprints differ, so the
  // persisted model is invisible — no stale-artifact reuse.
  core::StaticWorkbench::Options opts = StoreMiniBench().options();
  opts.train.epochs = 2;
  core::StaticWorkbench other(StoreMiniBench().train_set(),
                              StoreMiniBench().test_set(), opts);
  scenario::StaticScenarioStore store_b(dir.path(), other);
  EXPECT_NE(store_a.fingerprint(), store_b.fingerprint());
  EXPECT_NE(store_a.ModelKey(0.25f, 6), store_b.ModelKey(0.25f, 6));
  core::StaticWorkbench::TrainedModel out;
  EXPECT_FALSE(store_b.LoadModel(0.25f, 6, out));
}

TEST(ScenarioStore, ResumeWithoutStoreThrows) {
  scenario::StaticScenarioEngine engine(StoreMiniBench());
  scenario::RunOptions options;
  options.resume = true;
  EXPECT_THROW(engine.Run(StoreMiniGrid(), options), std::invalid_argument);
}

// --- DVS store --------------------------------------------------------------

core::DvsWorkbench& StoreMiniDvsBench() {
  static core::DvsWorkbench* bench = [] {
    data::DvsGestureOptions d;
    d.count = 60;
    d.seed = 19;
    data::EventDataset train = data::MakeSyntheticDvsGesture(d);
    d.count = 12;
    d.seed = 20;
    data::EventDataset test = data::MakeSyntheticDvsGesture(d);
    core::DvsWorkbench::Options opts;
    opts.train.epochs = 2;
    opts.time_bins = 8;
    opts.sparse.max_iterations = 2;
    return new core::DvsWorkbench(std::move(train), std::move(test), opts);
  }();
  return *bench;
}

TEST(DvsScenarioStore, WarmRerunComputesNothingAndMatches) {
  ScopedDir dir("dvs");
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {1.0f};
  grid.attacks = {scenario::AttackSpec{"none", {}},
                  scenario::AttackSpec{"Sparse", {}}};
  grid.levels = {0.0, 0.1};

  scenario::DvsScenarioStore store1(dir.path(), StoreMiniDvsBench());
  scenario::DvsScenarioEngine cold(StoreMiniDvsBench());
  cold.set_store(&store1);
  const auto first = cold.Run(grid);
  EXPECT_EQ(first.stats.trained_models, 1);
  EXPECT_EQ(first.stats.crafted_sets, 2);  // "none" persists like any craft

  scenario::DvsScenarioStore store2(dir.path(), StoreMiniDvsBench());
  scenario::DvsScenarioEngine warm(StoreMiniDvsBench());
  warm.set_store(&store2);
  const auto second = warm.Run(grid);
  EXPECT_EQ(second.stats.trained_models, 0);
  EXPECT_EQ(second.stats.crafted_sets, 0);
  EXPECT_EQ(second.stats.store_model_hits, 1);
  EXPECT_EQ(second.stats.store_craft_hits, 2);
  ExpectSameCells(first, second, "DVS warm store rerun");
}

TEST(DvsScenarioStore, TwoShardMergeIsBitIdentical) {
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {1.0f};
  grid.attacks = {scenario::AttackSpec{"none", {}},
                  scenario::AttackSpec{"Sparse", {}}};
  grid.levels = {0.0, 0.1};

  scenario::DvsScenarioEngine reference_engine(StoreMiniDvsBench());
  const auto reference = reference_engine.Run(grid);

  ScopedDir dir("dvs_shards");
  for (long i = 0; i < 2; ++i) {
    scenario::DvsScenarioStore store(dir.path(), StoreMiniDvsBench());
    scenario::DvsScenarioEngine engine(StoreMiniDvsBench());
    engine.set_store(&store);
    scenario::RunOptions options;
    options.shard = scenario::ShardSpec{i, 2};
    (void)engine.Run(grid, options);
  }
  scenario::DvsScenarioStore store(dir.path(), StoreMiniDvsBench());
  scenario::DvsScenarioEngine merge_engine(StoreMiniDvsBench());
  merge_engine.set_store(&store);
  scenario::RunOptions options;
  options.resume = true;
  const auto merged = merge_engine.Run(grid, options);
  EXPECT_EQ(merged.stats.replayed_units, 2);
  EXPECT_EQ(merged.stats.trained_models, 0);
  ExpectSameCells(reference, merged, "DVS 2-shard merge");
}

}  // namespace
}  // namespace axsnn

// Shard partitioning and run options for distributed scenario execution.
//
// A ScenarioGrid expands into work units in a fixed nesting order (see
// scenario.hpp); `--shard i/N` assigns unit u to shard u % N, so any N
// processes cover the grid exactly once with no coordination. Each shard
// journals its finished units to the shared on-disk store (store.hpp) and a
// final `--resume` pass over the whole grid replays all N journals in grid
// order — producing a report byte-identical to the single-process run.
//
// This header is intentionally tiny (no store/engine dependencies): the
// engines take RunOptions, the drivers take ShardRunnerOptions, and both
// sides share the strict `i/N` grammar below.
#pragma once

#include <optional>
#include <string>

namespace axsnn::scenario {

/// One shard of a deterministic unit partition: this process owns every
/// work unit u with u % count == index.
struct ShardSpec {
  long index = 0;
  long count = 1;

  bool Owns(long unit) const { return unit % count == index; }

  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// Parses the strict `i/N` shard grammar (both halves full-string integers
/// via runtime::ParseLongStrict, N > 0, 0 <= i < N). Returns nullopt for
/// anything else — "2/4abc", "0/0", "4/4", "-1/2", "1/2/3", "" all reject.
std::optional<ShardSpec> ParseShardSpec(const std::string& text);

/// Per-Run execution options for ScenarioEngine::Run.
struct RunOptions {
  /// When set, only units owned by this shard compute; foreign units stay
  /// unevaluated (NaN robustness) unless replayed via `resume`.
  std::optional<ShardSpec> shard;
  /// Replay units already journaled in the attached store (set_store)
  /// instead of recomputing them. Requires a store with a root. A resume
  /// pass with no shard is the merge step: it folds every shard's journal
  /// in grid order.
  bool resume = false;
};

/// Driver-facing argv bundle for the fig/table harnesses.
struct ShardRunnerOptions {
  std::optional<ShardSpec> shard;
  std::string cache_dir;  ///< empty: driver default (possibly memory-only)
  bool resume = false;
  std::string stats_out;  ///< empty: no machine-readable stats file

  /// Engine options implied by the CLI flags.
  RunOptions run_options() const { return RunOptions{shard, resume}; }
};

/// Parses `--shard i/N`, `--cache-dir DIR`, `--resume`, `--stats-out FILE`
/// from argv (argv[0] is skipped). Throws std::invalid_argument on unknown
/// flags, malformed shard specs, missing values, `--resume` without
/// `--cache-dir`, or a disallowed flag (`allow_shard` / `allow_resume`
/// gate drivers whose report layout cannot shard or resume).
ShardRunnerOptions ParseShardRunnerArgs(int argc, char** argv,
                                        bool allow_shard = true,
                                        bool allow_resume = true);

/// One-line usage suffix for driver error messages, matching the flags
/// ParseShardRunnerArgs accepts.
const char* ShardRunnerUsage();

}  // namespace axsnn::scenario

// Precision-Scaling search — the paper's Algorithm 1.
//
// Sweeps (threshold voltage, time steps) x (precision scale) x
// (approximation level): trains an accurate SNN per structural cell, gates
// it on the quality constraint Q, crafts adversarial examples on the
// accurate model, derives each approximate variant via Eq. (1), optionally
// AQF-filters neuromorphic inputs, and measures the robustness
//   R(eps) = (1 - adv_successes / |Dts|) * 100
// (line 21) — i.e. the accuracy on the attacked test set. The first
// configuration with R >= Q is returned (lines 22-24); the full trace of
// evaluated candidates is kept for reporting (Table I / Table II).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/workbench.hpp"

namespace axsnn::scenario {
template <typename Bench>
class ScenarioEngine;  // scenario/engine.hpp
}  // namespace axsnn::scenario

namespace axsnn::core {

/// The swept parameter grid (Algorithm 1 inputs).
struct SearchSpace {
  std::vector<float> v_thresholds;           // Vth = [v1 ... vn]
  std::vector<long> time_steps;              // T   = [t1 ... tn]
  std::vector<approx::Precision> precisions; // sl  = [s1 ... sn]
  std::vector<double> approx_levels;         // candidate ath levels
};

/// Non-grid inputs of Algorithm 1.
struct SearchConfig {
  AttackKind attack = AttackKind::kPgd;
  /// Registry attack overriding `attack` when non-empty: any registered
  /// attack applicable to the workbench works (attacks/registry.hpp), so
  /// searches cover registry-only attacks without an enum case.
  std::string attack_name;
  /// Parameter overrides for the attack (validated against its schema).
  attacks::ParamMap attack_params;
  /// Perturbation budget (gradient attacks only).
  float epsilon = 1.0f;
  /// Quality constraint Q [%]: minimum training accuracy for a structural
  /// cell to qualify (line 4) and minimum robustness to accept (line 22).
  float quality_constraint_pct = 85.0f;
  /// Neuromorphic dataset flag Fd: applies AQF before evaluation.
  bool neuromorphic = false;
  /// AQF settings used when `neuromorphic` (qt et al., Algorithm 2).
  AqfConfig aqf;
  /// Stop at the first candidate meeting Q (the paper's behaviour). When
  /// false, the whole grid is evaluated and the best candidate returned.
  bool return_first = true;
};

/// One evaluated (Vth, T, precision, level) candidate.
struct CandidateResult {
  float v_threshold = 0.0f;
  long time_steps = 0;
  approx::Precision precision = approx::Precision::kFp32;
  double level = 0.0;
  float train_accuracy_pct = 0.0f;  ///< accurate model, clean training data
  float robustness_pct = 0.0f;      ///< R(eps): accuracy on attacked test set
};

/// Search result: the chosen candidate (if any) plus the full trace.
struct SearchOutcome {
  /// True when some candidate met the quality constraint Q.
  bool found = false;
  /// The maximum-robustness candidate over the evaluated trace (earliest on
  /// ties, i.e. Algorithm 1's grid-order preference). When `found`, this is
  /// the winning candidate; otherwise it is the best-effort fallback —
  /// meaningful only when the trace is non-empty.
  CandidateResult best;
  std::vector<CandidateResult> trace;
};

/// Algorithm 1 over a static-image task (any static-capable registry
/// attack; the paper uses PGD/BIM).
///
/// Execution: with `return_first` the paper's serial grid walk runs, early-
/// exiting at the first candidate meeting Q; otherwise the whole grid is a
/// declarative ScenarioGrid executed on the scenario engine (training gate
/// included) and folded back in grid order — bit-identical to the serial
/// walk. Both modes train through the engine's store, so passing `engine`
/// shares trained models (and, in whole-grid mode, crafted sets) across
/// searches (e.g. Table I's PGD and BIM searches of one structural cell
/// train it once); nullptr uses a search-local engine.
SearchOutcome PrecisionScalingSearch(
    const StaticWorkbench& bench, const SearchSpace& space,
    const SearchConfig& config,
    scenario::ScenarioEngine<StaticWorkbench>* engine = nullptr);

/// Algorithm 1 over an event-stream task (any event-capable registry
/// attack, optional AQF). Time steps are fixed by the workbench's binning,
/// so the time_steps axis of `space` is ignored here.
SearchOutcome PrecisionScalingSearch(
    const DvsWorkbench& bench, const SearchSpace& space,
    const SearchConfig& config,
    scenario::ScenarioEngine<DvsWorkbench>* engine = nullptr);

}  // namespace axsnn::core

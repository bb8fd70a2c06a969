// One-call facade: design a security-aware approximate SNN.
//
// Wraps Algorithm 1 for users who want the end product rather than the
// search trace: runs the precision-scaling search and returns the chosen
// configuration together with a ready-to-deploy approximate network, built
// from the accurate model the search trained at the winning structural cell.
#pragma once

#include "core/search.hpp"

namespace axsnn::core {

/// A finished design: the winning configuration and the deployable AxSNN.
struct StaticDesign {
  SearchOutcome outcome;
  /// The accurate model trained at the winning (Vth, T).
  StaticWorkbench::TrainedModel accurate;
  /// The approximate, precision-scaled network at the winning level.
  snn::Network axsnn;
};

/// Runs Algorithm 1 and materializes the winning design. Throws
/// std::runtime_error when no candidate meets the quality constraint and
/// `config.return_first` is true; otherwise falls back to the best trace
/// entry.
StaticDesign DesignSecureAxsnn(const StaticWorkbench& bench,
                               const SearchSpace& space,
                               const SearchConfig& config);

/// Neuromorphic counterpart (Sparse/Frame threat, optional AQF).
struct DvsDesign {
  SearchOutcome outcome;
  DvsWorkbench::TrainedModel accurate;
  snn::Network axsnn;
};

DvsDesign DesignSecureAxsnn(const DvsWorkbench& bench,
                            const SearchSpace& space,
                            const SearchConfig& config);

}  // namespace axsnn::core

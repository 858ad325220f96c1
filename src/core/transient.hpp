#pragma once

#include <span>
#include <vector>

#include "stats/ensemble.hpp"

namespace csmabw::core {

/// Configuration of a transient-regime analysis (Section 4).
struct TransientConfig {
  /// Packets per probing sequence (the paper uses 1000).
  int train_length = 1000;
  /// Indices [0, ks_prefix) retain raw samples for per-index KS tests and
  /// histograms (Figs 7-9 look at the first 100-150 packets).
  int ks_prefix = 150;
  /// The pooled steady-state reference uses the last `steady_tail`
  /// indices of every repetition (the paper pools the last 500 packets).
  int steady_tail = 500;
  /// Additional individual indices (>= ks_prefix) retaining raw samples
  /// — sparse retention for histograms deep into the train (Fig 7's
  /// 500th packet) without paying for the whole prefix.
  std::vector<int> extra_raw_indices;
};

/// Accumulates repeated probing sequences and characterizes the
/// transient regime of the access delay.
///
/// For each packet index i it tracks the ensemble distribution of the
/// access delay mu_i across repetitions; the steady-state reference is
/// the pooled delay of the tail packets.  Provides the paper's three
/// diagnostics: the per-index mean (Fig 6), the per-index KS statistic
/// against steady state (Figs 8-9), and the tolerance-based transient
/// length (Fig 10).
class TransientAnalyzer {
 public:
  explicit TransientAnalyzer(const TransientConfig& cfg);

  /// Adds one repetition: the access delays (seconds) of packets
  /// 1..train_length of a probing sequence, in sequence order.  All
  /// values must be finite (discard repetitions with dropped packets
  /// before calling).
  void add_repetition(std::span<const double> access_delays_s);

  /// Sizes raw-sample storage for `repetitions` (see
  /// stats::EnsembleSeries::reserve).
  void reserve(int repetitions) { series_.reserve(repetitions); }

  /// Merges another analyzer accumulated under an identical
  /// configuration (parallel ensemble shards; see exp::Runner).
  void merge(const TransientAnalyzer& other);

  [[nodiscard]] int repetitions() const { return series_.repetitions(); }
  [[nodiscard]] const TransientConfig& config() const { return cfg_; }

  /// Ensemble mean access delay of packet index i (0-based).
  [[nodiscard]] double mean_at(int i) const { return series_.mean_at(i); }
  [[nodiscard]] std::vector<double> mean_curve() const {
    return series_.means();
  }
  /// Mean access delay over the pooled steady-state tail.
  [[nodiscard]] double steady_mean() const { return series_.steady_mean(); }

  /// Raw ensemble sample of index i (i < ks_prefix or listed in
  /// extra_raw_indices) — for histograms.
  [[nodiscard]] std::span<const double> sample_at(int i) const {
    return series_.raw_at(i);
  }
  [[nodiscard]] std::span<const double> steady_sample() const {
    return series_.steady_pool();
  }

  /// KS statistic of index i's ensemble distribution vs. the pooled
  /// steady-state distribution (i < ks_prefix).
  [[nodiscard]] double ks_at(int i) const;
  /// 95% KS rejection threshold for index i's sample sizes.
  [[nodiscard]] double ks_threshold_at(int i) const;
  /// KS statistics for indices [0, ks_prefix).
  [[nodiscard]] std::vector<double> ks_curve() const;

  /// Transient length (Section 4.1): the first index whose ensemble mean
  /// lies within `tol` (relative) of the steady-state mean and stays
  /// within for `window` consecutive indices.  Returns the 1-based packet
  /// count (the paper reports "packets"), or train_length if the series
  /// never settles.
  [[nodiscard]] int transient_length(double tol, int window = 3) const;

 private:
  TransientConfig cfg_;
  stats::EnsembleSeries series_;
};

}  // namespace csmabw::core

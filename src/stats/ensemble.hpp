#pragma once

#include <span>
#include <vector>

#include "stats/summary.hpp"

namespace csmabw::stats {

/// Per-index ensemble statistics across repeated experiments.
///
/// The transient analysis of Section 4 repeats an experiment thousands of
/// times and studies the distribution of the i-th packet's access delay
/// *across repetitions*.  This accumulator keeps a `RunningStat` per
/// index for all indices, and additionally retains the raw samples for
/// the first `raw_prefix` indices (needed for KS tests and histograms)
/// plus a pooled "steady-state" reference built from the last
/// `steady_tail` indices of every repetition.
class EnsembleSeries {
 public:
  /// `length`: number of indices per repetition (every repetition must
  /// supply exactly this many values).
  /// `raw_prefix`: indices [0, raw_prefix) keep raw samples.
  /// `steady_tail`: the last `steady_tail` indices feed the pooled
  /// steady-state reference sample (0 disables pooling).
  /// `extra_raw`: additional individual indices (>= raw_prefix) that
  /// keep raw samples — sparse retention for histograms deep into the
  /// train without paying for the whole prefix (Fig 7's 500th packet).
  EnsembleSeries(int length, int raw_prefix, int steady_tail,
                 std::vector<int> extra_raw = {});

  void add_repetition(std::span<const double> values);

  /// Sizes the raw-sample and steady-pool storage for `repetitions` in
  /// total, so accumulating or merging up to that many never
  /// reallocates (values are unaffected).
  void reserve(int repetitions);

  /// Merges a shard accumulated over the same (length, raw_prefix,
  /// steady_tail) configuration.  Raw samples and the steady pool are
  /// appended in call order, so merging shards of repetitions
  /// [0,k), [k,2k), ... in order reproduces the sample order of a serial
  /// accumulation — the parallel campaign runner relies on this.
  void merge(const EnsembleSeries& other);

  [[nodiscard]] int length() const { return length_; }
  [[nodiscard]] int raw_prefix() const { return raw_prefix_; }
  [[nodiscard]] int repetitions() const { return reps_; }

  /// Ensemble mean of index `i` (0-based).
  [[nodiscard]] double mean_at(int i) const;
  [[nodiscard]] const RunningStat& stat_at(int i) const;
  [[nodiscard]] std::vector<double> means() const;

  /// Raw samples of index `i` (< raw_prefix, or listed in `extra_raw`)
  /// across repetitions.
  [[nodiscard]] std::span<const double> raw_at(int i) const;

  /// Pooled sample of the last `steady_tail` indices of all repetitions.
  [[nodiscard]] std::span<const double> steady_pool() const;
  /// Mean over the steady-state tail (all indices, all repetitions).
  [[nodiscard]] double steady_mean() const;

 private:
  int length_;
  int raw_prefix_;
  int steady_tail_;
  int reps_ = 0;
  std::vector<RunningStat> per_index_;
  std::vector<std::vector<double>> raw_;
  /// Sorted, deduplicated extra indices and their samples (parallel).
  std::vector<int> extra_raw_indices_;
  std::vector<std::vector<double>> extra_raw_;
  std::vector<double> steady_pool_;
  RunningStat steady_stat_;
};

}  // namespace csmabw::stats

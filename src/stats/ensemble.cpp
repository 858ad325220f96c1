#include "stats/ensemble.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace csmabw::stats {

EnsembleSeries::EnsembleSeries(int length, int raw_prefix, int steady_tail,
                               std::vector<int> extra_raw)
    : length_(length),
      raw_prefix_(raw_prefix),
      steady_tail_(steady_tail),
      per_index_(static_cast<std::size_t>(length)),
      raw_(static_cast<std::size_t>(raw_prefix)),
      extra_raw_indices_(std::move(extra_raw)) {
  CSMABW_REQUIRE(length > 0, "ensemble length must be positive");
  CSMABW_REQUIRE(raw_prefix >= 0 && raw_prefix <= length,
                 "raw_prefix must be within [0, length]");
  CSMABW_REQUIRE(steady_tail >= 0 && steady_tail <= length,
                 "steady_tail must be within [0, length]");
  std::sort(extra_raw_indices_.begin(), extra_raw_indices_.end());
  extra_raw_indices_.erase(
      std::unique(extra_raw_indices_.begin(), extra_raw_indices_.end()),
      extra_raw_indices_.end());
  // Indices already covered by the prefix would duplicate storage.
  std::erase_if(extra_raw_indices_,
                [this](int i) { return i < raw_prefix_; });
  for (int i : extra_raw_indices_) {
    CSMABW_REQUIRE(i < length_, "extra raw index out of range");
  }
  extra_raw_.resize(extra_raw_indices_.size());
}

void EnsembleSeries::add_repetition(std::span<const double> values) {
  CSMABW_REQUIRE(values.size() == static_cast<std::size_t>(length_),
                 "repetition length mismatch");
  for (int i = 0; i < length_; ++i) {
    per_index_[static_cast<std::size_t>(i)].add(values[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < raw_prefix_; ++i) {
    raw_[static_cast<std::size_t>(i)].push_back(values[static_cast<std::size_t>(i)]);
  }
  for (std::size_t k = 0; k < extra_raw_indices_.size(); ++k) {
    extra_raw_[k].push_back(
        values[static_cast<std::size_t>(extra_raw_indices_[k])]);
  }
  for (int i = length_ - steady_tail_; i < length_; ++i) {
    const double v = values[static_cast<std::size_t>(i)];
    steady_pool_.push_back(v);
    steady_stat_.add(v);
  }
  ++reps_;
}

void EnsembleSeries::reserve(int repetitions) {
  const auto reps = static_cast<std::size_t>(std::max(repetitions, 0));
  for (auto& raw : raw_) {
    raw.reserve(reps);
  }
  for (auto& raw : extra_raw_) {
    raw.reserve(reps);
  }
  steady_pool_.reserve(reps * static_cast<std::size_t>(steady_tail_));
}

void EnsembleSeries::merge(const EnsembleSeries& other) {
  CSMABW_REQUIRE(other.length_ == length_ && other.raw_prefix_ == raw_prefix_ &&
                     other.steady_tail_ == steady_tail_ &&
                     other.extra_raw_indices_ == extra_raw_indices_,
                 "cannot merge ensembles with different configurations");
  for (int i = 0; i < length_; ++i) {
    per_index_[static_cast<std::size_t>(i)].merge(
        other.per_index_[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < raw_prefix_; ++i) {
    auto& dst = raw_[static_cast<std::size_t>(i)];
    const auto& src = other.raw_[static_cast<std::size_t>(i)];
    dst.insert(dst.end(), src.begin(), src.end());
  }
  for (std::size_t k = 0; k < extra_raw_.size(); ++k) {
    extra_raw_[k].insert(extra_raw_[k].end(), other.extra_raw_[k].begin(),
                         other.extra_raw_[k].end());
  }
  steady_pool_.insert(steady_pool_.end(), other.steady_pool_.begin(),
                      other.steady_pool_.end());
  steady_stat_.merge(other.steady_stat_);
  reps_ += other.reps_;
}

double EnsembleSeries::mean_at(int i) const { return stat_at(i).mean(); }

const RunningStat& EnsembleSeries::stat_at(int i) const {
  CSMABW_REQUIRE(i >= 0 && i < length_, "index out of range");
  return per_index_[static_cast<std::size_t>(i)];
}

std::vector<double> EnsembleSeries::means() const {
  std::vector<double> out(static_cast<std::size_t>(length_));
  for (int i = 0; i < length_; ++i) {
    out[static_cast<std::size_t>(i)] = mean_at(i);
  }
  return out;
}

std::span<const double> EnsembleSeries::raw_at(int i) const {
  if (i >= 0 && i < raw_prefix_) {
    return raw_[static_cast<std::size_t>(i)];
  }
  const auto it = std::lower_bound(extra_raw_indices_.begin(),
                                   extra_raw_indices_.end(), i);
  CSMABW_REQUIRE(it != extra_raw_indices_.end() && *it == i,
                 "raw samples were not retained for this index");
  return extra_raw_[static_cast<std::size_t>(
      it - extra_raw_indices_.begin())];
}

std::span<const double> EnsembleSeries::steady_pool() const {
  return steady_pool_;
}

double EnsembleSeries::steady_mean() const { return steady_stat_.mean(); }

}  // namespace csmabw::stats

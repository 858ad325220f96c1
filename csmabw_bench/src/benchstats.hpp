#pragma once
// The benchmark's own statistics and bookkeeping: medians and quartiles
// of per-batch samples, tail-percentile selection, failed-operation
// accounting and reference-output comparison.  Header-only and free of
// library dependencies so the self-test exercises exactly this code.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace csmabw_bench {

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending sample:
/// the value at 1-based rank ceil(p/100 * n).
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& sorted,
                                              double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Median by linear interpolation between the two middle samples, the
/// convention of Python's statistics.median; 0 for an empty sample.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail statistic: which percentile it is, its value and the sample
/// count it was taken from.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};

/// Percentiles a tail may be reported at, highest first.  A fixed
/// ladder keeps the reported percentile comparable between runs whose
/// sample counts differ slightly.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// The highest ladder percentile with at least kTailBeyond samples
/// ranked beyond it; nullopt when even the median has fewer (n < 20).
[[nodiscard]] inline std::optional<Tail> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (double p : kTailLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n >= rank + kTailBeyond && rank >= 1) {
      return Tail{p, percentile_sorted(v, p), n};
    }
  }
  return std::nullopt;
}

/// One output compared against its reference: a name, the value the
/// run produced, and how many operations its correctness vouches for.
struct Check {
  std::string name;
  std::string value;
  std::int64_t ops = 0;
};

/// Attempted/failed operation accounting for one run.  An operation is
/// a repetition, a query, a cache store, a served repetition or a trace
/// file rewrite; it fails when it throws or when an output that covers
/// it differs from the reference.
class Ledger {
 public:
  void attempt(std::int64_t ops) { attempted_ += ops; }
  /// Records `ops` operations that threw.
  void fail(std::int64_t ops) { failed_ += ops; }
  /// Records a mismatch: the ops fail and the run's outputs are wrong.
  void mismatch(std::int64_t ops) {
    fail(ops);
    mismatched_ = true;
  }
  /// Folds in the ledger of one batch.  Overlapping outputs can vouch
  /// for the same operations, so the batch's failures are capped at
  /// its attempts: an operation fails at most once.
  void absorb(const Ledger& batch) {
    attempted_ += batch.attempted_;
    failed_ += std::min(batch.failed_, batch.attempted_);
    mismatched_ = mismatched_ || batch.mismatched_;
  }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] bool outputs_correct() const { return !mismatched_; }
  [[nodiscard]] double failed_share() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool mismatched_ = false;
};

/// Reference outputs of one (workload, input seed): name -> value.
using References = std::map<std::string, std::string>;

/// Compares every check against `refs`; a check with a different or no
/// reference value is a mismatch whose ops fail, described by name in
/// `messages`.  Returns the number of mismatching checks.
inline int compare_to_references(const std::vector<Check>& checks,
                                 const References& refs, Ledger& ledger,
                                 std::vector<std::string>* messages) {
  int bad = 0;
  for (const Check& c : checks) {
    const auto it = refs.find(c.name);
    if (it != refs.end() && it->second == c.value) {
      continue;
    }
    ++bad;
    ledger.mismatch(c.ops);
    if (messages != nullptr) {
      messages->push_back(c.name + ": expected " +
                          (it == refs.end() ? std::string("<no reference>")
                                            : it->second) +
                          ", got " + c.value);
    }
  }
  return bad;
}

}  // namespace csmabw_bench

#pragma once
// The benchmark's workloads.  Each is a fixed-size batch run on one
// process through a pool of `threads` workers, calling the csmabw layer
// APIs directly.  A workload is built from an input seed; setup()
// prepares its inputs (callable repeatedly), run_batch() is the timed
// unit of the untraced run and run_traced() one round of the traced
// run, which adds spans around every layer call the benchmark makes and
// switches on the library's own metrics and spans.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchstats.hpp"

namespace csmabw_bench {

/// Everything that selects a workload instance.
struct Params {
  std::string workload;
  /// Seed the inputs are generated from (already folded into the
  /// reference table's range).
  std::uint64_t input_seed = 0;
  int threads = 4;
  /// Scratch directory the workload may fill; removed by the caller.
  std::filesystem::path work;
};

/// One untraced batch.
struct Batch {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t ops = 0;  ///< operations attempted
  /// Operations that threw: what failed (with its error message) and
  /// how many operations it took down.
  std::vector<std::pair<std::string, std::int64_t>> thrown;
  std::vector<Check> checks;
  /// Workload-specific end-to-end samples of this batch, by name.
  std::map<std::string, double> rates;
  /// Per-query latencies (stored_results only), milliseconds.
  std::vector<double> query_ms;
};

/// One traced round: raw per-layer material plus the exact counts that
/// are compared against references.
struct Round {
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  std::int64_t ops = 0;
  std::vector<std::pair<std::string, std::int64_t>> thrown;
  /// Span durations (ns) by span name, from the library's profiler and
  /// the benchmark's own spans.
  std::map<std::string, std::vector<double>> spans_ns;
  /// Additive quantities (bytes, events, wall times) by name.
  std::map<std::string, double> sums;
  /// Exact counts; also appended to `checks` as count.<name>.
  std::map<std::string, std::int64_t> counts;
  std::vector<Check> checks;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs; may run repeatedly (each call starts afresh).
  virtual void setup() = 0;
  [[nodiscard]] virtual Batch run_batch() = 0;
  [[nodiscard]] virtual Round run_traced() = 0;
  /// One-line description of the batch shape.
  [[nodiscard]] virtual std::string shape() const = 0;
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Params& params);

/// Process CPU time (user + system, all threads) in seconds.
[[nodiscard]] double cpu_seconds();

}  // namespace csmabw_bench

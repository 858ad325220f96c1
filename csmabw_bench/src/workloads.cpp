#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/scenario.hpp"
#include "core/transient.hpp"
#include "exp/collector.hpp"
#include "exp/engine.hpp"
#include "exp/runner.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/cache_key.hpp"
#include "serve/campaign_io.hpp"
#include "serve/result_cache.hpp"
#include "stats/summary.hpp"
#include "trace/event.hpp"
#include "trace/query/agg.hpp"
#include "trace/query/engine.hpp"
#include "trace/query/predicate.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "traffic/model.hpp"
#include "util/hash.hpp"
#include "util/time.hpp"

namespace csmabw_bench {

namespace {

using namespace csmabw;
namespace fs = std::filesystem;

// ------------------------------------------------------------ batch sizes
// Sized so one batch takes about a second at four workers; the driver
// repeats batches for the whole measured interval and reports medians.

/// clique_trains: the paper's 18-cell ensemble grid, scaled up 4x from
/// campaign_sweep's 100 repetitions per cell.
constexpr int kCliqueReps = 400;
constexpr int kCliqueTrain = 400;
/// Warm-up repetitions per cell during setup.
constexpr int kCliqueWarmupReps = 128;

/// lattice_trains: four grid:32x32 cells of kLatticeReps long
/// repetitions.  The engine's default work shard (64 repetitions) holds
/// a whole cell, as in campaign_sweep and ext_lattice_delay, so each of
/// the four workers runs one cell and the slowest cell sets wall time.
constexpr int kLatticeReps = 16;
constexpr int kLatticeTrain = 100;
constexpr int kLatticeWarmupReps = 2;
constexpr const char* kLatticeTopology = "grid:32x32";

/// stored_results: a recorded clique fleet (kFleetReps repetitions per
/// cell of the 18-cell grid), the records of a kServedReps-per-cell
/// clique campaign, and one grid:32x32 trace from each of the first
/// kFleetLatticeCells lattice cells.  Their warm-up and train are cut
/// short so the decoded fleet stays small in memory; the traces still
/// span over a hundred pages each.
constexpr int kFleetReps = 8;
constexpr int kServedReps = 4;
constexpr int kFleetLatticeCells = 2;
constexpr int kFleetLatticeWarmupMs = 100;
constexpr int kFleetLatticeTrain = 30;
/// stored_results runs on at most 2 workers.  Its legs are short
/// parallel phases (a pool spawn per call, fresh file mappings per
/// query) whose barrier waits amplify host CPU steal: at 4 workers its
/// run-to-run spread was twice that at 2, for batches only 25% faster.
constexpr int kStoredThreads = 2;

double now_s() { return static_cast<double>(obs::now_ns()) * 1e-9; }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string cell_name(int index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "cell.%02d", index);
  return buf;
}

exp::SweepSpec clique_spec(std::uint64_t input_seed, int reps) {
  exp::SweepSpec spec;
  spec.contender_counts = {1, 2, 3};
  spec.cross_mbps = {1.0, 2.0, 4.0};
  spec.phy_presets = {"dot11b_short", "dot11b_long"};
  spec.train_lengths = {kCliqueTrain};
  spec.probe_mbps = {5.0};
  spec.repetitions = reps;
  spec.campaign_seed = input_seed + 1;
  return spec;
}

/// Four grid:32x32 cells (1,023 Poisson contenders each): two per-station
/// loads at which neighbourhoods contend, on both 802.11b preambles.
exp::SweepSpec lattice_spec(std::uint64_t input_seed, int reps) {
  exp::SweepSpec spec;
  for (const char* phy : {"dot11b_short", "dot11b_long"}) {
    for (const char* rate : {"400k", "300k"}) {
      spec.scenarios.push_back(std::string("phy=") + phy +
                               ";contenders=1023x poisson:rate=" + rate);
    }
  }
  spec.topologies = {kLatticeTopology};
  spec.train_lengths = {kLatticeTrain};
  spec.probe_mbps = {5.0};
  spec.repetitions = reps;
  spec.campaign_seed = input_seed + 1;
  return spec;
}

/// Digest of everything a train campaign reports for one cell: the
/// bits of the transient analysis, the output-gap moments, and the
/// simulator work that produced them.
std::string cell_digest(const exp::TrainCellStats& r) {
  util::Fnv1a64 h;
  h.add(r.used).add(r.dropped).add(r.obs.computed).add(r.obs.sim_events);
  h.add(r.output_gap_s.count())
      .add(r.output_gap_s.mean())
      .add(r.output_gap_s.variance());
  h.add(r.analyzer.repetitions());
  if (r.used > 0) {
    for (double m : r.analyzer.mean_curve()) {
      h.add(m);
    }
    h.add(r.analyzer.steady_mean())
        .add(r.analyzer.ks_at(0))
        .add(r.analyzer.transient_length(0.1));
  }
  return hex64(h.digest());
}

std::string file_digest(const std::vector<char>& bytes) {
  return hex64(util::Fnv1a64().bytes(bytes.data(), bytes.size()).digest());
}

std::vector<char> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path.string());
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Spans of one profiler, grouped by name (durations in ns).
void collect_spans(const obs::Profiler& prof,
                   std::map<std::string, std::vector<double>>& out) {
  for (const obs::SpanEvent& s : prof.sorted_spans()) {
    out[s.name].push_back(static_cast<double>(s.dur_ns));
  }
}

/// Counts MAC events by kind: the behaviour fingerprint of a run.
class MacCounter final : public trace::TraceSink {
 public:
  void on_event(const trace::TraceEvent& e) override {
    ++counts_[static_cast<std::size_t>(trace::kind_index(e.kind))];
  }
  [[nodiscard]] std::int64_t count(trace::EventKind kind) const {
    return counts_[static_cast<std::size_t>(trace::kind_index(kind))];
  }
  void merge(const MacCounter& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }

 private:
  std::array<std::int64_t, trace::kEventKindCount> counts_{};
};

/// The campaign_sweep summary CSV of a train campaign's results.
void write_campaign_csv(const exp::Campaign& campaign,
                        const std::vector<exp::TrainCellStats>& results,
                        const fs::path& path) {
  std::vector<std::string> columns = exp::Collector::cell_columns();
  for (const char* metric :
       {"reps_used", "dropped", "mean_gap_ms", "measured_rate_mbps",
        "first_delay_ms", "steady_delay_ms", "ks_first", "ks_thresh_95",
        "transient_pkts_tol0.1"}) {
    columns.emplace_back(metric);
  }
  exp::CollectorOptions copts;
  copts.csv_path = path.string();
  exp::Collector collector(columns, copts);
  for (const exp::Cell& cell : campaign.cells()) {
    const exp::TrainCellStats& r =
        results[static_cast<std::size_t>(cell.index)];
    std::vector<exp::Value> row = exp::Collector::cell_coords(cell);
    row.emplace_back(r.used);
    row.emplace_back(r.dropped);
    if (r.used > 0) {
      row.emplace_back(r.output_gap_s.mean() * 1e3);
      row.emplace_back(r.measured_rate_mbps(cell.train.size_bytes));
      row.emplace_back(r.analyzer.mean_at(0) * 1e3);
      row.emplace_back(r.analyzer.steady_mean() * 1e3);
      row.emplace_back(r.analyzer.ks_at(0));
      row.emplace_back(r.analyzer.ks_threshold_at(0));
      row.emplace_back(r.analyzer.transient_length(0.1));
    } else {
      for (int k = 0; k < 7; ++k) {
        row.emplace_back(std::numeric_limits<double>::quiet_NaN());
      }
    }
    collector.add(row);
  }
}

// ---------------------------------------------------------------- trains

/// clique_trains and lattice_trains: one probe-train campaign per batch
/// through exp::run_train_campaign.
class TrainWorkload final : public Workload {
 public:
  TrainWorkload(Params params, bool lattice)
      : params_(std::move(params)),
        lattice_(lattice),
        runner_(exp::RunnerOptions{params_.threads, nullptr}) {}

  /// Expands the campaign and runs a short warm-up campaign of the same
  /// cells, so lazily sized state is in place before timing.
  void setup() override {
    campaign_ = std::make_unique<exp::Campaign>(
        spec(lattice_ ? kLatticeReps : kCliqueReps));
    const exp::Campaign warmup(
        spec(lattice_ ? kLatticeWarmupReps : kCliqueWarmupReps));
    (void)exp::run_train_campaign(warmup, tcfg_, runner_);
  }

  Batch run_batch() override {
    Batch b;
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    const std::vector<exp::TrainCellStats> results =
        exp::run_train_campaign(*campaign_, tcfg_, runner_);
    b.wall_s = now_s() - t0;
    b.cpu_s = cpu_seconds() - c0;
    b.ops = campaign_->total_repetitions();
    std::int64_t computed = 0;
    double events = 0.0;
    for (const exp::TrainCellStats& r : results) {
      computed += r.obs.computed;
      events += static_cast<double>(r.obs.sim_events);
      b.checks.push_back(
          {cell_name(r.obs.cell), cell_digest(r), cell_reps(r.obs.cell)});
    }
    if (computed != b.ops) {
      b.thrown.emplace_back("exp.reps.computed", b.ops - computed);
    }
    b.rates["reps_per_s"] = static_cast<double>(b.ops) / b.wall_s;
    b.rates["sim_events_per_s"] = events / b.wall_s;
    return b;
  }

  Round run_traced() override {
    Round r;
    const Batch untraced = run_batch();
    r.untraced_wall_s = untraced.wall_s;
    r.ops += untraced.ops;
    r.thrown = untraced.thrown;
    r.checks = untraced.checks;
    engine_pass(r);
    shard_loop_pass(r, true);
    shard_loop_pass(r, false);
    for (const auto& [name, value] : r.counts) {
      r.checks.push_back({"count." + name, std::to_string(value), r.ops});
    }
    return r;
  }

  [[nodiscard]] std::string shape() const override {
    const exp::Campaign& c = *campaign_;
    return std::to_string(c.size()) + " cells x " +
           std::to_string(c.cells().front().repetitions) + " reps (" +
           std::to_string(c.total_repetitions()) + " trains of " +
           std::to_string(c.cells().front().train.n) + " probes" +
           (lattice_ ? std::string(", ") + kLatticeTopology : "") + ") on " +
           std::to_string(runner_.threads()) + " workers";
  }

 private:
  [[nodiscard]] exp::SweepSpec spec(int reps) const {
    return lattice_ ? lattice_spec(params_.input_seed, reps)
                    : clique_spec(params_.input_seed, reps);
  }

  [[nodiscard]] std::int64_t cell_reps(int cell) const {
    return campaign_->cells()[static_cast<std::size_t>(cell)].repetitions;
  }

  /// The engine with the library's metrics and spans switched on: the
  /// exp.* spans, sim.* counters and the medium's topo.medium.* counters.
  void engine_pass(Round& r) {
    obs::Registry reg;
    obs::Profiler prof;
    serve::CampaignServeOptions io;
    io.metrics = &reg;
    io.profiler = &prof;
    const double t0 = now_s();
    const std::vector<exp::TrainCellStats> results =
        exp::run_train_campaign(*campaign_, tcfg_, runner_, io);
    r.traced_wall_s = now_s() - t0;
    r.sums["engine.wall_s"] += r.traced_wall_s;
    r.ops += campaign_->total_repetitions();
    for (const exp::TrainCellStats& c : results) {
      r.checks.push_back(
          {cell_name(c.obs.cell), cell_digest(c), cell_reps(c.obs.cell)});
    }
    collect_spans(prof, r.spans_ns);
    r.counts["sim.events"] = reg.value("sim.events.processed");
    r.counts["sim.slab_allocs"] = reg.value("sim.slab.alloc");
    for (const char* name :
         {"topo.medium.updates", "topo.medium.neighborhood_sweeps",
          "topo.medium.fire_rearms"}) {
      r.counts[name] = reg.value(name);
    }
  }

  /// The engine's per-shard loop re-run from the benchmark.  As the
  /// ladder pass it puts a ladder.shard span around each shard and,
  /// inside it, a span around every call into a layer: the scenario and
  /// cell builders (core), the simulation (core.run_train: sim, mac,
  /// topo), result harvesting, and the TransientAnalyzer accumulate
  /// (stats); stats.merge spans the merge after the shards.
  /// core.cell_build times an extra ScenarioCell construction per
  /// repetition — the build run_train performs internally — so it is
  /// reported but taken out of both the shard time and the ladder sum.
  /// Otherwise it is the fingerprint pass: no spans, and a
  /// trace::TraceSink that counts MAC events, whose virtual call per
  /// event would distort the ladder.
  void shard_loop_pass(Round& r, bool ladder) {
    struct ShardOut {
      int cell = 0;
      std::unique_ptr<exp::TrainCellStats> stats;
      MacCounter mac;
      std::int64_t events = 0;
      std::int64_t allocs = 0;
    };
    struct Shard {
      int cell, begin, end;
    };
    std::vector<Shard> shards;
    for (const exp::Cell& cell : campaign_->cells()) {
      for (int b = 0; b < cell.repetitions; b += tcfg_.shard_size) {
        shards.push_back(
            {cell.index, b, std::min(b + tcfg_.shard_size, cell.repetitions)});
      }
    }
    obs::Registry reg;
    obs::Profiler prof(ladder);
    const auto& models = traffic::TrafficModelRegistry::global();
    std::vector<ShardOut> outs(shards.size());
    runner_.for_each(static_cast<int>(shards.size()), [&](int s) {
      const Shard& shard = shards[static_cast<std::size_t>(s)];
      const exp::Cell& cell =
          campaign_->cells()[static_cast<std::size_t>(shard.cell)];
      ShardOut& out = outs[static_cast<std::size_t>(s)];
      obs::ScopedSpan shard_span(&prof, "ladder.shard");
      out.cell = shard.cell;
      out.stats = std::make_unique<exp::TrainCellStats>(
          exp::train_transient_config(cell.train.n, tcfg_));
      std::vector<core::TrafficModelPtr> contender_models;
      for (const core::StationSpec& st : cell.scenario.contenders) {
        contender_models.push_back(models.create(st.traffic));
      }
      std::optional<core::Scenario> scenario;
      {
        obs::ScopedSpan span(&prof, "core.scenario");
        scenario.emplace(cell.scenario);
      }
      for (int rep = shard.begin; rep < shard.end; ++rep) {
        const auto repetition = static_cast<std::uint64_t>(rep);
        if (ladder) {
          obs::ScopedSpan span(&prof, "core.cell_build");
          const core::ScenarioCell built(cell.scenario, repetition,
                                         contender_models, nullptr);
        }
        core::TrainRun run;
        {
          obs::ScopedSpan span(&prof, "core.run_train");
          run = scenario->run_train(cell.train, repetition, false,
                                    ladder ? nullptr : &out.mac, &reg);
        }
        out.events += static_cast<std::int64_t>(run.sim_events);
        out.allocs += static_cast<std::int64_t>(run.sim_allocations);
        ++out.stats->obs.computed;
        out.stats->obs.sim_events += static_cast<std::int64_t>(run.sim_events);
        if (run.any_dropped) {
          ++out.stats->dropped;
          continue;
        }
        std::vector<double> delays;
        double gap = 0.0;
        {
          obs::ScopedSpan span(&prof, "core.harvest");
          delays = run.access_delays_s();
          gap = run.output_gap_s();
        }
        {
          obs::ScopedSpan span(&prof, "stats.accumulate");
          out.stats->analyzer.add_repetition(delays);
          out.stats->output_gap_s.add(gap);
        }
        ++out.stats->used;
      }
    });
    std::vector<exp::TrainCellStats> merged;
    {
      obs::ScopedSpan span(&prof, "stats.merge");
      merged.reserve(campaign_->cells().size());
      for (const exp::Cell& cell : campaign_->cells()) {
        merged.emplace_back(exp::train_transient_config(cell.train.n, tcfg_));
        merged.back().obs.cell = cell.index;
      }
      for (const ShardOut& out : outs) {
        exp::TrainCellStats& dst = merged[static_cast<std::size_t>(out.cell)];
        dst.analyzer.merge(out.stats->analyzer);
        dst.output_gap_s.merge(out.stats->output_gap_s);
        dst.used += out.stats->used;
        dst.dropped += out.stats->dropped;
        dst.obs.merge(out.stats->obs);
      }
    }
    r.ops += campaign_->total_repetitions();
    for (const exp::TrainCellStats& c : merged) {
      r.checks.push_back(
          {cell_name(c.obs.cell), cell_digest(c), cell_reps(c.obs.cell)});
    }
    collect_spans(prof, r.spans_ns);

    MacCounter mac;
    std::int64_t events = 0;
    std::int64_t allocs = 0;
    for (const ShardOut& out : outs) {
      mac.merge(out.mac);
      events += out.events;
      allocs += out.allocs;
    }
    if (ladder) {
      r.sums["ladder.sim_events"] += static_cast<double>(events);
    } else {
      r.counts["mac.tx_attempts"] = mac.count(trace::EventKind::kTxAttempt);
      r.counts["mac.successes"] = mac.count(trace::EventKind::kSuccess);
      r.counts["mac.collisions"] = mac.count(trace::EventKind::kCollision);
      r.counts["mac.backoff_freezes"] =
          mac.count(trace::EventKind::kBackoffFreeze);
    }
    // The pass's program-reported work must agree with the engine's.
    const std::int64_t total = campaign_->total_repetitions();
    if (events != r.counts["sim.events"]) {
      r.checks.push_back({"count.sim.events", std::to_string(events), total});
    }
    if (allocs != r.counts["sim.slab_allocs"]) {
      r.checks.push_back(
          {"count.sim.slab_allocs", std::to_string(allocs), total});
    }
    for (const char* name :
         {"topo.medium.updates", "topo.medium.neighborhood_sweeps",
          "topo.medium.fire_rearms"}) {
      if (reg.value(name) != r.counts[name]) {
        r.checks.push_back(
            {std::string("count.") + name, std::to_string(reg.value(name)),
             total});
      }
    }
  }

  Params params_;
  bool lattice_;
  exp::Runner runner_;
  exp::TrainCampaignConfig tcfg_{};
  std::unique_ptr<exp::Campaign> campaign_;
};

// --------------------------------------------------------- stored results

/// One query of the fixed mix.
struct QuerySpec {
  const char* name;
  const char* agg;
  const char* where;
  enum Fleet { kClique, kLattice, kAll } fleet;
};

constexpr QuerySpec kQueries[] = {
    {"query.delay_clique", "delay", "", QuerySpec::kClique},
    {"query.delay_lattice", "delay", "", QuerySpec::kLattice},
    {"query.counts_collision", "counts", "kinds=collision", QuerySpec::kAll},
    {"query.counts_window", "counts", "time_ms=0..50", QuerySpec::kLattice},
    {"query.qdepth_clique", "qdepth", "", QuerySpec::kClique},
};

std::string aggregation_digest(const trace::query::Aggregation& agg) {
  util::Fnv1a64 h;
  for (const std::string& c : agg.columns()) {
    h.add(c);
  }
  for (const std::vector<util::Value>& row : agg.rows()) {
    for (const util::Value& v : row) {
      if (v.is_number()) {
        h.add(v.number());
      } else {
        h.add(v.str());
      }
    }
  }
  return hex64(h.digest());
}

/// stored_results: offline analytics over what train campaigns leave
/// behind.  Setup records a trace fleet and fills a result cache; every
/// batch then re-encodes the fleet (trace writes), runs the query mix
/// (trace reads), stores every repetition record into a fresh cache
/// (cache writes) and replays the campaign from it (cache reads).
class StoredWorkload final : public Workload {
 public:
  explicit StoredWorkload(Params params)
      : params_(std::move(params)),
        root_(params_.work / "stored"),
        runner_(exp::RunnerOptions{std::min(params_.threads, kStoredThreads),
                                   nullptr}) {}

  void setup() override {
    fs::remove_all(root_);
    files_.clear();
    records_.clear();

    exp::SweepSpec fleet = clique_spec(params_.input_seed, kFleetReps);
    fleet.trace_dir = (root_ / "fleet" / "clique").string();
    (void)exp::run_train_campaign(exp::Campaign(fleet), tcfg_, runner_);

    served_ = std::make_unique<exp::Campaign>(
        clique_spec(params_.input_seed, kServedReps));
    serve::ResultCache setup_cache((root_ / "setup_cache").string());
    serve::CampaignServeOptions io;
    io.cache = &setup_cache;
    const std::vector<exp::TrainCellStats> live =
        exp::run_train_campaign(*served_, tcfg_, runner_, io);
    write_campaign_csv(*served_, live, root_ / "live.csv");
    live_csv_digest_ = file_digest(read_file(root_ / "live.csv"));

    const exp::Campaign lattice_grid(lattice_spec(params_.input_seed, 1));
    std::vector<exp::Cell> lattice_cells(
        lattice_grid.cells().begin(),
        lattice_grid.cells().begin() + kFleetLatticeCells);
    for (exp::Cell& cell : lattice_cells) {
      cell.scenario.warmup = TimeNs::ms(kFleetLatticeWarmupMs);
      cell.train.n = kFleetLatticeTrain;
    }
    exp::Campaign lattice(std::move(lattice_cells),
                          lattice_grid.campaign_seed());
    lattice.set_trace_dir((root_ / "fleet" / "lattice").string());
    (void)exp::run_train_campaign(lattice, tcfg_, runner_);

    clique_files_ = trace::list_traces((root_ / "fleet" / "clique").string());
    lattice_files_ =
        trace::list_traces((root_ / "fleet" / "lattice").string());
    all_files_ = clique_files_;
    all_files_.insert(all_files_.end(), lattice_files_.begin(),
                      lattice_files_.end());
    for (const trace::TraceFile& f : all_files_) {
      StoredFile s;
      s.name = fs::path(f.path).parent_path().filename().string() + "-" +
               fs::path(f.path).filename().string();
      s.meta = f.meta;
      s.events = trace::read_trace(f.path);
      files_.push_back(std::move(s));
    }
    clique_events_ = 0;
    for (std::size_t i = 0; i < clique_files_.size(); ++i) {
      clique_events_ += static_cast<double>(files_[i].events.size());
    }
    lattice_events_ = 0;
    for (std::size_t i = clique_files_.size(); i < files_.size(); ++i) {
      lattice_events_ += static_cast<double>(files_[i].events.size());
    }

    for (const exp::Cell& cell : served_->cells()) {
      for (int rep = 0; rep < cell.repetitions; ++rep) {
        serve::CacheKey key =
            serve::train_rep_key(cell.scenario, cell.train, false, rep);
        std::optional<std::vector<unsigned char>> payload =
            setup_cache.lookup(key);
        if (!payload.has_value()) {
          throw std::runtime_error("setup cache lost a record");
        }
        records_.emplace_back(std::move(key), std::move(*payload));
      }
    }
    // The batch cache's shard directories exist before timing starts,
    // as they do in any cache that has been used once.
    serve::ResultCache batch_cache((root_ / "cache").string());
    for (const auto& [key, payload] : records_) {
      batch_cache.store(key, payload);
    }
  }

  Batch run_batch() override { return iteration(nullptr, nullptr); }

  Round run_traced() override {
    Round r;
    const Batch untraced = iteration(nullptr, nullptr);
    r.untraced_wall_s = untraced.wall_s;
    obs::Registry reg;
    obs::Profiler prof;
    const Batch traced = iteration(&reg, &prof);
    r.traced_wall_s = traced.wall_s;
    r.ops = untraced.ops + traced.ops;
    r.thrown = untraced.thrown;
    r.thrown.insert(r.thrown.end(), traced.thrown.begin(),
                    traced.thrown.end());
    r.checks = untraced.checks;
    r.checks.insert(r.checks.end(), traced.checks.begin(),
                    traced.checks.end());
    collect_spans(prof, r.spans_ns);
    for (const char* name :
         {"query.pages.decoded", "query.pages.skipped",
          "query.events.decoded", "serve.cache.store", "serve.cache.hit"}) {
      r.counts[name] = reg.value(name);
    }
    r.sums["serve.cache.read_bytes"] +=
        static_cast<double>(reg.value("serve.cache.read_bytes"));
    r.sums["serve.cache.write_bytes"] +=
        static_cast<double>(reg.value("serve.cache.write_bytes"));
    r.sums["serve.stores"] += static_cast<double>(records_.size());
    r.sums["trace.events_written"] += last_written_;
    r.sums["trace.bytes_written"] += last_bytes_;
    for (const auto& [name, value] : r.counts) {
      r.checks.push_back({"count." + name, std::to_string(value), r.ops});
    }
    return r;
  }

  [[nodiscard]] std::string shape() const override {
    return std::to_string(files_.size()) + " traces (" +
           std::to_string(clique_files_.size()) + " clique, " +
           std::to_string(lattice_files_.size()) + " " + kLatticeTopology +
           "; " + std::to_string(static_cast<std::int64_t>(
                      clique_events_ + lattice_events_)) +
           " events), " + std::to_string(std::size(kQueries)) +
           " queries, " + std::to_string(records_.size()) +
           " cache stores + served reps, on " +
           std::to_string(runner_.threads()) + " workers";
  }

 private:
  struct StoredFile {
    std::string name;
    trace::TraceMeta meta;
    std::vector<trace::TraceEvent> events;
  };

  /// One batch: the four legs, timed separately and together.  With a
  /// registry and profiler the library's trace-query and cache metrics
  /// and spans are on, and the benchmark adds trace.write spans.
  Batch iteration(obs::Registry* reg, obs::Profiler* prof) {
    Batch b;
    double timed = 0.0;
    double cpu = 0.0;
    double c0 = cpu_seconds();

    // Leg 1: re-encode every trace through TraceWriter.  The encoder
    // writes to memory: the leg measures the trace codec, not the disk.
    std::vector<std::string> rewritten(files_.size());
    double t0 = now_s();
    runner_.for_each(static_cast<int>(files_.size()), [&](int i) {
      const StoredFile& f = files_[static_cast<std::size_t>(i)];
      obs::ScopedSpan span(prof, "trace.write");
      std::ostringstream out;
      trace::TraceWriter w(out, f.meta);
      for (const trace::TraceEvent& e : f.events) {
        w.on_event(e);
      }
      w.close();
      rewritten[static_cast<std::size_t>(i)] = std::move(out).str();
    });
    const double write_s = now_s() - t0;
    timed += write_s;
    cpu += cpu_seconds() - c0;
    double written = 0;
    double bytes = 0;
    util::Fnv1a64 fleet;
    for (std::size_t i = 0; i < files_.size(); ++i) {
      fleet.add(files_[i].name).bytes(rewritten[i].data(), rewritten[i].size());
      written += static_cast<double>(files_[i].events.size());
      bytes += static_cast<double>(rewritten[i].size());
    }
    b.ops += static_cast<std::int64_t>(files_.size());
    b.checks.push_back({"trace.fleet", hex64(fleet.digest()),
                        static_cast<std::int64_t>(files_.size())});
    b.rates["trace_write_events_per_s"] = written / write_s;
    last_written_ = written;
    last_bytes_ = bytes;

    // Leg 2: the query mix.
    double query_s = 0.0;
    double covered = 0.0;
    for (const QuerySpec& q : kQueries) {
      const std::vector<trace::TraceFile>& files =
          q.fleet == QuerySpec::kClique
              ? clique_files_
              : (q.fleet == QuerySpec::kLattice ? lattice_files_ : all_files_);
      const double events =
          q.fleet == QuerySpec::kClique
              ? clique_events_
              : (q.fleet == QuerySpec::kLattice
                     ? lattice_events_
                     : clique_events_ + lattice_events_);
      trace::query::QueryOptions qopts;
      qopts.metrics = reg;
      qopts.profiler = prof;
      const std::unique_ptr<trace::query::Aggregation> agg =
          trace::query::make_aggregation(q.agg);
      const trace::query::QueryPredicate pred =
          trace::query::QueryPredicate::parse(q.where);
      ++b.ops;
      c0 = cpu_seconds();
      t0 = now_s();
      std::string outcome;
      bool ok = false;
      try {
        obs::ScopedSpan span(prof, "query.run");
        (void)trace::query::run_query(files, pred, *agg, runner_, qopts);
        ok = true;
      } catch (const std::exception& e) {
        // Messages carry source paths, so only the fact of the error is
        // compared against the reference.
        outcome = "error";
        b.thrown.emplace_back(std::string(q.name) + ": " + e.what(), 1);
      }
      const double dt = now_s() - t0;
      timed += dt;
      cpu += cpu_seconds() - c0;
      if (ok) {
        outcome = aggregation_digest(*agg);
        b.query_ms.push_back(dt * 1e3);
        query_s += dt;
        covered += events;
      }
      b.checks.push_back({q.name, outcome, 1});
    }
    b.rates["query_events_per_s"] = covered / query_s;

    // Leg 3: store every repetition record into a fresh cache: its
    // entries are removed, its shard directories kept.
    const fs::path cache_dir = root_ / "cache";
    for (const fs::directory_entry& e :
         fs::recursive_directory_iterator(cache_dir)) {
      if (e.is_regular_file()) {
        fs::remove(e.path());
      }
    }
    serve::ResultCache cache(cache_dir.string(), reg, prof);
    const auto stores = static_cast<std::int64_t>(records_.size());
    b.ops += stores;
    c0 = cpu_seconds();
    t0 = now_s();
    try {
      runner_.for_each(static_cast<int>(records_.size()), [&](int i) {
        const auto& [key, payload] = records_[static_cast<std::size_t>(i)];
        cache.store(key, payload);
      });
    } catch (const std::exception& e) {
      b.thrown.emplace_back(std::string("serve.cache.store: ") + e.what(),
                            stores);
    }
    const double store_s = now_s() - t0;
    timed += store_s;
    cpu += cpu_seconds() - c0;
    b.rates["cache_stores_per_s"] = static_cast<double>(stores) / store_s;

    // Leg 4: replay the campaign from the cache just filled.
    const std::int64_t served = served_->total_repetitions();
    b.ops += served;
    serve::CampaignServeOptions io;
    io.cache = &cache;
    io.forbid_compute = true;
    io.metrics = reg;
    io.profiler = prof;
    c0 = cpu_seconds();
    t0 = now_s();
    std::vector<exp::TrainCellStats> replayed;
    try {
      replayed = exp::run_train_campaign(*served_, tcfg_, runner_, io);
    } catch (const std::exception& e) {
      b.thrown.emplace_back(std::string("serve.replay: ") + e.what(), served);
    }
    const double replay_s = now_s() - t0;
    timed += replay_s;
    cpu += cpu_seconds() - c0;
    b.rates["served_reps_per_s"] = static_cast<double>(served) / replay_s;
    if (!replayed.empty()) {
      std::int64_t computed = 0;
      for (const exp::TrainCellStats& r : replayed) {
        computed += r.obs.computed;
      }
      write_campaign_csv(*served_, replayed, root_ / "warm.csv");
      const std::string csv = file_digest(read_file(root_ / "warm.csv"));
      // The replay must reproduce the live campaign without simulating.
      b.checks.push_back(
          {"serve.warm_csv",
           csv == live_csv_digest_ && computed == 0 ? csv : "differs:" + csv,
           served});
    }

    b.wall_s = timed;
    b.cpu_s = cpu;
    return b;
  }

  Params params_;
  fs::path root_;
  exp::Runner runner_;
  exp::TrainCampaignConfig tcfg_{};
  std::unique_ptr<exp::Campaign> served_;  ///< the campaign legs 3-4 serve
  std::string live_csv_digest_;
  std::vector<trace::TraceFile> clique_files_;
  std::vector<trace::TraceFile> lattice_files_;
  std::vector<trace::TraceFile> all_files_;
  std::vector<StoredFile> files_;
  double clique_events_ = 0.0;
  double lattice_events_ = 0.0;
  double last_written_ = 0.0;  ///< events re-encoded by the last batch
  double last_bytes_ = 0.0;    ///< bytes re-encoded by the last batch
  std::vector<std::pair<serve::CacheKey, std::vector<unsigned char>>>
      records_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "clique_trains", "lattice_trains", "stored_results"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Params& params) {
  if (params.workload == "clique_trains") {
    return std::make_unique<TrainWorkload>(params, false);
  }
  if (params.workload == "lattice_trains") {
    return std::make_unique<TrainWorkload>(params, true);
  }
  if (params.workload == "stored_results") {
    return std::make_unique<StoredWorkload>(params);
  }
  throw std::invalid_argument("unknown workload `" + params.workload + "`");
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

}  // namespace csmabw_bench

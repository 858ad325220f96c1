#include "exp/engine.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>

#include "core/scenario.hpp"
#include "serve/cache_key.hpp"
#include "serve/record.hpp"
#include "stats/rng.hpp"
#include "trace/writer.hpp"
#include "util/require.hpp"

namespace csmabw::exp {

namespace {

struct Shard {
  int cell_index = 0;
  int rep_begin = 0;
  int rep_end = 0;
};

/// The provenance header a recorded (cell, repetition) trace carries.
trace::TraceMeta trace_meta_for(const Cell& cell, int repetition) {
  trace::TraceMeta meta;
  meta.cell = cell.index;
  meta.repetition = repetition;
  meta.train_n = cell.train.n;
  meta.train_size = cell.train.size_bytes;
  meta.train_gap_ns = cell.train.gap.count();
  meta.seed = cell.scenario.seed;
  meta.label = cell.scenario_name;
  return meta;
}

std::vector<Shard> make_shards(const Campaign& campaign,
                               const TrainCampaignConfig& cfg) {
  CSMABW_REQUIRE(cfg.shard_size >= 1, "shard_size must be >= 1");
  std::vector<Shard> shards;
  for (const Cell& cell : campaign.cells()) {
    for (int begin = 0; begin < cell.repetitions; begin += cfg.shard_size) {
      shards.push_back(Shard{cell.index, begin,
                             std::min(begin + cfg.shard_size,
                                      cell.repetitions)});
    }
  }
  return shards;
}

void validate_serve_options(const serve::CampaignServeOptions& io) {
  CSMABW_REQUIRE(io.shard.count >= 1 && io.shard.index >= 0 &&
                     io.shard.index < io.shard.count,
                 "shard selection needs 0 <= index < count");
  CSMABW_REQUIRE(!io.forbid_compute || io.resume != nullptr ||
                     io.cache != nullptr,
                 "forbid_compute without a resume set or cache could "
                 "never produce a result");
}

/// The engine's metric handles, bound once per campaign run.  Every
/// handle is unbound (no-op) when the serve options carry no registry.
struct EngineObs {
  obs::Counter computed;     ///< exp.reps.computed
  obs::Counter cache_hit;    ///< exp.reps.cache_hit
  obs::Counter resumed;      ///< exp.reps.resumed
  obs::Counter sim_events;   ///< sim.events.processed
  obs::Counter sim_alloc;    ///< sim.slab.alloc
  obs::Gauge slot_capacity;  ///< sim.queue.slot_capacity (high-water)
  obs::Histogram rep_events;  ///< sim.rep.events (stable)
  obs::Histogram rep_wall;    ///< exp.rep.wall_ns (wall time)
  /// Whether per-repetition clock reads are worth making (an enabled
  /// registry or profiler is attached).
  bool timing = false;
};

EngineObs bind_engine_obs(const serve::CampaignServeOptions& io) {
  EngineObs m;
  if (io.metrics != nullptr) {
    m.computed = io.metrics->counter("exp.reps.computed");
    m.cache_hit = io.metrics->counter("exp.reps.cache_hit");
    m.resumed = io.metrics->counter("exp.reps.resumed");
    m.sim_events = io.metrics->counter("sim.events.processed");
    m.sim_alloc = io.metrics->counter("sim.slab.alloc");
    m.slot_capacity = io.metrics->gauge("sim.queue.slot_capacity");
    m.rep_events = io.metrics->histogram("sim.rep.events");
    m.rep_wall = io.metrics->histogram("exp.rep.wall_ns",
                                       obs::Determinism::kWallTime);
  }
  m.timing = m.rep_wall.bound() ||
             (io.profiler != nullptr && io.profiler->enabled());
  if (io.checkpoint != nullptr) {
    // Single-threaded setup point: route flush accounting to the same
    // registry/profiler before any worker can trigger a flush.
    io.checkpoint->bind_obs(io.metrics, io.profiler);
  }
  return m;
}

/// Serves a (cell, repetition) record: resume set first, then the
/// content-addressed cache, else nullopt (the caller simulates).  Hits
/// are counted, per-repetition progress is ticked as cached, and cache
/// hits are forwarded to the checkpoint so the persisted file converges
/// to full coverage.
template <typename Record>
std::optional<Record> serve_record(
    const serve::CampaignServeOptions& io, const EngineObs& m, int cell,
    int rep, const serve::CacheKey& key,
    bool (*decode)(const unsigned char*, std::size_t, Record*)) {
  Record record;
  if (io.resume != nullptr) {
    if (const std::vector<unsigned char>* payload =
            io.resume->find(cell, rep)) {
      CSMABW_REQUIRE(decode(payload->data(), payload->size(), &record),
                     "corrupt record for cell " + std::to_string(cell) +
                         " rep " + std::to_string(rep) +
                         " in the resume/merge set");
      m.resumed.add();
      if (io.progress != nullptr) {
        io.progress->tick_cached();
      }
      return record;
    }
  }
  if (io.cache != nullptr) {
    if (std::optional<std::vector<unsigned char>> payload =
            io.cache->lookup(key)) {
      // A payload that fails to decode is a corrupt entry: treat as a
      // miss, the recompute below overwrites it.
      if (decode(payload->data(), payload->size(), &record)) {
        m.cache_hit.add();
        if (io.checkpoint != nullptr) {
          io.checkpoint->add(cell, rep, std::move(*payload));
        }
        if (io.progress != nullptr) {
          io.progress->tick_cached();
        }
        return record;
      }
    }
  }
  return std::nullopt;
}

/// Persists a freshly computed record to the cache and checkpoint and
/// ticks it as computed work.  `encode(payload)` appends the record's
/// bytes; it only runs when a cache or checkpoint will keep them.
template <typename Encode>
void persist_record(const serve::CampaignServeOptions& io, const EngineObs& m,
                    int cell, int rep, const serve::CacheKey& key,
                    Encode&& encode) {
  if (io.cache != nullptr || io.checkpoint != nullptr) {
    std::vector<unsigned char> payload;
    encode(payload);
    if (io.cache != nullptr) {
      io.cache->store(key, payload);
    }
    if (io.checkpoint != nullptr) {
      io.checkpoint->add(cell, rep, std::move(payload));
    }
  }
  m.computed.add();
  if (io.progress != nullptr) {
    io.progress->tick();
  }
}

[[noreturn]] void missing_record(int cell, int rep) {
  throw util::PreconditionError(
      "merge/serve: no record for cell " + std::to_string(cell) + " rep " +
      std::to_string(rep) +
      " and computing is forbidden — are all shard files present and "
      "complete?");
}

}  // namespace

void TrainCellStats::add(const serve::TrainRepRecord& record) {
  if (record.dropped) {
    ++dropped;
    return;
  }
  analyzer.add_repetition(record.access_delays_s);
  output_gap_s.add(record.output_gap_s);
  CSMABW_REQUIRE(record.queue_at_arrival.size() >= queue_at_arrival.size(),
                 "served record has fewer queue samples than the campaign "
                 "config expects");
  for (std::size_t i = 0; i < queue_at_arrival.size(); ++i) {
    queue_at_arrival[i].add(record.queue_at_arrival[i]);
  }
  ++used;
}

void TrainCellStats::merge(const TrainCellStats& other) {
  CSMABW_REQUIRE(other.queue_at_arrival.size() == queue_at_arrival.size(),
                 "merging cell stats with different queue prefixes");
  analyzer.merge(other.analyzer);
  output_gap_s.merge(other.output_gap_s);
  for (std::size_t i = 0; i < queue_at_arrival.size(); ++i) {
    queue_at_arrival[i].merge(other.queue_at_arrival[i]);
  }
  used += other.used;
  dropped += other.dropped;
  obs.merge(other.obs);
}

serve::TrainRepRecord train_rep_record(core::TrainRun run) {
  serve::TrainRepRecord record;
  record.dropped = run.any_dropped;
  if (!run.any_dropped) {
    record.access_delays_s = run.access_delays_s();
    record.output_gap_s = run.output_gap_s();
    record.queue_at_arrival = std::move(run.contender_queue_at_arrival);
  }
  return record;
}

core::TransientConfig train_transient_config(int train_length,
                                             const TrainCampaignConfig& cfg) {
  core::TransientConfig tc;
  tc.train_length = train_length;
  tc.ks_prefix = std::min(cfg.ks_prefix, train_length);
  tc.steady_tail = cfg.steady_tail > 0
                       ? std::min(cfg.steady_tail, train_length)
                       : std::max(1, train_length / 2);
  for (int i : cfg.raw_indices) {
    if (i < train_length) {
      tc.extra_raw_indices.push_back(i);
    }
  }
  return tc;
}

std::uint64_t method_rep_seed(std::uint64_t campaign_seed, int cell_index,
                              int repetition) {
  return stats::Rng(Campaign::cell_seed(campaign_seed, cell_index))
      .fork("method-rep")
      .fork(static_cast<std::uint64_t>(repetition))
      .seed();
}

int count_method_runs(const Campaign& campaign, serve::ShardSel shard) {
  // Jobs j with j % count == index among [0, total).
  return static_cast<int>((campaign.total_repetitions() + shard.count - 1 -
                           shard.index) /
                          shard.count);
}

std::vector<MethodRun> run_method_campaign(const Campaign& campaign,
                                           const MethodCampaignConfig& cfg,
                                           const Runner& runner) {
  return run_method_campaign(campaign, cfg, runner,
                             serve::CampaignServeOptions{});
}

std::uint64_t method_campaign_fingerprint(const Campaign& campaign) {
  return serve::campaign_fingerprint(campaign, serve::CampaignKind::kMethod,
                                     "");
}

std::vector<MethodRun> run_method_campaign(
    const Campaign& campaign, const MethodCampaignConfig& cfg,
    const Runner& runner, const serve::CampaignServeOptions& io) {
  validate_serve_options(io);
  const EngineObs m = bind_engine_obs(io);
  CSMABW_REQUIRE(io.cache == nullptr || !cfg.make_transport,
                 "the result cache content-addresses the cell's scenario; "
                 "a custom make_transport is invisible to the key — drop "
                 "the cache or the custom transport");
  const core::MethodRegistry& registry =
      cfg.registry != nullptr ? *cfg.registry : core::MethodRegistry::global();

  struct Job {
    int cell_index = 0;
    int repetition = 0;
  };
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(campaign.total_repetitions()));
  for (const Cell& cell : campaign.cells()) {
    CSMABW_REQUIRE(!cell.method.empty(),
                   "method campaign needs a method spec on every cell "
                   "(set the SweepSpec methods axis)");
    (void)registry.create(cell.method);  // fail fast, before any work runs
    for (int rep = 0; rep < cell.repetitions; ++rep) {
      jobs.push_back(Job{cell.index, rep});
    }
  }

  // One job per repetition; runner.map places results by job index, so
  // the returned order is (cell, repetition) for any thread count.
  std::vector<MethodRun> runs =
      runner.map(static_cast<int>(jobs.size()), [&](int j) {
        const Job& job = jobs[static_cast<std::size_t>(j)];
        const Cell& cell =
            campaign.cells()[static_cast<std::size_t>(job.cell_index)];
        MethodRun run;
        run.cell_index = job.cell_index;
        run.repetition = job.repetition;
        if (!io.shard.selects(j)) {
          return run;  // another process's slice; placeholder entry
        }
        const std::uint64_t seed = method_rep_seed(campaign.campaign_seed(),
                                                   job.cell_index,
                                                   job.repetition);
        serve::CacheKey key;
        if (io.cache != nullptr) {  // keys are only ever used by the cache
          key = serve::method_rep_key(cell.scenario, cell.method, seed,
                                      job.repetition);
        }
        if (std::optional<core::MeasurementReport> served =
                serve_record<core::MeasurementReport>(
                    io, m, job.cell_index, job.repetition, key,
                    &serve::decode_method_record)) {
          run.report = std::move(*served);
          run.served = true;
          return run;
        }
        if (io.forbid_compute) {
          missing_record(job.cell_index, job.repetition);
        }
        obs::ScopedSpan span(io.profiler, "exp.rep");
        span.arg("cell", job.cell_index);
        span.arg("rep", job.repetition);
        const std::int64_t rep_start = m.timing ? obs::now_ns() : 0;
        std::unique_ptr<core::ProbeTransport> transport;
        if (cfg.make_transport) {
          transport = cfg.make_transport(cell, seed);
        } else {
          core::ScenarioConfig scenario = cell.scenario;
          scenario.seed = seed;
          transport = std::make_unique<core::SimTransport>(scenario);
        }
        CSMABW_REQUIRE(transport != nullptr, "make_transport returned null");
        const std::unique_ptr<core::MeasurementMethod> method =
            registry.create(cell.method);
        run.report = method->run(*transport, seed);
        if (m.timing) {
          run.wall_ns = obs::now_ns() - rep_start;
          m.rep_wall.observe(run.wall_ns);
        }
        persist_record(io, m, job.cell_index, job.repetition, key,
                       [&run](std::vector<unsigned char>& payload) {
                         serve::encode_method_record(run.report, payload);
                       });
        return run;
      });
  if (io.checkpoint != nullptr) {
    io.checkpoint->flush();
  }
  return runs;
}

int count_train_shards(const Campaign& campaign,
                       const TrainCampaignConfig& cfg) {
  return static_cast<int>(make_shards(campaign, cfg).size());
}

std::int64_t count_train_reps(const Campaign& campaign,
                              const TrainCampaignConfig& cfg,
                              serve::ShardSel shard) {
  const std::vector<Shard> shards = make_shards(campaign, cfg);
  std::int64_t reps = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shard.selects(static_cast<int>(s))) {
      reps += shards[s].rep_end - shards[s].rep_begin;
    }
  }
  return reps;
}

std::vector<TrainCellStats> run_train_campaign(const Campaign& campaign,
                                               const TrainCampaignConfig& cfg,
                                               const Runner& runner) {
  return run_train_campaign(campaign, cfg, runner,
                            serve::CampaignServeOptions{});
}

std::uint64_t train_campaign_fingerprint(const Campaign& campaign,
                                         const TrainCampaignConfig& cfg) {
  // shard_size shapes the accumulation (and therefore floating-point
  // association) order; sample_contender_queue shapes record content.
  // Analysis knobs (ks_prefix, steady_tail, raw_indices, queue_prefix)
  // post-process the raw records and stay out of the fingerprint.
  std::string extra = "shard_size=" + std::to_string(cfg.shard_size) +
                      ";sample_queue=" +
                      (cfg.sample_contender_queue ? "1" : "0");
  return serve::campaign_fingerprint(campaign, serve::CampaignKind::kTrain,
                                     extra);
}

namespace {

/// A finished repetition on its way into its shard's accumulator.
struct RepOutcome {
  serve::TrainRepRecord record;
  bool served = false;
  std::int64_t sim_events = 0;  ///< computed repetitions only
  std::int64_t wall_ns = 0;     ///< computed repetitions, when timed
};

/// Per-cell state shared by the cell's shards.
struct CellRun {
  /// Built by the cell's first computed repetition, shared read-only and
  /// released once the cell's last shard is folded.
  std::once_flag built;
  std::optional<core::Scenario> scenario;
  std::atomic<int> shards_left{0};
  int reps = 0;  ///< repetitions in this process's shards
};

/// An empty accumulator for `cell`, sized for `reps` repetitions so that
/// accumulating them never reallocates.
TrainCellStats cell_stats(const Cell& cell, const TrainCampaignConfig& cfg,
                          int reps) {
  TrainCellStats stats(train_transient_config(cell.train.n, cfg));
  stats.analyzer.reserve(reps);
  if (cfg.sample_contender_queue) {
    stats.queue_at_arrival.resize(
        static_cast<std::size_t>(std::min(cfg.queue_prefix, cell.train.n)));
  }
  return stats;
}

/// A claimed shard.  Finished repetitions wait in `slots` until every
/// earlier one has been folded into `stats`; the slots are freed once
/// the last one is.
struct ShardRun {
  ShardRun(const Shard& shard, const Cell& cell,
           const TrainCampaignConfig& cfg)
      : next(shard.rep_begin),
        end(shard.rep_end),
        slots(static_cast<std::size_t>(end - next)),
        stats(cell_stats(cell, cfg, end - next)) {}

  /// The unstarted repetitions [next, end); guarded by the pool lock.
  int next;
  int end;
  std::mutex mu;  ///< guards the members below
  std::vector<std::optional<RepOutcome>> slots;  ///< by rep - rep_begin
  std::size_t folded = 0;
  TrainCellStats stats;
};

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

}  // namespace

std::vector<TrainCellStats> run_train_campaign(
    const Campaign& campaign, const TrainCampaignConfig& cfg,
    const Runner& runner, const serve::CampaignServeOptions& io) {
  validate_serve_options(io);
  const EngineObs m = bind_engine_obs(io);
  const std::vector<Shard> shards = make_shards(campaign, cfg);
  const std::string& trace_dir = campaign.trace_dir();
  if (!trace_dir.empty()) {
    // Once, before the pool starts: workers only create files inside.
    std::filesystem::create_directories(trace_dir);
  }
  const auto cell_of = [&](std::size_t s) -> const Cell& {
    return campaign.cells()[static_cast<std::size_t>(shards[s].cell_index)];
  };

  // The shard is the unit of accumulation, the repetition the unit of
  // scheduling.  A worker claims a whole unclaimed shard and runs it
  // front to back; once every shard is claimed, idle workers steal
  // unstarted repetitions from the back of the running shard with the
  // most left, so the slowest shard no longer sets the wall time.  A
  // finished repetition goes into its shard's reorder slot, and whoever
  // fills the next slot in order folds the ready prefix into the shard's
  // accumulator.  Every shard thus accumulates its repetitions in order,
  // as a serial run would; merging in shard order then keeps raw-sample
  // order identical to a serial run and the merged moments independent
  // of which worker ran which repetition.  Repetitions served from the
  // resume set or the cache feed the accumulators the exact double bits
  // a live run would have, so where a record came from never shows in
  // the output.
  std::vector<std::unique_ptr<ShardRun>> runs(shards.size());  // claimed
  std::vector<CellRun> cells(campaign.cells().size());
  std::vector<std::size_t> todo;  // this process's shards, in order
  std::int64_t todo_reps = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (io.shard.selects(static_cast<int>(s))) {
      todo.push_back(s);
      const int reps = shards[s].rep_end - shards[s].rep_begin;
      todo_reps += reps;
      CellRun& cr = cells[static_cast<std::size_t>(shards[s].cell_index)];
      ++cr.shards_left;
      cr.reps += reps;
    }
  }
  // The runner's progress, if any, counts work shards: other processes'
  // shards tick here, this process's as each one is folded.
  Progress* const shard_progress = runner.progress();
  if (shard_progress != nullptr && todo.size() < shards.size()) {
    shard_progress->tick(
        static_cast<std::int64_t>(shards.size() - todo.size()));
  }

  // Guards the claim cursor, every claimed shard's unstarted range and
  // the list of claimed shards that still have unstarted repetitions.
  std::mutex pool_mu;
  std::size_t next_todo = 0;
  std::vector<std::size_t> stealable;
  bool aborted = false;

  // Sets (s, rep) to the next repetition for a worker that owns shard
  // `own` (kNoShard: none); false once no unstarted repetition is left.
  const auto claim = [&](std::size_t& own, std::size_t& s, int& rep) {
    const std::scoped_lock lock(pool_mu);
    if (aborted) {
      return false;
    }
    if (own != kNoShard && runs[own]->next == runs[own]->end) {
      own = kNoShard;  // finished, or its tail was stolen
    }
    if (own == kNoShard && next_todo < todo.size()) {
      own = todo[next_todo++];
      runs[own] = std::make_unique<ShardRun>(shards[own], cell_of(own), cfg);
      stealable.push_back(own);
    }
    const auto left = [&](std::size_t v) {
      return runs[v]->end - runs[v]->next;
    };
    if (own != kNoShard) {
      s = own;
      rep = runs[s]->next++;
    } else if (!stealable.empty()) {
      s = *std::max_element(
          stealable.begin(), stealable.end(),
          [&](std::size_t a, std::size_t b) { return left(a) < left(b); });
      rep = --runs[s]->end;
    } else {
      return false;
    }
    if (left(s) == 0) {
      stealable.erase(std::find(stealable.begin(), stealable.end(), s));
    }
    return true;
  };

  const auto run_rep = [&](std::size_t s, int rep) {
    const Cell& cell = cell_of(s);
    RepOutcome out;
    serve::CacheKey key;
    if (io.cache != nullptr) {  // keys are only ever used by the cache
      key = serve::train_rep_key(cell.scenario, cell.train,
                                 cfg.sample_contender_queue, rep);
    }
    if (std::optional<serve::TrainRepRecord> served =
            serve_record<serve::TrainRepRecord>(io, m, cell.index, rep, key,
                                                &serve::decode_train_record)) {
      out.record = std::move(*served);
      out.served = true;
      return out;
    }
    if (io.forbid_compute) {
      missing_record(cell.index, rep);
    }
    obs::ScopedSpan span(io.profiler, "exp.rep");
    span.arg("cell", cell.index);
    span.arg("rep", rep);
    const std::int64_t rep_start = m.timing ? obs::now_ns() : 0;
    // Built lazily: a fully served cell never constructs the scenario.
    CellRun& cr = cells[static_cast<std::size_t>(cell.index)];
    std::call_once(cr.built, [&] {
      obs::ScopedSpan build(io.profiler, "exp.scenario.build");
      cr.scenario.emplace(cell.scenario);
    });
    std::unique_ptr<trace::TraceWriter> writer;
    if (!trace_dir.empty()) {
      writer = std::make_unique<trace::TraceWriter>(
          trace::train_trace_path(trace_dir, cell.index, rep),
          trace_meta_for(cell, rep));
    }
    core::TrainRun run =
        cr.scenario->run_train(cell.train, static_cast<std::uint64_t>(rep),
                               cfg.sample_contender_queue, writer.get(),
                               io.metrics);
    if (writer != nullptr) {
      writer->close();  // surface write errors here, not in ~TraceWriter
    }
    out.sim_events = static_cast<std::int64_t>(run.sim_events);
    m.sim_events.add(out.sim_events);
    m.sim_alloc.add(static_cast<std::int64_t>(run.sim_allocations));
    m.slot_capacity.sample(static_cast<std::int64_t>(run.sim_slot_capacity));
    m.rep_events.observe(out.sim_events);
    out.record = train_rep_record(std::move(run));
    span.arg("events", out.sim_events);
    if (m.timing) {
      out.wall_ns = obs::now_ns() - rep_start;
      m.rep_wall.observe(out.wall_ns);
    }
    persist_record(io, m, cell.index, rep, key,
                   [&out](std::vector<unsigned char>& payload) {
                     serve::encode_train_record(out.record, payload);
                   });
    return out;
  };

  // Files a finished repetition and folds the ready prefix; whoever
  // folds a shard's last repetition retires the shard and, with the
  // cell's last shard, the cell's scenario.
  const auto deposit = [&](std::size_t s, int rep, RepOutcome out) {
    ShardRun& run = *runs[s];
    {
      const std::scoped_lock lock(run.mu);
      run.slots[static_cast<std::size_t>(rep - shards[s].rep_begin)] =
          std::move(out);
      while (run.folded < run.slots.size() && run.slots[run.folded]) {
        const RepOutcome& done = *run.slots[run.folded];
        if (done.served) {
          ++run.stats.obs.cached;
        } else {
          ++run.stats.obs.computed;
          run.stats.obs.sim_events += done.sim_events;
          run.stats.obs.wall_ns += done.wall_ns;
        }
        run.stats.add(done.record);
        run.slots[run.folded].reset();
        ++run.folded;
      }
      if (run.folded < run.slots.size()) {
        return;
      }
      run.slots = {};
    }
    CellRun& cr = cells[static_cast<std::size_t>(shards[s].cell_index)];
    if (--cr.shards_left == 0) {
      cr.scenario.reset();
    }
    if (shard_progress != nullptr) {
      shard_progress->tick();
    }
  };

  // The caller's runner sizes the pool; its progress is ticked per
  // folded shard above, not per worker.
  const Runner pool(RunnerOptions{runner.threads(), nullptr});
  pool.for_each(
      static_cast<int>(std::min<std::int64_t>(runner.threads(), todo_reps)),
      [&](int) {
        std::size_t own = kNoShard;
        std::size_t s = 0;
        int rep = 0;
        try {
          while (claim(own, s, rep)) {
            deposit(s, rep, run_rep(s, rep));
          }
        } catch (...) {
          const std::scoped_lock lock(pool_mu);
          aborted = true;  // the other workers stop at their next claim
          throw;
        }
      });
  if (io.checkpoint != nullptr) {
    io.checkpoint->flush();
  }

  obs::ScopedSpan merge_span(io.profiler, "exp.merge");
  std::vector<TrainCellStats> merged;
  merged.reserve(campaign.cells().size());
  for (const Cell& cell : campaign.cells()) {
    const int reps = cells[static_cast<std::size_t>(cell.index)].reps;
    merged.push_back(cell_stats(cell, cfg, reps));
    merged.back().obs.cell = cell.index;
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (runs[s] != nullptr) {  // null: another process's slice
      merged[static_cast<std::size_t>(shards[s].cell_index)].merge(
          runs[s]->stats);
    }
  }
  return merged;
}

}  // namespace csmabw::exp

#include "exp/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "serve/result_cache.hpp"
#include "serve/shard_file.hpp"
#include "stats/ensemble.hpp"
#include "trace/writer.hpp"
#include "util/require.hpp"

namespace csmabw::exp {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.campaign_seed = 21;
  spec.contender_counts = {1};
  spec.cross_mbps = {2.0, 4.0};
  spec.train_lengths = {40};
  spec.probe_mbps = {5.0};
  spec.repetitions = 24;
  return spec;
}

std::vector<TrainCellStats> run_with_threads(const Campaign& campaign,
                                             const TrainCampaignConfig& cfg,
                                             int threads) {
  RunnerOptions opts;
  opts.threads = threads;
  return run_train_campaign(campaign, cfg, Runner(opts));
}

TEST(TrainCampaign, ThreadCountDoesNotChangeResults) {
  const Campaign campaign(small_spec());
  TrainCampaignConfig cfg;
  cfg.ks_prefix = 4;
  cfg.shard_size = 8;
  const auto serial = run_with_threads(campaign, cfg, 1);
  const auto parallel = run_with_threads(campaign, cfg, 4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c].used, parallel[c].used);
    EXPECT_EQ(serial[c].dropped, parallel[c].dropped);
    // Bit-identical: the shard decomposition and merge order are fixed,
    // only the worker that runs each shard varies.
    EXPECT_EQ(serial[c].output_gap_s.mean(), parallel[c].output_gap_s.mean());
    EXPECT_EQ(serial[c].analyzer.steady_mean(),
              parallel[c].analyzer.steady_mean());
    for (int i = 0; i < 40; ++i) {
      EXPECT_EQ(serial[c].analyzer.mean_at(i),
                parallel[c].analyzer.mean_at(i));
    }
    for (int i = 0; i < cfg.ks_prefix; ++i) {
      const auto a = serial[c].analyzer.sample_at(i);
      const auto b = parallel[c].analyzer.sample_at(i);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k], b[k]);
      }
    }
  }
}

TEST(TrainCampaign, ScenarioAxisIsThreadCountInvariant) {
  // The determinism contract extends to scenario-axis campaigns,
  // including bursty (onoff) and saturated heterogeneous-rate cells.
  SweepSpec spec;
  spec.campaign_seed = 77;
  spec.scenarios = {"paper_fig2",
                    "contenders=1x onoff:rate=3M,duty=0.3,burst=20ms",
                    "rate_anomaly"};
  spec.train_lengths = {30};
  spec.repetitions = 12;
  const Campaign campaign(spec);
  TrainCampaignConfig cfg;
  cfg.shard_size = 4;
  const auto serial = run_with_threads(campaign, cfg, 1);
  const auto parallel = run_with_threads(campaign, cfg, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c].used, parallel[c].used);
    EXPECT_EQ(serial[c].dropped, parallel[c].dropped);
    if (serial[c].used > 0) {
      EXPECT_EQ(serial[c].output_gap_s.mean(),
                parallel[c].output_gap_s.mean());
      EXPECT_EQ(serial[c].analyzer.mean_at(0),
                parallel[c].analyzer.mean_at(0));
    }
  }
}

TEST(TrainCampaign, ShardMergeMatchesSerialAccumulation) {
  const Campaign campaign(small_spec());
  TrainCampaignConfig cfg;
  cfg.ks_prefix = 3;
  cfg.shard_size = 7;  // deliberately does not divide the 24 repetitions
  const auto engine = run_with_threads(campaign, cfg, 2);

  for (const Cell& cell : campaign.cells()) {
    // Reference: the legacy hand-rolled serial loop.
    core::TransientConfig tc;
    tc.train_length = cell.train.n;
    tc.ks_prefix = 3;
    tc.steady_tail = cell.train.n / 2;
    core::TransientAnalyzer reference(tc);
    const core::Scenario scenario(cell.scenario);
    int used = 0;
    int dropped = 0;
    for (int rep = 0; rep < cell.repetitions; ++rep) {
      const core::TrainRun run =
          scenario.run_train(cell.train, static_cast<std::uint64_t>(rep));
      if (run.any_dropped) {
        ++dropped;
        continue;
      }
      reference.add_repetition(run.access_delays_s());
      ++used;
    }

    const TrainCellStats& merged =
        engine[static_cast<std::size_t>(cell.index)];
    EXPECT_EQ(merged.used, used);
    EXPECT_EQ(merged.dropped, dropped);
    ASSERT_GT(used, 0);
    // Raw samples are order-identical; merged moments agree to
    // floating-point association error.
    for (int i = 0; i < 3; ++i) {
      const auto a = reference.sample_at(i);
      const auto b = merged.analyzer.sample_at(i);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k], b[k]);
      }
      EXPECT_EQ(merged.analyzer.ks_at(i), reference.ks_at(i));
    }
    for (int i = 0; i < cell.train.n; ++i) {
      EXPECT_NEAR(merged.analyzer.mean_at(i), reference.mean_at(i),
                  1e-12 * std::abs(reference.mean_at(i)));
    }
    EXPECT_NEAR(merged.analyzer.steady_mean(), reference.steady_mean(),
                1e-12 * reference.steady_mean());
  }
}

TEST(TrainCampaign, QueueSamplingStatsPerIndex) {
  SweepSpec spec = small_spec();
  spec.cross_mbps = {4.0};
  spec.repetitions = 8;
  const Campaign campaign(spec);
  TrainCampaignConfig cfg;
  cfg.sample_contender_queue = true;
  cfg.queue_prefix = 10;
  cfg.shard_size = 3;
  const auto results = run_with_threads(campaign, cfg, 2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].queue_at_arrival.size(), 10u);
  EXPECT_EQ(results[0].queue_at_arrival[0].count(), results[0].used);
}

TEST(TrainCampaign, CountTrainShardsCoversAllRepetitions) {
  const Campaign campaign(small_spec());  // 2 cells x 24 reps
  TrainCampaignConfig cfg;
  cfg.shard_size = 7;
  EXPECT_EQ(count_train_shards(campaign, cfg), 2 * 4);
  cfg.shard_size = 64;
  EXPECT_EQ(count_train_shards(campaign, cfg), 2);
}

TEST(RunCells, MapsArbitraryPerCellWork) {
  const Campaign campaign(small_spec());
  RunnerOptions opts;
  opts.threads = 2;
  const Runner runner(opts);
  const auto rates = run_cells(campaign, runner, [](const Cell& cell) {
    return cell.cross_mbps * 2.0;
  });
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 4.0);
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
}

TEST(EnsembleSeries, MergeAppendsShardsInOrder) {
  stats::EnsembleSeries a(3, 2, 1);
  stats::EnsembleSeries b(3, 2, 1);
  a.add_repetition(std::vector<double>{1.0, 2.0, 3.0});
  b.add_repetition(std::vector<double>{4.0, 5.0, 6.0});
  b.add_repetition(std::vector<double>{7.0, 8.0, 9.0});
  a.merge(b);
  EXPECT_EQ(a.repetitions(), 3);
  EXPECT_DOUBLE_EQ(a.mean_at(0), 4.0);
  ASSERT_EQ(a.raw_at(0).size(), 3u);
  EXPECT_DOUBLE_EQ(a.raw_at(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(a.raw_at(0)[1], 4.0);
  EXPECT_DOUBLE_EQ(a.raw_at(0)[2], 7.0);
  ASSERT_EQ(a.steady_pool().size(), 3u);
  EXPECT_DOUBLE_EQ(a.steady_pool()[2], 9.0);

  stats::EnsembleSeries mismatched(3, 1, 1);
  EXPECT_THROW(a.merge(mismatched), util::PreconditionError);
}

TEST(EnsembleSeries, ReserveLeavesValuesUnchanged) {
  stats::EnsembleSeries plain(3, 2, 2, {2});
  stats::EnsembleSeries reserved(3, 2, 2, {2});
  reserved.reserve(4);
  for (double base : {1.0, 10.0, 100.0}) {
    const std::vector<double> rep{base, base + 1, base + 2};
    plain.add_repetition(rep);
    reserved.add_repetition(rep);
  }
  const stats::EnsembleSeries shard = plain;
  reserved.merge(shard);  // past the reservation: storage grows as usual
  plain.merge(shard);
  EXPECT_EQ(reserved.repetitions(), 6);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(reserved.mean_at(i), plain.mean_at(i));
  }
  EXPECT_TRUE(std::ranges::equal(reserved.raw_at(1), plain.raw_at(1)));
  EXPECT_TRUE(std::ranges::equal(reserved.raw_at(2), plain.raw_at(2)));
  EXPECT_TRUE(
      std::ranges::equal(reserved.steady_pool(), plain.steady_pool()));
}

TEST(EnsembleSeries, SparseExtraRawIndices) {
  stats::EnsembleSeries a(5, 1, 1, {3});
  stats::EnsembleSeries b(5, 1, 1, {3});
  a.add_repetition(std::vector<double>{1, 2, 3, 4, 5});
  b.add_repetition(std::vector<double>{6, 7, 8, 9, 10});
  a.merge(b);
  ASSERT_EQ(a.raw_at(3).size(), 2u);
  EXPECT_DOUBLE_EQ(a.raw_at(3)[0], 4.0);
  EXPECT_DOUBLE_EQ(a.raw_at(3)[1], 9.0);
  EXPECT_THROW((void)a.raw_at(2), util::PreconditionError);

  stats::EnsembleSeries mismatched(5, 1, 1, {4});
  EXPECT_THROW(a.merge(mismatched), util::PreconditionError);
  // Extra indices inside the prefix are redundant and dropped.
  stats::EnsembleSeries redundant(5, 2, 1, {0, 3});
  redundant.add_repetition(std::vector<double>{1, 2, 3, 4, 5});
  EXPECT_EQ(redundant.raw_at(0).size(), 1u);
  EXPECT_EQ(redundant.raw_at(3).size(), 1u);
}

TEST(TrainCampaign, SparseRawIndicesRetainLateSamples) {
  SweepSpec spec = small_spec();
  spec.cross_mbps = {2.0};
  spec.repetitions = 6;
  const Campaign campaign(spec);
  TrainCampaignConfig cfg;
  cfg.ks_prefix = 1;
  cfg.raw_indices = {30, 99};  // 99 exceeds the 40-packet train: dropped
  cfg.shard_size = 4;
  const auto results = run_with_threads(campaign, cfg, 2);
  ASSERT_EQ(results.size(), 1u);
  const auto& analyzer = results[0].analyzer;
  EXPECT_EQ(analyzer.sample_at(30).size(),
            static_cast<std::size_t>(results[0].used));
  EXPECT_THROW((void)analyzer.sample_at(20), util::PreconditionError);
}


// --- repetition-granular scheduling -----------------------------------
//
// Workers claim whole shards but steal single unstarted repetitions from
// the back of running shards; every shard still folds its repetitions in
// order.  The merged statistics must equal the plainest serial loop bit
// for bit, at any thread count and whoever ran which repetition.

namespace fs = std::filesystem;

constexpr int kThreadCounts[] = {1, 2, 3, 8};

TrainCampaignConfig sched_config(int shard_size) {
  TrainCampaignConfig cfg;
  cfg.ks_prefix = 3;
  cfg.shard_size = shard_size;
  cfg.sample_contender_queue = true;
  cfg.queue_prefix = 5;
  return cfg;
}

/// The engine's accumulation contract as a serial loop: each shard of
/// `shard_size` repetitions accumulates them in order, and the shards
/// merge into their cell in shard order.
std::vector<TrainCellStats> serial_reference(const Campaign& campaign,
                                             const TrainCampaignConfig& cfg) {
  std::vector<TrainCellStats> out;
  for (const Cell& cell : campaign.cells()) {
    const core::TransientConfig tc = train_transient_config(cell.train.n, cfg);
    const auto queue = static_cast<std::size_t>(
        cfg.sample_contender_queue ? std::min(cfg.queue_prefix, cell.train.n)
                                   : 0);
    TrainCellStats merged(tc);
    merged.queue_at_arrival.resize(queue);
    const core::Scenario scenario(cell.scenario);
    for (int begin = 0; begin < cell.repetitions; begin += cfg.shard_size) {
      TrainCellStats shard(tc);
      shard.queue_at_arrival.resize(queue);
      const int end = std::min(begin + cfg.shard_size, cell.repetitions);
      for (int rep = begin; rep < end; ++rep) {
        const core::TrainRun run =
            scenario.run_train(cell.train, static_cast<std::uint64_t>(rep),
                               cfg.sample_contender_queue);
        if (run.any_dropped) {
          ++shard.dropped;
          continue;
        }
        shard.analyzer.add_repetition(run.access_delays_s());
        shard.output_gap_s.add(run.output_gap_s());
        for (std::size_t i = 0; i < queue; ++i) {
          shard.queue_at_arrival[i].add(run.contender_queue_at_arrival[i]);
        }
        ++shard.used;
      }
      merged.analyzer.merge(shard.analyzer);
      merged.output_gap_s.merge(shard.output_gap_s);
      for (std::size_t i = 0; i < queue; ++i) {
        merged.queue_at_arrival[i].merge(shard.queue_at_arrival[i]);
      }
      merged.used += shard.used;
      merged.dropped += shard.dropped;
    }
    out.push_back(std::move(merged));
  }
  return out;
}

void expect_identical(const std::vector<TrainCellStats>& want,
                      const std::vector<TrainCellStats>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    const TrainCellStats& a = want[c];
    const TrainCellStats& b = got[c];
    EXPECT_EQ(a.used, b.used);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(b.obs.computed + b.obs.cached, a.used + a.dropped);
    EXPECT_EQ(a.output_gap_s.count(), b.output_gap_s.count());
    EXPECT_EQ(a.output_gap_s.mean(), b.output_gap_s.mean());
    EXPECT_EQ(a.output_gap_s.stddev(), b.output_gap_s.stddev());
    EXPECT_EQ(a.analyzer.repetitions(), b.analyzer.repetitions());
    EXPECT_EQ(a.analyzer.steady_mean(), b.analyzer.steady_mean());
    for (int i = 0; i < a.analyzer.config().train_length; ++i) {
      EXPECT_EQ(a.analyzer.mean_at(i), b.analyzer.mean_at(i));
    }
    for (int i = 0; i < a.analyzer.config().ks_prefix; ++i) {
      const auto sa = a.analyzer.sample_at(i);
      const auto sb = b.analyzer.sample_at(i);
      EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()));
    }
    const auto pa = a.analyzer.steady_sample();
    const auto pb = b.analyzer.steady_sample();
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
    ASSERT_EQ(a.queue_at_arrival.size(), b.queue_at_arrival.size());
    for (std::size_t i = 0; i < a.queue_at_arrival.size(); ++i) {
      EXPECT_EQ(a.queue_at_arrival[i].count(), b.queue_at_arrival[i].count());
      EXPECT_EQ(a.queue_at_arrival[i].mean(), b.queue_at_arrival[i].mean());
      EXPECT_EQ(a.queue_at_arrival[i].stddev(),
                b.queue_at_arrival[i].stddev());
    }
  }
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("csmabw-exp-engine-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(RepScheduling, UnevenShardsMatchSerialAccumulation) {
  const Campaign campaign(small_spec());  // 2 cells x 24 reps
  const TrainCampaignConfig cfg = sched_config(7);  // 4 shards per cell
  const auto reference = serial_reference(campaign, cfg);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    expect_identical(reference, run_with_threads(campaign, cfg, threads));
  }
}

TEST(RepScheduling, FewerShardsThanWorkersMatchSerialAccumulation) {
  SweepSpec spec = small_spec();
  spec.repetitions = 13;
  const Campaign campaign(spec);  // 2 cells, one 13-rep shard each
  const TrainCampaignConfig cfg = sched_config(64);
  ASSERT_EQ(count_train_shards(campaign, cfg), 2);
  const auto reference = serial_reference(campaign, cfg);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    expect_identical(reference, run_with_threads(campaign, cfg, threads));
  }
}

TEST(RepScheduling, MixedResumedCachedComputedMatchSerialAccumulation) {
  const Campaign campaign(small_spec());
  const TrainCampaignConfig cfg = sched_config(5);
  const auto reference = serial_reference(campaign, cfg);
  const std::uint64_t fingerprint = train_campaign_fingerprint(campaign, cfg);

  // Every third repetition comes from a resume set.
  const fs::path dir = fresh_dir("mixed");
  const std::string full = (dir / "full.ccshard").string();
  {
    serve::CheckpointWriter writer(full, serve::CampaignKind::kTrain,
                                   fingerprint, "test");
    serve::CampaignServeOptions io;
    io.checkpoint = &writer;
    (void)run_train_campaign(campaign, cfg, Runner(RunnerOptions{1}), io);
  }
  serve::ResultSet all;
  serve::load_shard_file(full, serve::CampaignKind::kTrain, fingerprint, &all);
  serve::ResultSet resume;
  for (const auto& [key, payload] : all.records()) {
    if (key.second % 3 == 0) {
      resume.put(key.first, key.second, payload);
    }
  }

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    // A cache holding every other work shard's repetitions.
    serve::ResultCache cache(
        (dir / ("cache" + std::to_string(threads))).string());
    serve::CampaignServeOptions fill;
    fill.cache = &cache;
    fill.shard = serve::ShardSel{0, 2};
    (void)run_train_campaign(campaign, cfg, Runner(RunnerOptions{1}), fill);

    obs::Registry metrics;
    serve::CampaignServeOptions io;
    io.resume = &resume;
    io.cache = &cache;
    io.metrics = &metrics;
    expect_identical(reference,
                     run_train_campaign(campaign, cfg,
                                        Runner(RunnerOptions{threads}), io));
    EXPECT_GT(metrics.value("exp.reps.resumed"), 0);
    EXPECT_GT(metrics.value("exp.reps.cache_hit"), 0);
    EXPECT_GT(metrics.value("exp.reps.computed"), 0);
    EXPECT_EQ(metrics.value("exp.reps.resumed") +
                  metrics.value("exp.reps.cache_hit") +
                  metrics.value("exp.reps.computed"),
              campaign.total_repetitions());
  }
}

TEST(RepScheduling, ShardFilesAreThreadCountInvariant) {
  const Campaign campaign(small_spec());
  const TrainCampaignConfig cfg = sched_config(7);
  const std::uint64_t fingerprint = train_campaign_fingerprint(campaign, cfg);
  const fs::path dir = fresh_dir("shard-files");
  std::vector<std::string> first;  // the 3 files written at 1 thread
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    serve::ResultSet merged;
    for (int i = 0; i < 3; ++i) {
      std::ostringstream name;
      name << "t" << threads << "-" << i << ".ccshard";
      const fs::path path = dir / name.str();
      {
        serve::CheckpointWriter writer(path.string(),
                                       serve::CampaignKind::kTrain,
                                       fingerprint, "shard", /*flush_every=*/3);
        serve::CampaignServeOptions io;
        io.checkpoint = &writer;
        io.shard = serve::ShardSel{i, 3};
        (void)run_train_campaign(campaign, cfg, Runner(RunnerOptions{threads}),
                                 io);
      }
      const std::string bytes = file_bytes(path);
      if (threads == 1) {
        first.push_back(bytes);
      } else {
        EXPECT_EQ(bytes, first[static_cast<std::size_t>(i)]) << "shard " << i;
      }
      serve::ResultSet one;
      serve::load_shard_file(path.string(), serve::CampaignKind::kTrain,
                             fingerprint, &one);
      // Work shard s (7 reps, 4 per cell) belongs to process s % 3.
      for (const auto& [key, payload] : one.records()) {
        EXPECT_EQ((key.first * 4 + key.second / 7) % 3, i);
        merged.put(key.first, key.second, payload);
      }
    }
    EXPECT_EQ(static_cast<std::int64_t>(merged.size()),
              campaign.total_repetitions());
    serve::CampaignServeOptions io;
    io.resume = &merged;
    io.forbid_compute = true;
    expect_identical(serial_reference(campaign, cfg),
                     run_train_campaign(campaign, cfg,
                                        Runner(RunnerOptions{threads}), io));
  }
}

TEST(RepScheduling, ExceptionInStolenRepetitionIsRethrown) {
  SweepSpec spec = small_spec();
  spec.cross_mbps = {4.0};
  spec.repetitions = 12;
  Campaign campaign(spec);  // one 12-rep shard: extra workers must steal
  const fs::path dir = fresh_dir("stolen-throw");
  campaign.set_trace_dir(dir.string());
  // A directory where the last repetition's trace goes makes that
  // repetition throw; idle workers steal from the back, so it is the
  // first repetition a second worker takes.
  fs::create_directories(trace::train_trace_path(dir.string(), 0, 11));
  const TrainCampaignConfig cfg = sched_config(64);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    EXPECT_THROW((void)run_with_threads(campaign, cfg, threads),
                 std::runtime_error);
  }
}

TEST(RepScheduling, ProgressTotalsAreReachedExactly) {
  const Campaign campaign(small_spec());
  const TrainCampaignConfig cfg = sched_config(7);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    // Runner-carried progress ticks once per folded work shard.
    Progress shards(count_train_shards(campaign, cfg), "shards", false);
    (void)run_train_campaign(campaign, cfg,
                             Runner(RunnerOptions{threads, &shards}));
    EXPECT_EQ(shards.done(), shards.total());

    // Serve-option progress ticks once per repetition.
    Progress reps(campaign.total_repetitions(), "reps", false);
    serve::CampaignServeOptions io;
    io.progress = &reps;
    (void)run_train_campaign(campaign, cfg, Runner(RunnerOptions{threads}),
                             io);
    EXPECT_EQ(reps.done(), reps.total());
    EXPECT_EQ(reps.cached(), 0);
  }
  // A process owning a slice still completes its shard-progress total.
  Progress slice(count_train_shards(campaign, cfg), "slice", false);
  serve::CampaignServeOptions io;
  io.shard = serve::ShardSel{1, 3};
  (void)run_train_campaign(campaign, cfg, Runner(RunnerOptions{3, &slice}),
                           io);
  EXPECT_EQ(slice.done(), slice.total());
}

TEST(RepScheduling, ShardedSliceRepProgressReachesItsTotal) {
  const Campaign campaign(small_spec());
  const TrainCampaignConfig cfg = sched_config(7);  // 8 work shards
  std::int64_t covered = 0;
  for (int index = 0; index < 3; ++index) {
    SCOPED_TRACE(index);
    // Serve-option progress of a process owning one slice ticks only
    // that slice's repetitions, and its total says so.
    const serve::ShardSel slice{index, 3};
    Progress reps(count_train_reps(campaign, cfg, slice), "slice", false);
    serve::CampaignServeOptions io;
    io.shard = slice;
    io.progress = &reps;
    (void)run_train_campaign(campaign, cfg, Runner(RunnerOptions{2}), io);
    EXPECT_GT(reps.total(), 0);
    EXPECT_EQ(reps.done(), reps.total());
    covered += reps.total();
  }
  EXPECT_EQ(covered, campaign.total_repetitions());
  EXPECT_EQ(count_train_reps(campaign, cfg), campaign.total_repetitions());
}

}  // namespace
}  // namespace csmabw::exp

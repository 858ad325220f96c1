// csmabw benchmark driver.
//
//   csmabw_bench --workload NAME --seed N --seconds S --trace 0|1
//                --work DIR --refs DIR
//   csmabw_bench --workload NAME --seed N --check --work DIR --refs DIR
//   csmabw_bench --workload NAME --write-refs --work DIR --refs DIR
//
// Every workload runs on a pool of min(4, nproc) workers (stored_results
// on at most 2).  Measured run (--trace 0): sets the workload up
// kSetups times (setup_s is the median), then repeats the batch until S
// seconds have passed and reports per-batch medians of the end-to-end
// metrics.  Traced run (--trace 1): repeats traced rounds for S seconds
// and reports the per-layer metrics and the ladder line.  Either way
// every output is compared against the references shipped in --refs,
// and the last stdout line is the JSON result.
//
// --check runs the workload at the given seed and at a second seed
// with 1 worker and with its full pool, and requires byte-identical
// outputs and exact counts.  --write-refs regenerates the reference
// file of a workload for every input seed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchstats.hpp"
#include "obs/clock.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using csmabw_bench::Batch;
using csmabw_bench::Check;
using csmabw_bench::Ledger;
using csmabw_bench::References;
using csmabw_bench::Round;

namespace {

/// The driver's --seed is folded into this many input seeds, all of
/// which have shipped references.
constexpr std::uint64_t kInputSeeds = 32;
/// Set-up repetitions of a measured run; setup_s is their median.
constexpr int kSetups = 9;
/// Worker pool of every workload (capped by the hardware).
constexpr int kPoolThreads = 4;

double now_s() {
  return static_cast<double>(csmabw::obs::now_ns()) * 1e-9;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

fs::path refs_file(const fs::path& dir, const std::string& workload) {
  return dir / (workload + ".txt");
}

/// Reference lines are `<input seed> <name> <value>`.
References load_references(const fs::path& path, std::uint64_t input_seed) {
  References refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::string name;
    std::string value;
    if ((fields >> seed >> name >> value) && seed == input_seed) {
      refs[name] = value;
    }
  }
  return refs;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Ledger& ledger,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted()
      << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void report(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
  std::printf("# %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

/// Failure messages of a run, each kept once with how often it occurred.
using Notes = std::map<std::string, int>;

/// Folds a batch's or round's outcome into the ledger and notes every
/// failure by name.
void account(std::int64_t ops,
             const std::vector<std::pair<std::string, std::int64_t>>& thrown,
             const std::vector<Check>& checks, const References& refs,
             Ledger& ledger, Notes& notes) {
  Ledger batch;
  batch.attempt(ops);
  for (const auto& [what, n] : thrown) {
    batch.fail(n);
    ++notes["failed op: " + what];
  }
  std::vector<std::string> messages;
  csmabw_bench::compare_to_references(checks, refs, batch, &messages);
  for (const std::string& m : messages) {
    ++notes["MISMATCH " + m];
  }
  ledger.absorb(batch);
}

void print_notes(const Notes& notes) {
  for (const auto& [message, n] : notes) {
    std::fprintf(stderr, "# %s (x%d)\n", message.c_str(), n);
  }
}

std::string quartiles_note(const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  char buf[96];
  std::snprintf(buf, sizeof buf, "(median of %zu, q1 %.6g q3 %.6g)", s.size(),
                csmabw_bench::percentile_sorted(s, 25),
                csmabw_bench::percentile_sorted(s, 75));
  return buf;
}

std::vector<double> per_batch(const std::vector<Batch>& batches,
                              double (*f)(const Batch&)) {
  std::vector<double> v;
  for (const Batch& b : batches) {
    v.push_back(f(b));
  }
  return v;
}

void report_tail(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit) {
  if (const auto t = csmabw_bench::tail(samples)) {
    char note[64];
    std::snprintf(note, sizeof note, "(p%g of n=%zu)", t->percentile, t->n);
    report(name, t->value, unit, note);
  } else {
    report(name, 0.0, unit, "(n/a: n=" + std::to_string(samples.size()) +
                                " < 20)");
  }
}

int measured_run(csmabw_bench::Workload& w, const std::string& workload,
                 double seconds, const References& refs) {
  Ledger ledger;
  Notes notes;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    w.setup();
    setups.push_back(now_s() - t0);
  }
  std::vector<Batch> batches;
  const double deadline = now_s() + seconds;
  do {
    batches.push_back(w.run_batch());
    const Batch& b = batches.back();
    account(b.ops, b.thrown, b.checks, refs, ledger, notes);
  } while (now_s() < deadline);

  const std::vector<double> walls =
      per_batch(batches, [](const Batch& b) { return b.wall_s; });
  const double wall = csmabw_bench::median(walls);
  const std::vector<double> cpus =
      per_batch(batches, [](const Batch& b) { return b.cpu_s; });
  const std::vector<Metric> metrics = {
      {"wall_s", wall, "s"},
      {"cpu_s", csmabw_bench::median(cpus), "s"},
      {"setup_s", csmabw_bench::median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  std::printf("# workload %s: %s\n", workload.c_str(), w.shape().c_str());
  std::printf("# %zu batches in %.3f s\n", batches.size(),
              seconds + (now_s() - deadline));
  report("wall_s", wall, "s", quartiles_note(walls));
  report("cpu_s", metrics[1].value, "s", quartiles_note(cpus));
  report("setup_s", metrics[2].value, "s", quartiles_note(setups));
  report("peak_rss_mb", metrics[3].value, "MB");
  std::map<std::string, std::vector<double>> rates;
  std::vector<double> query_ms;
  for (const Batch& b : batches) {
    for (const auto& [name, v] : b.rates) {
      rates[name].push_back(v);
    }
    query_ms.insert(query_ms.end(), b.query_ms.begin(), b.query_ms.end());
  }
  for (const auto& [name, v] : rates) {
    report(name, csmabw_bench::median(v), "1/s", quartiles_note(v));
  }
  if (!query_ms.empty()) {
    std::vector<double> sorted = query_ms;
    std::sort(sorted.begin(), sorted.end());
    report("query_p50_ms", csmabw_bench::percentile_sorted(sorted, 50), "ms",
           "(n=" + std::to_string(sorted.size()) + ")");
    report_tail("query_tail_ms", query_ms, "ms");
  }
  report("failed_share", ledger.failed_share(), "1",
         "(" + std::to_string(ledger.failed()) + " of " +
             std::to_string(ledger.attempted()) + " ops)");
  print_notes(notes);
  print_result(ledger.outputs_correct(), ledger, metrics);
  return 0;
}

int traced_run(csmabw_bench::Workload& w, const std::string& workload,
               double seconds, int threads, const References& refs) {
  Ledger ledger;
  Notes notes;
  w.setup();
  std::vector<Round> rounds;
  const double deadline = now_s() + seconds;
  do {
    rounds.push_back(w.run_traced());
    const Round& r = rounds.back();
    account(r.ops, r.thrown, r.checks, refs, ledger, notes);
  } while (now_s() < deadline);

  std::map<std::string, std::vector<double>> spans;
  std::map<std::string, double> sums;
  std::vector<double> overhead;
  for (const Round& r : rounds) {
    for (const auto& [name, v] : r.spans_ns) {
      spans[name].insert(spans[name].end(), v.begin(), v.end());
    }
    for (const auto& [name, v] : r.sums) {
      sums[name] += v;
    }
    overhead.push_back((r.traced_wall_s - r.untraced_wall_s) /
                       r.untraced_wall_s);
  }
  const auto n_rounds = static_cast<double>(rounds.size());
  const std::map<std::string, std::int64_t>& counts = rounds.front().counts;
  const auto count = [&](const std::string& name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto span_sum = [&](const std::string& name) {
    return std::accumulate(spans[name].begin(), spans[name].end(), 0.0);
  };
  const auto ratio = [](double num, double den) {
    return den != 0.0 ? num / den : 0.0;
  };
  const auto p50 = [&](const std::string& name) {
    std::vector<double> s = spans[name];
    std::sort(s.begin(), s.end());
    return csmabw_bench::percentile_sorted(s, 50);
  };
  const auto tail = [&](const std::string& name) {
    const auto t = csmabw_bench::tail(spans[name]);
    return t ? t->value : 0.0;
  };
  const auto span_mean = [&](const std::string& name) {
    return ratio(span_sum(name), static_cast<double>(spans[name].size()));
  };

  // The ladder: the ladder pass's busy time (its shards, less the extra
  // cell builds, plus its merge) against the layer spans inside it.
  const double engine_busy = span_sum("exp.rep") + span_sum("exp.merge");
  const double ladder_busy = span_sum("ladder.shard") -
                             span_sum("core.cell_build") +
                             span_sum("stats.merge");
  const double ladder_sum = span_sum("core.scenario") +
                            span_sum("core.run_train") +
                            span_sum("core.harvest") +
                            span_sum("stats.accumulate") +
                            span_sum("stats.merge");
  const double query_pages = count("query.pages.decoded") +
                             count("query.pages.skipped");

  const std::vector<Metric> metrics = {
      {"sim.events", count("sim.events"), "count"},
      {"sim.slab_allocs", count("sim.slab_allocs"), "count"},
      {"sim.ns_per_event",
       ratio(span_sum("core.run_train"), sums["ladder.sim_events"]), "ns"},
      {"mac.tx_attempts", count("mac.tx_attempts"), "count"},
      {"mac.successes", count("mac.successes"), "count"},
      {"mac.collisions", count("mac.collisions"), "count"},
      {"mac.backoff_freezes", count("mac.backoff_freezes"), "count"},
      {"mac.success_per_attempt",
       ratio(count("mac.successes"), count("mac.tx_attempts")), "1"},
      {"topo.medium.updates", count("topo.medium.updates"), "count"},
      {"topo.medium.neighborhood_sweeps",
       count("topo.medium.neighborhood_sweeps"), "count"},
      {"topo.medium.fire_rearms", count("topo.medium.fire_rearms"), "count"},
      {"topo.sweeps_per_update",
       ratio(count("topo.medium.neighborhood_sweeps"),
             count("topo.medium.updates")),
       "1"},
      {"core.cell_build_us_p50", p50("core.cell_build") * 1e-3, "us"},
      {"core.run_train_us_p50", p50("core.run_train") * 1e-3, "us"},
      {"core.run_train_us_tail", tail("core.run_train") * 1e-3, "us"},
      {"stats.accumulate_ns_per_rep", span_mean("stats.accumulate"), "ns"},
      {"stats.merge_ms", span_mean("stats.merge") * 1e-6, "ms"},
      {"exp.rep_us_p50", p50("exp.rep") * 1e-3, "us"},
      {"exp.rep_us_tail", tail("exp.rep") * 1e-3, "us"},
      {"exp.utilization",
       ratio(span_sum("exp.rep") * 1e-9, sums["engine.wall_s"] * threads),
       "1"},
      {"exp.merge_ms", span_mean("exp.merge") * 1e-6, "ms"},
      {"exp.unexplained_share", ratio(ladder_busy - ladder_sum, ladder_busy),
       "1"},
      {"serve.cache.lookup_us_p50", p50("serve.cache.lookup") * 1e-3, "us"},
      {"serve.cache.store_us_p50", p50("serve.cache.store") * 1e-3, "us"},
      {"serve.bytes_per_record",
       ratio(sums["serve.cache.write_bytes"], sums["serve.stores"]), "B"},
      {"serve.cache.read_bytes", sums["serve.cache.read_bytes"] / n_rounds,
       "B"},
      {"serve.cache.write_bytes", sums["serve.cache.write_bytes"] / n_rounds,
       "B"},
      {"trace.write_ns_per_event",
       ratio(span_sum("trace.write"), sums["trace.events_written"]), "ns"},
      {"trace.bytes_per_event",
       ratio(sums["trace.bytes_written"], sums["trace.events_written"]), "B"},
      {"query.pages.decoded", count("query.pages.decoded"), "count"},
      {"query.pages.skipped", count("query.pages.skipped"), "count"},
      {"query.events.decoded", count("query.events.decoded"), "count"},
      {"query.skip_share", ratio(count("query.pages.skipped"), query_pages),
       "1"},
      {"query.decode_ns_per_event",
       ratio(span_sum("query.unit"),
             count("query.events.decoded") * n_rounds),
       "ns"},
      {"query.unit_us_tail", tail("query.unit") * 1e-3, "us"},
      {"obs.trace_overhead_share", csmabw_bench::median(overhead), "1"},
  };

  std::printf("# workload %s (traced): %s\n", workload.c_str(),
              w.shape().c_str());
  std::printf("# %zu traced rounds\n", rounds.size());
  for (const Metric& m : metrics) {
    report(m.name, m.value, m.unit);
  }
  for (const char* name : {"core.run_train", "exp.rep", "query.unit"}) {
    if (!spans[name].empty()) {
      report_tail(std::string(name) + " tail", spans[name], "ns");
    }
  }
  if (ladder_busy > 0.0) {
    std::printf(
        "# ladder: core.scenario %.4f s + core.run_train %.4f s + "
        "core.harvest %.4f s + stats.accumulate %.4f s + stats.merge %.4f s "
        "= %.4f s of ladder-pass busy %.4f s (ladder.shard - core.cell_build "
        "+ stats.merge); unexplained %.4f s (%.2f%%); engine pass busy "
        "%.4f s (exp.rep + exp.merge)\n",
        span_sum("core.scenario") * 1e-9, span_sum("core.run_train") * 1e-9,
        span_sum("core.harvest") * 1e-9, span_sum("stats.accumulate") * 1e-9,
        span_sum("stats.merge") * 1e-9, ladder_sum * 1e-9, ladder_busy * 1e-9,
        (ladder_busy - ladder_sum) * 1e-9,
        100.0 * (ladder_busy - ladder_sum) / ladder_busy, engine_busy * 1e-9);
  }
  report("failed_share", ledger.failed_share(), "1",
         "(" + std::to_string(ledger.failed()) + " of " +
             std::to_string(ledger.attempted()) + " ops)");
  print_notes(notes);
  print_result(ledger.outputs_correct(), ledger, metrics);
  return 0;
}

/// Every output of one untraced batch and one traced round, by name.
/// Outputs reported under one name by several passes must agree; a
/// disagreement is recorded under `conflicts`.
std::map<std::string, std::string> collect_outputs(
    csmabw_bench::Workload& w, std::vector<std::string>& conflicts) {
  std::map<std::string, std::string> out;
  w.setup();
  const Batch b = w.run_batch();
  const Round r = w.run_traced();
  std::vector<Check> checks = b.checks;
  checks.insert(checks.end(), r.checks.begin(), r.checks.end());
  for (const Check& c : checks) {
    const auto [it, fresh] = out.emplace(c.name, c.value);
    if (!fresh && it->second != c.value) {
      conflicts.push_back(c.name + ": " + it->second + " vs " + c.value);
    }
  }
  return out;
}

int check_mode(const csmabw_bench::Params& base, const fs::path& refs_dir) {
  int bad = 0;
  const std::uint64_t seeds[] = {
      base.input_seed, (base.input_seed + kInputSeeds / 2) % kInputSeeds};
  for (std::uint64_t seed : seeds) {
    std::map<int, std::map<std::string, std::string>> by_threads;
    for (int threads : {1, base.threads}) {
      csmabw_bench::Params p = base;
      p.input_seed = seed;
      p.threads = threads;
      std::vector<std::string> conflicts;
      by_threads[threads] =
          collect_outputs(*csmabw_bench::make_workload(p), conflicts);
      for (const std::string& c : conflicts) {
        std::printf("# FAIL seed %llu threads %d: passes disagree on %s\n",
                    static_cast<unsigned long long>(seed), threads,
                    c.c_str());
        ++bad;
      }
    }
    const auto& one = by_threads[1];
    const auto& many = by_threads[base.threads];
    const References refs =
        load_references(refs_file(refs_dir, base.workload), seed);
    for (const auto& [name, value] : one) {
      const auto it = many.find(name);
      const bool same = it != many.end() && it->second == value;
      const auto ref = refs.find(name);
      const bool matches = ref != refs.end() && ref->second == value;
      std::printf("# %s seed %llu %-36s 1 vs %d workers requested: %s, "
                  "reference: %s\n",
                  same && matches ? "ok  " : "FAIL",
                  static_cast<unsigned long long>(seed), name.c_str(),
                  base.threads, same ? "identical" : "DIFFER",
                  matches ? "match" : "MISMATCH");
      bad += same && matches ? 0 : 1;
    }
    if (many.size() != one.size()) {
      std::printf("# FAIL seed %llu: output sets differ in size\n",
                  static_cast<unsigned long long>(seed));
      ++bad;
    }
  }
  std::printf("# check %s: %s\n", base.workload.c_str(),
              bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

int write_refs(const csmabw_bench::Params& base, const fs::path& refs_dir) {
  const fs::path path = refs_file(refs_dir, base.workload);
  std::ostringstream text;
  for (std::uint64_t seed = 0; seed < kInputSeeds; ++seed) {
    csmabw_bench::Params p = base;
    p.input_seed = seed;
    std::vector<std::string> conflicts;
    const auto outputs =
        collect_outputs(*csmabw_bench::make_workload(p), conflicts);
    if (!conflicts.empty()) {
      std::fprintf(stderr, "passes disagree at seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   conflicts.front().c_str());
      return 1;
    }
    for (const auto& [name, value] : outputs) {
      text << seed << " " << name << " " << value << "\n";
    }
    std::fprintf(stderr, "# %s seed %llu: %zu outputs\n",
                 base.workload.c_str(), static_cast<unsigned long long>(seed),
                 outputs.size());
  }
  std::ofstream out(path);
  out << text.str();
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const csmabw::util::Args args(argc, argv);
    csmabw_bench::Params params;
    params.workload = args.get("workload", "");
    const auto seed = std::strtoull(args.get("seed", "0").c_str(), nullptr, 10);
    params.input_seed = seed % kInputSeeds;
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    params.threads = std::max(1, std::min(kPoolThreads, hw));
    params.work = args.get("work", "");
    const fs::path refs_dir = args.get("refs", "");
    if (params.workload.empty() || params.work.empty() || refs_dir.empty()) {
      std::fprintf(stderr, "need --workload, --work and --refs\n");
      return 2;
    }
    fs::create_directories(params.work);
    if (args.get("write-refs", false)) {
      return write_refs(params, refs_dir);
    }
    if (args.get("check", false)) {
      return check_mode(params, refs_dir);
    }
    const References refs =
        load_references(refs_file(refs_dir, params.workload),
                        params.input_seed);
    const double seconds = args.get("seconds", 10.0);
    const std::unique_ptr<csmabw_bench::Workload> w =
        csmabw_bench::make_workload(params);
    std::printf("# seed %llu -> input seed %llu of %llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(params.input_seed),
                static_cast<unsigned long long>(kInputSeeds));
    return args.get("trace", 0) != 0
               ? traced_run(*w, params.workload, seconds, params.threads, refs)
               : measured_run(*w, params.workload, seconds, refs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csmabw_bench: %s\n", e.what());
    return 1;
  }
}

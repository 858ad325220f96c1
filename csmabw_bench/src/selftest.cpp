// Self-test of the benchmark's own statistics (benchstats.hpp): tail
// percentile selection, failed-operation accounting and the reference
// comparison.  Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchstats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    v.push_back(i);
  }
  return v;
}

void test_tail() {
  using csmabw_bench::tail;
  expect(!tail(one_to(19)).has_value(), "n=19 has no tail (median lacks 10 beyond)");
  auto t = tail(one_to(20));
  expect(t && t->percentile == 50.0 && near(t->value, 10.0) && t->n == 20,
         "n=20: p50 = 10 with exactly 10 beyond");
  t = tail(one_to(39));
  expect(t && t->percentile == 50.0, "n=39: p75 would leave 9 beyond");
  t = tail(one_to(40));
  expect(t && t->percentile == 75.0 && near(t->value, 30.0),
         "n=40: p75 = 30 with 10 beyond");
  t = tail(one_to(100));
  expect(t && t->percentile == 90.0 && near(t->value, 90.0),
         "n=100: p90 = 90 with 10 beyond");
  t = tail(one_to(199));
  expect(t && t->percentile == 90.0, "n=199: p95 would leave 9 beyond");
  t = tail(one_to(1000));
  expect(t && t->percentile == 99.0 && near(t->value, 990.0) && t->n == 1000,
         "n=1000: p99 = 990");
  t = tail(one_to(10000));
  expect(t && t->percentile == 99.9 && near(t->value, 9990.0),
         "n=10000: p99.9 = 9990");
}

void test_median_and_percentile() {
  expect(near(csmabw_bench::median({3.0, 1.0, 2.0}), 2.0), "odd median");
  expect(near(csmabw_bench::median({4.0, 1.0, 2.0, 3.0}), 2.5),
         "even median interpolates");
  expect(csmabw_bench::median({}) == 0.0, "empty median is 0");
  std::vector<double> s = {1, 2, 3, 4};
  expect(near(csmabw_bench::percentile_sorted(s, 50), 2.0),
         "nearest-rank p50 of 4");
  expect(near(csmabw_bench::percentile_sorted(s, 100), 4.0), "p100 is max");
}

void test_ledger() {
  csmabw_bench::Ledger ledger;
  expect(ledger.failed_share() == 0.0, "empty ledger has no failed share");
  ledger.attempt(1000);
  ledger.fail(1);
  expect(ledger.failed() == 1 && near(ledger.failed_share(), 0.001),
         "a thrown op counts in failed_share");
  expect(ledger.outputs_correct(), "a thrown op is not an output mismatch");
  ledger.attempt(1000);
  ledger.mismatch(400);
  expect(ledger.failed() == 401 && near(ledger.failed_share(), 401.0 / 2000),
         "a mismatch fails every op its output covers");
  expect(!ledger.outputs_correct(), "a mismatch makes the outputs incorrect");
}

void test_absorb_caps_failures() {
  csmabw_bench::Ledger run;
  csmabw_bench::Ledger batch;
  batch.attempt(100);
  batch.mismatch(100);
  batch.mismatch(100);
  run.absorb(batch);
  expect(run.attempted() == 100 && run.failed() == 100 &&
             near(run.failed_share(), 1.0),
         "overlapping failures never exceed the attempts");
  csmabw_bench::Ledger clean;
  clean.attempt(50);
  run.absorb(clean);
  expect(run.attempted() == 150 && run.failed() == 100 &&
             !run.outputs_correct(),
         "absorb keeps failures and the mismatch flag");
}

void test_references() {
  const csmabw_bench::References refs = {{"cell.00", "0123456789abcdef"},
                                         {"query.qdepth", "fedcba9876543210"}};
  csmabw_bench::Ledger good;
  good.attempt(401);
  std::vector<std::string> messages;
  const int ok = csmabw_bench::compare_to_references(
      {{"cell.00", "0123456789abcdef", 400}, {"query.qdepth", "fedcba9876543210", 1}},
      refs, good, &messages);
  expect(ok == 0 && good.failed() == 0 && good.outputs_correct() &&
             messages.empty(),
         "matching outputs pass");

  csmabw_bench::Ledger bad;
  bad.attempt(401);
  const int wrong = csmabw_bench::compare_to_references(
      {{"cell.00", "0123456789abcdee", 400}, {"query.qdepth", "fedcba9876543210", 1}},
      refs, bad, &messages);
  expect(wrong == 1 && bad.failed() == 400 && !bad.outputs_correct(),
         "a deliberately wrong digest fails the ops it covers");
  expect(messages.size() == 1 &&
             messages[0].find("cell.00") != std::string::npos,
         "the mismatch is reported by name");

  csmabw_bench::Ledger missing;
  missing.attempt(1);
  (void)csmabw_bench::compare_to_references({{"query.new", "00", 1}}, refs,
                                            missing, nullptr);
  expect(missing.failed() == 1 && !missing.outputs_correct(),
         "an output without a reference fails");
}

}  // namespace

int main() {
  test_tail();
  test_median_and_percentile();
  test_ledger();
  test_absorb_caps_failures();
  test_references();
  if (failures == 0) {
    std::printf("csmabw_bench_selftest: all passed\n");
  }
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

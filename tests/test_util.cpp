// Unit tests for src/util: RNG determinism and distribution, statistics,
// table formatting, the invariant-checking macros and the JSON reader's
// string escapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/p2_quantile.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace drhw {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(ms(4), 4000);
  EXPECT_EQ(us(250), 250);
  EXPECT_DOUBLE_EQ(to_ms(ms(4)), 4.0);
  EXPECT_DOUBLE_EQ(to_ms(us(500)), 0.5);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 5);
}

TEST(Rng, NextIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, NextIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, MeanMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 6.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Stats, StddevMatchesHandComputation) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(Stats, PercentileInterpolates) {
  RunningStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Stats, EmptyStatsThrowOnQuery) {
  RunningStats s;
  EXPECT_THROW(s.mean(), InternalError);
  EXPECT_THROW(s.percentile(50), InternalError);
}

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InternalError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_ms(4000), "4.0");
  EXPECT_EQ(fmt_pct(17.02, 1), "17.0%");
}

TEST(Check, ThrowsWithMessage) {
  try {
    DRHW_CHECK_MSG(false, "broken invariant");
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"),
              std::string::npos);
  }
}

TEST(Check, ComparisonVariantsPassWhenTrue) {
  EXPECT_NO_THROW(DRHW_CHECK_EQ(2 + 2, 4));
  EXPECT_NO_THROW(DRHW_CHECK_NE(1, 2));
  EXPECT_NO_THROW(DRHW_CHECK_LT(1, 2));
  EXPECT_NO_THROW(DRHW_CHECK_LE(2, 2));
  EXPECT_NO_THROW(DRHW_CHECK_GT(3, 2));
  EXPECT_NO_THROW(DRHW_CHECK_GE(2, 2));
}

TEST(Check, ComparisonFailurePrintsBothOperands) {
  const int retired = 7;
  const int expected = 9;
  try {
    DRHW_CHECK_EQ_MSG(retired, expected, "simulation stalled");
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    // The expression text, both runtime values, and the message must all
    // be present — that is the whole point of the comparison variants.
    EXPECT_NE(what.find("retired == expected"), std::string::npos) << what;
    EXPECT_NE(what.find("lhs = 7"), std::string::npos) << what;
    EXPECT_NE(what.find("rhs = 9"), std::string::npos) << what;
    EXPECT_NE(what.find("simulation stalled"), std::string::npos) << what;
  }
}

TEST(Check, ComparisonVariantsWithoutMessage) {
  try {
    DRHW_CHECK_LT(5, 3);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5 < 3"), std::string::npos) << what;
    EXPECT_NE(what.find("lhs = 5"), std::string::npos) << what;
    EXPECT_NE(what.find("rhs = 3"), std::string::npos) << what;
  }
}

namespace {
// A comparable-but-unstreamable type: the failure text must degrade
// gracefully instead of failing to compile.
struct Opaque {
  int v = 0;
  bool operator==(const Opaque& o) const { return v == o.v; }
};
}  // namespace

TEST(Check, UnprintableOperandsStillThrow) {
  const Opaque a{1};
  const Opaque b{2};
  EXPECT_THROW(DRHW_CHECK_EQ(a, b), InternalError);
  EXPECT_NO_THROW(DRHW_CHECK_EQ(a, Opaque{1}));
}

TEST(Check, OperandsEvaluatedExactlyOnce) {
  int calls = 0;
  const auto next = [&calls] { return ++calls; };
  DRHW_CHECK_GE(next(), 1);
  EXPECT_EQ(calls, 1);
}

TEST(P2Quantile, RejectsDegenerateQuantiles) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_NO_THROW(P2Quantile(0.999));
}

TEST(P2Quantile, ExactForSmallSamples) {
  P2Quantile median(0.5);
  EXPECT_EQ(median.value(), 0.0);  // empty
  median.add(7.0);
  EXPECT_EQ(median.value(), 7.0);
  median.add(1.0);
  median.add(9.0);
  EXPECT_EQ(median.value(), 7.0);  // sorted {1, 7, 9}
  EXPECT_EQ(median.count(), 3u);
}

TEST(P2Quantile, ExactAtExactlyFiveSamples) {
  // Regression: at count == 5 the buffer holds every observation, so a
  // tail quantile must still report the exact extreme — not the median
  // marker q_[2] the estimator only means once updates have run.
  P2Quantile p99(0.99);
  for (double x : {1.0, 2.0, 3.0, 4.0, 100.0}) p99.add(x);
  EXPECT_EQ(p99.value(), 100.0);
  P2Quantile p50(0.5);
  for (double x : {5.0, 1.0, 4.0, 2.0, 3.0}) p50.add(x);
  EXPECT_EQ(p50.value(), 3.0);
}

TEST(P2Quantile, TracksUniformAndSkewedDistributions) {
  // Accuracy against the exact percentile on two shapes: uniform [0, 1000)
  // and a heavy-tailed (squared-uniform) distribution, the shape of online
  // response times.
  for (const bool skewed : {false, true}) {
    Rng rng(42);
    P2Quantile p50(0.5), p95(0.95), p99(0.99);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
      double x = rng.next_double() * 1000.0;
      if (skewed) x = x * x / 1000.0;
      samples.push_back(x);
      p50.add(x);
      p95.add(x);
      p99.add(x);
    }
    std::sort(samples.begin(), samples.end());
    const auto exact = [&](double p) {
      return samples[static_cast<std::size_t>(p * (samples.size() - 1))];
    };
    // Percent-of-range tolerance: the P² estimator is tight at this n.
    EXPECT_NEAR(p50.value(), exact(0.50), 20.0) << "skewed=" << skewed;
    EXPECT_NEAR(p95.value(), exact(0.95), 20.0) << "skewed=" << skewed;
    EXPECT_NEAR(p99.value(), exact(0.99), 20.0) << "skewed=" << skewed;
  }
}

TEST(P2Quantile, DeterministicForTheSameStream) {
  Rng rng_a(7), rng_b(7);
  P2Quantile a(0.95), b(0.95);
  for (int i = 0; i < 5000; ++i) {
    a.add(rng_a.next_double());
    b.add(rng_b.next_double());
  }
  EXPECT_EQ(a.value(), b.value());
}

TEST(QuantileSketch, BundlesOrderedPercentiles) {
  QuantileSketch sketch;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) sketch.add(rng.next_double() * 100.0);
  EXPECT_EQ(sketch.count(), 10000u);
  EXPECT_LT(sketch.p50(), sketch.p95());
  EXPECT_LT(sketch.p95(), sketch.p99());
  EXPECT_NEAR(sketch.p50(), 50.0, 3.0);
  EXPECT_NEAR(sketch.p95(), 95.0, 3.0);
  EXPECT_NEAR(sketch.p99(), 99.0, 3.0);
}

std::string parse_string(const std::string& literal) {
  return json::parse(literal, "test JSON").text;
}

TEST(Json, ShortEscapes) {
  EXPECT_EQ(parse_string(R"("a\"b\\c\/d\n\t\r\b\f")"),
            "a\"b\\c/d\n\t\r\b\f");
}

TEST(Json, UnicodeEscapesAreUtf8) {
  EXPECT_EQ(parse_string(R"("A\u001f")"), "A\x1f");
  EXPECT_EQ(parse_string(R"("\u0000")"), std::string(1, '\0'));
  EXPECT_EQ(parse_string(R"("\u00e9")"), "\xc3\xa9");
  EXPECT_EQ(parse_string(R"("\u0141")"), "\xc5\x81");
  EXPECT_EQ(parse_string(R"("\u20AC")"), "\xe2\x82\xac");
  EXPECT_EQ(parse_string(R"("\uffff")"), "\xef\xbf\xbf");
  // A surrogate pair is one four-byte code point (U+1F600).
  EXPECT_EQ(parse_string(R"("\ud83d\ude00")"), "\xf0\x9f\x98\x80");
}

TEST(Json, MalformedUnicodeEscapesAreRejected) {
  for (const char* bad :
       {R"("\uzzzz")", R"("\u12g4")", R"("\u-123")", R"("\u 123")",
        R"("\u12")", R"("\ud800")", R"("\ud800x")", R"("\ud800A")",
        R"("\udc00")", R"("\ude00\ud83d")"})
    EXPECT_THROW(json::parse(bad), std::invalid_argument) << bad;
}

}  // namespace
}  // namespace drhw

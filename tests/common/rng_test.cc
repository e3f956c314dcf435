#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

namespace planet {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng root(99);
  Rng f1 = root.Fork(1);
  Rng f2 = root.Fork(2);
  Rng f1_again = Rng(99).Fork(1);
  EXPECT_EQ(f1.Next(), f1_again.Next());
  EXPECT_NE(f1.Next(), f2.Next());
}

TEST(ShardSeed, DeterministicAndShardSensitive) {
  EXPECT_EQ(Rng::ShardSeed(42, 3), Rng::ShardSeed(42, 3));
  EXPECT_NE(Rng::ShardSeed(42, 3), Rng::ShardSeed(42, 4));
  EXPECT_NE(Rng::ShardSeed(42, 3), Rng::ShardSeed(43, 3));
  // Shard 0 must not degenerate to the global seed: the serial goldens own
  // seed S, and a sharded run reusing it would alias two experiments.
  for (uint64_t s : {0ULL, 1ULL, 7ULL, 42ULL, 0xDEADBEEFULL}) {
    EXPECT_NE(Rng::ShardSeed(s, 0), s);
  }
}

TEST(ShardSeed, AdjacentPairsNeverCollide) {
  // Regression: a naive `mix(seed) ^ shard` (or `seed + shard`) derivation
  // makes ShardSeed(s, 1) collide with ShardSeed(s + 1, 0) for half of all
  // seeds — shard 1 of experiment s would replay shard 0 of experiment s+1.
  // The avalanche-then-combine derivation must keep the (seed, shard) pair
  // injective in practice.
  for (uint64_t s = 0; s < 4096; ++s) {
    ASSERT_NE(Rng::ShardSeed(s, 1), Rng::ShardSeed(s + 1, 0)) << "seed " << s;
    ASSERT_NE(Rng::ShardSeed(s, 2), Rng::ShardSeed(s + 2, 0)) << "seed " << s;
    ASSERT_NE(Rng::ShardSeed(s, 0), Rng::ShardSeed(s + 1, 1)) << "seed " << s;
  }
}

TEST(ShardSeed, StreamsAreStatisticallyIndependent) {
  // Adjacent shards of the same experiment: correlated streams here would
  // correlate "independent" per-shard workloads. Cross-correlate bit
  // agreement between the two streams — should sit at ~50%.
  Rng a(Rng::ShardSeed(1234, 0));
  Rng b(Rng::ShardSeed(1234, 1));
  const int n = 4096;
  int64_t agree = 0;
  for (int i = 0; i < n; ++i) {
    agree += __builtin_popcountll(~(a.Next() ^ b.Next()));
  }
  double frac = double(agree) / (64.0 * n);
  EXPECT_NEAR(frac, 0.5, 0.01);

  // And the derived seeds themselves avalanche: flipping one shard bit
  // flips ~half the seed bits on average.
  int64_t flipped = 0;
  const int pairs = 1024;
  for (uint64_t s = 0; s < pairs; ++s) {
    flipped += __builtin_popcountll(Rng::ShardSeed(777, s) ^
                                    Rng::ShardSeed(777, s ^ 1));
  }
  EXPECT_NEAR(double(flipped) / pairs, 32.0, 2.0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(6);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 60000; ++i) {
    int64_t v = rng.UniformInt(-3, 2);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 2);
    ++counts[v];
  }
  // Every value in range should appear roughly uniformly (10k each).
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [v, c] : counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(7);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits, 3000, 300);
}

TEST(Rng, ExponentialMean) {
  Rng rng(8);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  double sum = 0, sumsq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 2.0);
    sum += x;
    sumsq += x * x;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, LognormalMedian) {
  Rng rng(10);
  std::vector<double> xs;
  const int n = 20001;
  for (int i = 0; i < n; ++i) xs.push_back(rng.Lognormal(100.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], 100.0, 5.0);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng(11);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(Zipf, ThetaZeroDrawsTheModuloStream) {
  constexpr uint64_t kKeys = 1'000'000;
  ZipfGenerator zipf(kKeys, 0.0);
  Rng a(15), b(15);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(zipf.Next(a), b.Next() % kKeys);
}

TEST(Zipf, SkewGrowsWithTheta) {
  Rng rng(12);
  auto top_share = [&](double theta) {
    ZipfGenerator zipf(1000, theta);
    int top = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      if (zipf.Next(rng) == 0) ++top;
    }
    return double(top) / n;
  };
  double s_low = top_share(0.5);
  double s_high = top_share(0.99);
  EXPECT_GT(s_high, s_low);
  EXPECT_GT(s_high, 0.05);  // rank-0 share under theta=.99, n=1000
}

TEST(Zipf, SamplesInRange) {
  Rng rng(13);
  ZipfGenerator zipf(37, 0.9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(rng), 37u);
}

TEST(Zipf, LargeKeySpaceConstructsFast) {
  ZipfGenerator zipf(2000000000ULL, 0.99);  // exercises the tail approximation
  Rng rng(14);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Next(rng), 2000000000ULL);
}

}  // namespace
}  // namespace planet

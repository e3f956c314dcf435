#include "planet/predictor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace planet {
namespace {

TEST(BinomialTail, ExactSmallCases) {
  EXPECT_DOUBLE_EQ(BinomialTail(5, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTail(5, 0.5, 6), 0.0);
  EXPECT_NEAR(BinomialTail(1, 0.3, 1), 0.3, 1e-12);
  // P(X >= 2), X ~ Bin(2, 0.5) = 0.25.
  EXPECT_NEAR(BinomialTail(2, 0.5, 2), 0.25, 1e-12);
  // P(X >= 4), X ~ Bin(5, 0.9) = 5*0.9^4*0.1 + 0.9^5.
  EXPECT_NEAR(BinomialTail(5, 0.9, 4), 5 * 0.6561 * 0.1 + 0.59049, 1e-9);
}

TEST(BinomialTail, MonotoneInP) {
  for (int k = 1; k <= 5; ++k) {
    double prev = -1;
    for (double p = 0.0; p <= 1.0001; p += 0.1) {
      double t = BinomialTail(5, p, k);
      EXPECT_GE(t, prev - 1e-12);
      prev = t;
    }
  }
}

TEST(LatencyModel, LearnsCdf) {
  LatencyModel model(2, Millis(100));
  for (int i = 0; i < 1000; ++i) {
    model.RecordRtt(0, 1, Millis(80) + (i % 20) * Millis(1));
  }
  EXPECT_GT(model.ProbResponseWithin(0, 1, Millis(100)), 0.99);
  EXPECT_LT(model.ProbResponseWithin(0, 1, Millis(50)), 0.01);
  EXPECT_NEAR(double(model.RttPercentile(0, 1, 50)), double(Millis(90)),
              double(Millis(8)));
}

TEST(LatencyModel, PriorBeforeData) {
  LatencyModel model(2, Millis(100));
  // No data: prior-hint behaviour, monotone in budget.
  double p_small = model.ProbResponseWithin(0, 1, Millis(10));
  double p_large = model.ProbResponseWithin(0, 1, Millis(500));
  EXPECT_LT(p_small, p_large);
  EXPECT_EQ(model.RttPercentile(0, 1, 99), Millis(100));
}

TEST(LatencyModel, ConditionalTail) {
  LatencyModel model(2, Millis(100));
  for (int i = 0; i < 2000; ++i) {
    model.RecordRtt(0, 1, Millis(80) + (i % 40) * Millis(1));
  }
  // Already waited 100ms of a [80,120]ms distribution: 10 more ms covers
  // roughly half the remaining mass.
  double p = model.ProbResponseWithinGiven(0, 1, Millis(100), Millis(10));
  EXPECT_GT(p, 0.25);
  EXPECT_LT(p, 0.8);
  // Waited far beyond everything observed: overdue fallback.
  double overdue =
      model.ProbResponseWithinGiven(0, 1, Millis(1000), Millis(10));
  EXPECT_NEAR(overdue, 0.5, 1e-9);
}

TEST(ConflictModel, StartsAtZero) {
  ConflictModel model(0.05);
  EXPECT_DOUBLE_EQ(model.ConflictProb(42), 0.0);
}

TEST(ConflictModel, LearnsPerKeyRates) {
  ConflictModel model(0.1);
  for (int i = 0; i < 200; ++i) {
    model.RecordVote(1, /*accepted=*/false);  // hot key: always conflicts
    model.RecordVote(2, /*accepted=*/true);   // cold key: never conflicts
  }
  EXPECT_GT(model.ConflictProb(1), 0.9);
  EXPECT_LT(model.ConflictProb(2), 0.3);  // pulled up slightly by global
  EXPECT_GT(model.ConflictProb(1), model.ConflictProb(2));
}

TEST(ConflictModel, UnseenKeyUsesGlobal) {
  ConflictModel model(0.1);
  for (int i = 0; i < 100; ++i) model.RecordVote(1, false);
  double unseen = model.ConflictProb(999);
  EXPECT_GT(unseen, 0.5) << "global rate should dominate for unseen keys";
}

TEST(ConflictModel, TrackedKeysStayBounded) {
  ConflictModel model(0.1, /*max_tracked_keys=*/100);
  for (Key k = 0; k < 100000; ++k) {
    model.RecordVote(k, k % 2 == 0);
    model.RecordOptionOutcome(k, k % 2 == 0);
  }
  EXPECT_LE(model.tracked_vote_keys(), 100u);
  EXPECT_LE(model.tracked_option_keys(), 100u);
  // The global rate still reflects every observation.
  EXPECT_EQ(model.observations(), 100000u);
  EXPECT_EQ(model.option_observations(), 100000u);
}

TEST(ConflictModel, EvictionSparesRecentlyTouchedKeys) {
  ConflictModel model(0.1, /*max_tracked_keys=*/64);
  // Key 7 is hot: touched on every round, so it must survive churn from a
  // stream of one-shot cold keys.
  for (Key cold = 1000; cold < 2000; ++cold) {
    model.RecordVote(7, false);
    model.RecordVote(cold, true);
  }
  EXPECT_LE(model.tracked_vote_keys(), 64u);
  EXPECT_GT(model.ConflictProb(7), 0.9)
      << "hot key's per-key EWMA must survive cold-key eviction";
}

TEST(ConflictModel, EvictionIsDeterministic) {
  auto run = [] {
    ConflictModel model(0.1, /*max_tracked_keys=*/32);
    for (Key k = 0; k < 1000; ++k) model.RecordVote(k, k % 3 == 0);
    std::vector<double> probs;
    for (Key k = 0; k < 1000; ++k) probs.push_back(model.ConflictProb(k));
    return probs;
  };
  EXPECT_EQ(run(), run());
}

class EstimatorTest : public ::testing::Test {
 protected:
  EstimatorTest()
      : latency_(5, Millis(100)),
        conflict_(0.1),
        estimator_(MakeMdcc(), MakePlanet(), &latency_, &conflict_) {}

  static MdccConfig MakeMdcc() {
    MdccConfig c;
    c.num_dcs = 5;
    return c;
  }
  static PlanetConfig MakePlanet() {
    PlanetConfig c;
    c.classic_damp = 0.5;
    return c;
  }

  OptionProgress MakeOption(Key key, int accepts, int rejects) {
    OptionProgress op;
    op.option.key = key;
    op.option.txn = 1;
    op.votes.assign(5, -1);
    for (int i = 0; i < accepts; ++i) op.votes[size_t(i)] = 1;
    for (int i = 0; i < rejects; ++i) op.votes[size_t(accepts + i)] = 0;
    op.accepts = accepts;
    op.rejects = rejects;
    return op;
  }

  TxnView MakeView(std::vector<OptionProgress> options) {
    TxnView view;
    view.phase = TxnPhase::kProposing;
    view.options = std::move(options);
    return view;
  }

  LatencyModel latency_;
  ConflictModel conflict_;
  CommitLikelihoodEstimator estimator_;
};

TEST_F(EstimatorTest, NoConflictHistoryMeansHighLikelihood) {
  TxnView view = MakeView({MakeOption(1, 0, 0)});
  EXPECT_GT(estimator_.Estimate(view), 0.99);
}

TEST_F(EstimatorTest, LikelihoodRisesWithAccepts) {
  // Moderate conflict environment.
  for (int i = 0; i < 300; ++i) conflict_.RecordVote(1, i % 3 != 0);
  double l0 = estimator_.Estimate(MakeView({MakeOption(1, 0, 0)}));
  double l2 = estimator_.Estimate(MakeView({MakeOption(1, 2, 0)}));
  double l4 = estimator_.Estimate(MakeView({MakeOption(1, 4, 0)}));
  EXPECT_LT(l0, l2);
  EXPECT_LT(l2, l4);
  EXPECT_DOUBLE_EQ(l4, 1.0) << "fast quorum already reached";
}

TEST_F(EstimatorTest, LikelihoodFallsWithRejects) {
  for (int i = 0; i < 300; ++i) conflict_.RecordVote(1, i % 3 != 0);
  double l0 = estimator_.Estimate(MakeView({MakeOption(1, 0, 0)}));
  double l1 = estimator_.Estimate(MakeView({MakeOption(1, 0, 1)}));
  double l2 = estimator_.Estimate(MakeView({MakeOption(1, 0, 2)}));
  EXPECT_GT(l0, l1);
  EXPECT_GT(l1, l2);
}

TEST_F(EstimatorTest, DecidedOptionsAreCertain) {
  OptionProgress chosen = MakeOption(1, 4, 0);
  chosen.decided = true;
  chosen.chosen = true;
  OptionProgress failed = MakeOption(2, 0, 2);
  failed.decided = true;
  failed.chosen = false;
  EXPECT_DOUBLE_EQ(estimator_.Estimate(MakeView({chosen})), 1.0);
  EXPECT_DOUBLE_EQ(estimator_.Estimate(MakeView({failed})), 0.0);
}

TEST_F(EstimatorTest, MultiOptionMultiplies) {
  for (int i = 0; i < 300; ++i) conflict_.RecordVote(1, i % 2 == 0);
  for (int i = 0; i < 300; ++i) conflict_.RecordVote(2, i % 2 == 0);
  double single = estimator_.Estimate(MakeView({MakeOption(1, 0, 0)}));
  double both = estimator_.Estimate(
      MakeView({MakeOption(1, 0, 0), MakeOption(2, 0, 0)}));
  EXPECT_NEAR(both, single * single, 0.02);
}

TEST_F(EstimatorTest, PhaseShortCircuits) {
  TxnView view = MakeView({MakeOption(1, 0, 0)});
  view.phase = TxnPhase::kCommitted;
  EXPECT_DOUBLE_EQ(estimator_.Estimate(view), 1.0);
  view.phase = TxnPhase::kAborted;
  EXPECT_DOUBLE_EQ(estimator_.Estimate(view), 0.0);
}

TEST_F(EstimatorTest, FreshEstimateMatchesZeroVoteView) {
  for (int i = 0; i < 200; ++i) conflict_.RecordVote(7, i % 4 == 0);
  WriteOption w;
  w.key = 7;
  double fresh = estimator_.EstimateFresh({w});
  double inflight = estimator_.Estimate(MakeView({MakeOption(7, 0, 0)}));
  EXPECT_NEAR(fresh, inflight, 1e-9);
}

TEST_F(EstimatorTest, EstimateByTightBudgetLowers) {
  for (int i = 0; i < 1000; ++i) {
    latency_.RecordRtt(0, static_cast<DcId>(i % 5), Millis(80));
  }
  TxnView view = MakeView({MakeOption(1, 0, 0)});
  view.options[0].proposed_at = 0;
  double eventually = estimator_.Estimate(view);
  double by_tight = estimator_.EstimateBy(view, /*now=*/0, Millis(10), 0);
  double by_loose = estimator_.EstimateBy(view, /*now=*/0, Seconds(10), 0);
  EXPECT_LT(by_tight, eventually);
  EXPECT_NEAR(by_loose, eventually, 0.05);
}

TEST(ConflictModel, OptionOutcomesLearnedPerKey) {
  ConflictModel model(0.1);
  for (int i = 0; i < 100; ++i) {
    model.RecordOptionOutcome(1, false);  // hot key: options always fail
    model.RecordOptionOutcome(2, true);
  }
  EXPECT_GT(model.OptionFailProb(1), 0.9);
  EXPECT_LT(model.OptionFailProb(2), 0.3);
  EXPECT_EQ(model.option_observations(), 200u);
}

TEST_F(EstimatorTest, FreshUsesOptionOutcomesWhenAvailable) {
  // Key 5 fails 60% of the time at the option level.
  for (int i = 0; i < 500; ++i) {
    conflict_.RecordOptionOutcome(5, i % 5 >= 3 ? false : true);
  }
  double fresh = estimator_.FreshOptionLikelihood(5);
  EXPECT_NEAR(fresh, 0.6, 0.1);
}

TEST_F(EstimatorTest, EffectiveAcceptProbInvertsFreshLikelihood) {
  for (int i = 0; i < 500; ++i) {
    conflict_.RecordOptionOutcome(5, i % 2 == 0);
  }
  double q = estimator_.EffectiveAcceptProb(5);
  ASSERT_GT(q, 0.0);
  ASSERT_LT(q, 1.0);
  // Plugging q back into the fresh-success formula recovers the target: the
  // zero-vote in-flight estimate coincides with the fresh estimate.
  OptionProgress op = MakeOption(5, 0, 0);
  double inflight = estimator_.Estimate(MakeView({op}));
  EXPECT_NEAR(inflight, estimator_.FreshOptionLikelihood(5), 1e-6);
}

TEST_F(EstimatorTest, InflightStillMonotoneWithOptionModel) {
  for (int i = 0; i < 500; ++i) {
    conflict_.RecordOptionOutcome(5, i % 2 == 0);
  }
  double l0 = estimator_.Estimate(MakeView({MakeOption(5, 0, 0)}));
  double l2 = estimator_.Estimate(MakeView({MakeOption(5, 2, 0)}));
  double r1 = estimator_.Estimate(MakeView({MakeOption(5, 0, 1)}));
  EXPECT_LT(l0, l2);
  EXPECT_GT(l0, r1);
}

// The plain 30-step bisection that AcceptProbForTarget's memo and dyadic
// table must reproduce bit for bit.
double ReferenceAcceptProb(const CommitLikelihoodEstimator& est,
                           double target) {
  double lo = 0.0, hi = 1.0;
  for (int iter = 0; iter < 30; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (est.FreshSuccessGivenAcceptProb(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(AcceptProbInverse, BitIdenticalToPlainBisection) {
  constexpr int kDepth = CommitLikelihoodEstimator::kTableDepth;
  Rng rng(2024);
  for (int num_dcs : {3, 5, 7}) {
    for (bool enable_classic : {true, false}) {
      for (double classic_damp : {0.5, 0.85}) {
        MdccConfig mdcc;
        mdcc.num_dcs = num_dcs;
        mdcc.enable_classic = enable_classic;
        PlanetConfig planet;
        planet.classic_damp = classic_damp;
        LatencyModel latency(num_dcs, Millis(100));
        ConflictModel conflict(0.1);
        CommitLikelihoodEstimator est(mdcc, planet, &latency, &conflict);

        // Every table value and its neighbours (the comparisons closest to
        // a tie), the ends, and random targets.
        std::vector<double> targets = {0.0, 1.0};
        for (int k = 0; k <= (1 << kDepth); ++k) {
          double f = est.FreshSuccessGivenAcceptProb(std::ldexp(k, -kDepth));
          targets.push_back(f);
          targets.push_back(std::nextafter(f, -1.0));
          targets.push_back(std::nextafter(f, 2.0));
        }
        for (int i = 0; i < 2000; ++i) targets.push_back(rng.NextDouble());

        int mismatches = 0;
        for (double target : targets) {
          if (!SameBits(est.AcceptProbForTarget(target),
                        ReferenceAcceptProb(est, target))) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0)
            << "num_dcs=" << num_dcs << " classic=" << enable_classic
            << " damp=" << classic_damp << " over " << targets.size()
            << " targets";
      }
    }
  }
}

TEST(AcceptProbInverse, MemoHitCollisionAndColdEstimatorAgree) {
  MdccConfig mdcc;
  PlanetConfig planet;
  LatencyModel latency(mdcc.num_dcs, Millis(100));
  ConflictModel conflict(0.1);
  CommitLikelihoodEstimator warm(mdcc, planet, &latency, &conflict);

  Rng rng(99);
  const double a = rng.NextDouble();
  double b = rng.NextDouble();
  while (b == a || CommitLikelihoodEstimator::AcceptMemoSlot(b) !=
                       CommitLikelihoodEstimator::AcceptMemoSlot(a)) {
    b = rng.NextDouble();
  }
  const double ref_a = ReferenceAcceptProb(warm, a);
  const double ref_b = ReferenceAcceptProb(warm, b);

  EXPECT_TRUE(SameBits(warm.AcceptProbForTarget(a), ref_a));  // miss
  EXPECT_TRUE(SameBits(warm.AcceptProbForTarget(a), ref_a));  // hit
  EXPECT_TRUE(SameBits(warm.AcceptProbForTarget(b), ref_b));  // overwrites
  EXPECT_TRUE(SameBits(warm.AcceptProbForTarget(a), ref_a));  // evicted
  CommitLikelihoodEstimator cold(mdcc, planet, &latency, &conflict);
  EXPECT_TRUE(SameBits(cold.AcceptProbForTarget(a), ref_a));
  EXPECT_TRUE(SameBits(cold.AcceptProbForTarget(0.0),
                       ReferenceAcceptProb(cold, 0.0)));  // pre-filled slot
}

TEST(Calibration, BucketsAndEce) {
  CalibrationTracker tracker(10);
  // Perfectly calibrated stream: predicted p, commits with rate p.
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    double p = rng.NextDouble();
    tracker.Record(p, rng.Bernoulli(p));
  }
  EXPECT_EQ(tracker.total(), 20000u);
  EXPECT_LT(tracker.ExpectedCalibrationError(), 0.03);
  auto buckets = tracker.Buckets();
  ASSERT_EQ(buckets.size(), 10u);
  // Observed rate in each bucket tracks its midpoint.
  for (const auto& b : buckets) {
    ASSERT_GT(b.total, 100u);
    double observed = double(b.committed) / double(b.total);
    EXPECT_NEAR(observed, (b.lo + b.hi) / 2, 0.06);
  }
}

TEST(Calibration, MiscalibratedStreamHasHighEce) {
  CalibrationTracker tracker(10);
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    tracker.Record(0.9, rng.Bernoulli(0.2));  // overconfident predictor
  }
  EXPECT_GT(tracker.ExpectedCalibrationError(), 0.5);
}

TEST(Calibration, EdgePredictionsClamp) {
  CalibrationTracker tracker(10);
  tracker.Record(-0.5, false);
  tracker.Record(1.5, true);
  tracker.Record(1.0, true);
  EXPECT_EQ(tracker.total(), 3u);
  auto buckets = tracker.Buckets();
  EXPECT_EQ(buckets.front().total, 1u);
  EXPECT_EQ(buckets.back().total, 2u);
}

}  // namespace
}  // namespace planet

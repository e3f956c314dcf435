#include "planet/predictor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/logging.h"

namespace planet {

// -------------------------------------------------------------- doom gauge

DoomGauge::DoomGauge(double threshold, double hysteresis, int confirm)
    : threshold_(threshold),
      hysteresis_(std::max(0.0, hysteresis)),
      confirm_(std::max(1, confirm)) {}

bool DoomGauge::Update(double doom) {
  if (threshold_ <= 0.0) return false;
  if (doom >= threshold_) {
    ++streak_;
  } else if (doom < threshold_ - hysteresis_) {
    streak_ = 0;
  }
  // Inside the hysteresis band the streak holds: evidence has weakened but
  // not recovered, so neither arm nor disarm.
  return streak_ >= confirm_;
}

// ---------------------------------------------------------------- latency

LatencyModel::LatencyModel(int num_dcs, Duration prior_hint)
    : num_dcs_(num_dcs),
      prior_hint_(prior_hint),
      hists_(static_cast<size_t>(num_dcs) * static_cast<size_t>(num_dcs)) {
  PLANET_CHECK(num_dcs >= 1);
}

size_t LatencyModel::Index(DcId from, DcId to) const {
  PLANET_CHECK(from >= 0 && from < num_dcs_ && to >= 0 && to < num_dcs_);
  return static_cast<size_t>(from) * static_cast<size_t>(num_dcs_) +
         static_cast<size_t>(to);
}

void LatencyModel::RecordRtt(DcId from, DcId to, Duration rtt) {
  hists_[Index(from, to)].Record(rtt);
  ++total_samples_;
}

const Histogram& LatencyModel::HistogramFor(DcId from, DcId to) const {
  return hists_[Index(from, to)];
}

double LatencyModel::ProbResponseWithin(DcId from, DcId to,
                                        Duration budget) const {
  const Histogram& h = hists_[Index(from, to)];
  if (h.count() < 8) {
    // Uninformed: fall back to the prior hint as a soft step function.
    if (budget >= 2 * prior_hint_) return 0.99;
    if (budget >= prior_hint_) return 0.9;
    return 0.5;
  }
  return h.CdfAt(budget);
}

double LatencyModel::ProbResponseWithinGiven(DcId from, DcId to,
                                             Duration elapsed,
                                             Duration budget) const {
  const Histogram& h = hists_[Index(from, to)];
  if (h.count() < 8) return ProbResponseWithin(from, to, elapsed + budget);
  double f_e = h.CdfAt(elapsed);
  double f_eb = h.CdfAt(elapsed + budget);
  double denom = 1.0 - f_e;
  if (denom < 1e-6) {
    // The reply is far overdue relative to everything observed; it is most
    // likely delayed by retransmissions. Stay mildly pessimistic.
    return 0.5;
  }
  return std::clamp((f_eb - f_e) / denom, 0.0, 1.0);
}

bool LatencyModel::HasData(DcId from, DcId to) const {
  return hists_[Index(from, to)].count() >= 8;
}

Duration LatencyModel::RttPercentile(DcId from, DcId to, double pct) const {
  const Histogram& h = hists_[Index(from, to)];
  if (h.count() == 0) return prior_hint_;
  return h.Percentile(pct);
}

// ------------------------------------------------------------ reachability

ReachabilityTracker::ReachabilityTracker(int num_dcs, Duration dead_after)
    : num_dcs_(num_dcs),
      dead_after_(dead_after),
      first_unanswered_(static_cast<size_t>(num_dcs), -1) {
  PLANET_CHECK(num_dcs >= 1);
}

void ReachabilityTracker::RecordProbe(DcId dc, SimTime now) {
  PLANET_CHECK(dc >= 0 && dc < num_dcs_);
  SimTime& first = first_unanswered_[static_cast<size_t>(dc)];
  if (first < 0) first = now;
}

void ReachabilityTracker::RecordAck(DcId dc, SimTime now) {
  PLANET_CHECK(dc >= 0 && dc < num_dcs_);
  (void)now;
  first_unanswered_[static_cast<size_t>(dc)] = -1;
}

bool ReachabilityTracker::IsDead(DcId dc, SimTime now) const {
  PLANET_CHECK(dc >= 0 && dc < num_dcs_);
  if (dead_after_ <= 0) return false;
  SimTime first = first_unanswered_[static_cast<size_t>(dc)];
  return first >= 0 && now - first > dead_after_;
}

int ReachabilityTracker::AliveCount(SimTime now) const {
  int alive = 0;
  for (DcId d = 0; d < num_dcs_; ++d) {
    if (!IsDead(d, now)) ++alive;
  }
  return alive;
}

// ---------------------------------------------------------------- conflict

ConflictModel::ConflictModel(double alpha, size_t max_tracked_keys)
    : alpha_(alpha),
      max_tracked_keys_(std::max<size_t>(1, max_tracked_keys)),
      global_votes_(alpha),
      global_options_(alpha) {}

void ConflictModel::RecordVote(Key key, bool accepted) {
  double x = accepted ? 0.0 : 1.0;
  global_votes_.Observe(x);
  Touch(&votes_per_key_, key, x);
}

void ConflictModel::RecordOptionOutcome(Key key, bool chosen) {
  double x = chosen ? 0.0 : 1.0;
  global_options_.Observe(x);
  Touch(&options_per_key_, key, x);
}

void ConflictModel::Touch(KeyMap* per_key, Key key, double x) {
  auto [it, inserted] = per_key->try_emplace(key, KeyStats{Ewma(alpha_), 0});
  it->second.ewma.Observe(x);
  it->second.last_touch = ++tick_;
  if (inserted && per_key->size() > max_tracked_keys_) {
    // Evict the coldest half by last observation. last_touch is unique per
    // entry, so the survivor set is independent of map iteration order.
    std::vector<std::pair<uint64_t, Key>> by_age;
    by_age.reserve(per_key->size());
    for (const auto& [k, stats] : *per_key) {
      by_age.emplace_back(stats.last_touch, k);
    }
    size_t evict = by_age.size() - max_tracked_keys_ / 2;
    std::nth_element(by_age.begin(),
                     by_age.begin() + static_cast<ptrdiff_t>(evict),
                     by_age.end());
    for (size_t i = 0; i < evict; ++i) per_key->erase(by_age[i].second);
  }
}

double ConflictModel::Blend(const KeyMap& per_key, const Ewma& global,
                            Key key) {
  double g = global.observations() > 0 ? global.value() : 0.0;
  auto it = per_key.find(key);
  if (it == per_key.end()) return g;
  const Ewma& local = it->second.ewma;
  // Blend by observation count: trust the key once it has ~8 observations.
  double w =
      std::min<double>(1.0, static_cast<double>(local.observations()) / 8.0);
  return std::clamp(w * local.value() + (1.0 - w) * g, 0.0, 1.0);
}

double ConflictModel::ConflictProb(Key key) const {
  return Blend(votes_per_key_, global_votes_, key);
}

double ConflictModel::OptionFailProb(Key key) const {
  return Blend(options_per_key_, global_options_, key);
}

// ---------------------------------------------------------------- binomial

double BinomialTail(int n, double p, int k) {
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Direct sum; n is the replication factor (tiny).
  double tail = 0.0;
  for (int i = k; i <= n; ++i) {
    double c = 1.0;
    for (int j = 0; j < i; ++j) c *= double(n - j) / double(j + 1);
    tail += c * std::pow(p, i) * std::pow(1.0 - p, n - i);
  }
  return std::clamp(tail, 0.0, 1.0);
}

// ---------------------------------------------------------------- estimator

CommitLikelihoodEstimator::CommitLikelihoodEstimator(
    const MdccConfig& mdcc, const PlanetConfig& planet,
    const LatencyModel* latency, const ConflictModel* conflict,
    const ReachabilityTracker* reach)
    : mdcc_(mdcc),
      planet_(planet),
      latency_(latency),
      conflict_(conflict),
      reach_(reach),
      table_((size_t{1} << kTableDepth) + 1,
             std::numeric_limits<double>::quiet_NaN()) {
  PLANET_CHECK(latency != nullptr && conflict != nullptr);
  memo_.assign(kMemoSlots, MemoEntry{std::bit_cast<uint64_t>(0.0),
                                     Bisect(0.0)});
}

double CommitLikelihoodEstimator::ClassicRescue(double conflict_prob) const {
  if (!mdcc_.enable_classic) return 0.0;
  // Master must accept (1 - c); then a majority of all acceptors, of which
  // the master is one.
  double master_ok = 1.0 - conflict_prob;
  double peers_ok = BinomialTail(mdcc_.num_dcs - 1, 1.0 - conflict_prob,
                                 mdcc_.ClassicQuorum() - 1);
  return master_ok * peers_ok;
}

double CommitLikelihoodEstimator::FreshSuccessGivenAcceptProb(double q) const {
  double p_fast = BinomialTail(mdcc_.num_dcs, q, mdcc_.FastQuorum());
  double rescue = planet_.classic_damp * ClassicRescue(1.0 - q);
  return std::clamp(p_fast + (1.0 - p_fast) * rescue, 0.0, 1.0);
}

double CommitLikelihoodEstimator::FreshOptionLikelihood(Key key) const {
  if (planet_.use_option_level_model &&
      conflict_->option_observations() > 0) {
    // The option-level outcome rate is the calibrated signal.
    return std::clamp(1.0 - conflict_->OptionFailProb(key), 0.0, 1.0);
  }
  // No option outcomes yet (or vote-level ablation): compose vote-level
  // rates under the independence assumption.
  return FreshSuccessGivenAcceptProb(1.0 - conflict_->ConflictProb(key));
}

double CommitLikelihoodEstimator::EffectiveAcceptProb(Key key) const {
  // Invert FreshSuccessGivenAcceptProb (monotone increasing in q) so that
  // the zero-vote in-flight estimate equals FreshOptionLikelihood.
  return AcceptProbForTarget(FreshOptionLikelihood(key));
}

size_t CommitLikelihoodEstimator::AcceptMemoSlot(double target) {
  // Fibonacci hashing: the top bits of the product mix every target bit.
  static_assert(std::has_single_bit(unsigned{kMemoSlots}));
  constexpr int kShift = 64 - std::countr_zero(unsigned{kMemoSlots});
  return static_cast<size_t>(
      (std::bit_cast<uint64_t>(target) * 0x9E3779B97F4A7C15ULL) >> kShift);
}

double CommitLikelihoodEstimator::AcceptProbForTarget(double target) const {
  const uint64_t bits = std::bit_cast<uint64_t>(target);
  MemoEntry& entry = memo_[AcceptMemoSlot(target)];
  if (entry.target_bits != bits) entry = MemoEntry{bits, Bisect(target)};
  return entry.q;
}

double CommitLikelihoodEstimator::Bisect(double target) const {
  // Up to depth kTableDepth every bracket end and midpoint is exactly
  // k / 2^kTableDepth, so walk those steps on integer indices against the
  // table; the comparisons, and hence the bracket, match the live bisection.
  uint32_t lo_k = 0, hi_k = uint32_t{1} << kTableDepth;
  for (int iter = 0; iter < kTableDepth; ++iter) {
    uint32_t mid_k = (lo_k + hi_k) / 2;
    if (TableAt(mid_k) < target) {
      lo_k = mid_k;
    } else {
      hi_k = mid_k;
    }
  }
  double lo = std::ldexp(double(lo_k), -kTableDepth);
  double hi = std::ldexp(double(hi_k), -kTableDepth);
  for (int iter = kTableDepth; iter < kBisectSteps; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (FreshSuccessGivenAcceptProb(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double CommitLikelihoodEstimator::TableAt(uint32_t k) const {
  double& f = table_[k];
  if (std::isnan(f)) {
    f = FreshSuccessGivenAcceptProb(std::ldexp(double(k), -kTableDepth));
  }
  return f;
}

double CommitLikelihoodEstimator::OptionLikelihood(const OptionProgress& op,
                                                   bool with_latency,
                                                   SimTime now,
                                                   Duration budget,
                                                   DcId client_dc) const {
  if (op.decided) return op.chosen ? 1.0 : 0.0;
  // Per-acceptor accept probability implied by the calibrated option-level
  // outcome rate (consistent with FreshOptionLikelihood at zero votes).
  double q_eff = EffectiveAcceptProb(op.option.key);
  double c = 1.0 - q_eff;

  // Failure detection: acceptors silent past dead_after cannot vote. Their
  // outstanding votes are written off, and the classic rescue disappears
  // when no quorum of live acceptors remains — or when the master is dead
  // and failover is disabled.
  int n = mdcc_.num_dcs;
  const bool detect = reach_ != nullptr && now > 0;
  int dead_total = 0;
  bool master_dead = false;
  if (detect) {
    for (DcId d = 0; d < n; ++d) {
      if (reach_->IsDead(d, now)) ++dead_total;
    }
    master_dead = reach_->IsDead(mdcc_.MasterOf(op.option.key), now);
  }
  const bool classic_possible =
      n - dead_total >= mdcc_.ClassicQuorum() &&
      (!master_dead || mdcc_.master_failover_timeout > 0);

  if (op.classic_inflight) {
    double rescue = classic_possible ? ClassicRescue(c) : 0.0;
    if (with_latency && rescue > 0) {
      // Classic adds a client->master->peers->master->client exchange; use
      // the master RTT as the dominant term.
      DcId master = mdcc_.MasterOf(op.option.key);
      Duration elapsed = now - op.proposed_at;
      rescue *= latency_->ProbResponseWithinGiven(client_dc, master, elapsed,
                                                  budget);
    }
    return rescue;
  }

  int outstanding = n - op.accepts - op.rejects;
  if (detect && dead_total > 0 &&
      op.votes.size() == static_cast<size_t>(n)) {
    for (DcId d = 0; d < n; ++d) {
      if (op.votes[static_cast<size_t>(d)] == -1 && reach_->IsDead(d, now)) {
        --outstanding;
      }
    }
  }
  int needed = mdcc_.FastQuorum() - op.accepts;
  double p_vote = q_eff;

  double p_fast;
  if (needed <= 0) {
    p_fast = 1.0;
  } else if (needed > outstanding) {
    p_fast = 0.0;
  } else if (with_latency) {
    // Each outstanding acceptor must both accept and answer in time; the
    // per-acceptor in-time probability differs by DC, so use the mean
    // in-time probability across outstanding DCs (votes are near-symmetric
    // at this granularity).
    double in_time_sum = 0.0;
    int counted = 0;
    Duration elapsed = now - op.proposed_at;
    for (DcId d = 0; d < n; ++d) {
      if (op.votes[static_cast<size_t>(d)] != -1) continue;
      if (detect && reach_->IsDead(d, now)) continue;
      in_time_sum +=
          latency_->ProbResponseWithinGiven(client_dc, d, elapsed, budget);
      ++counted;
    }
    double in_time = counted > 0 ? in_time_sum / counted : 1.0;
    p_fast = BinomialTail(outstanding, p_vote * in_time, needed);
  } else {
    p_fast = BinomialTail(outstanding, p_vote, needed);
  }

  double rescue = classic_possible ? planet_.classic_damp * ClassicRescue(c)
                                   : 0.0;
  if (with_latency && rescue > 0) {
    // The rescue path spends at least another master round trip.
    DcId master = mdcc_.MasterOf(op.option.key);
    Duration classic_rtt = latency_->RttPercentile(client_dc, master, 50);
    if (budget < 2 * classic_rtt) rescue = 0.0;
  }
  return std::clamp(p_fast + (1.0 - p_fast) * rescue, 0.0, 1.0);
}

double CommitLikelihoodEstimator::Estimate(const TxnView& view,
                                           SimTime now) const {
  if (view.phase == TxnPhase::kCommitted) return 1.0;
  if (view.phase == TxnPhase::kAborted) return 0.0;
  double likelihood = 1.0;
  for (const OptionProgress& op : view.options) {
    likelihood *= OptionLikelihood(op, /*with_latency=*/false, now, 0, 0);
  }
  return likelihood;
}

double CommitLikelihoodEstimator::EstimateBy(const TxnView& view, SimTime now,
                                             Duration budget,
                                             DcId client_dc) const {
  if (view.phase == TxnPhase::kCommitted) return 1.0;
  if (view.phase == TxnPhase::kAborted) return 0.0;
  double likelihood = 1.0;
  for (const OptionProgress& op : view.options) {
    likelihood *= OptionLikelihood(op, /*with_latency=*/true, now, budget,
                                   client_dc);
  }
  return likelihood;
}

double CommitLikelihoodEstimator::EstimateFresh(
    const std::vector<WriteOption>& writes, SimTime now) const {
  bool any_dead = false;
  if (reach_ != nullptr && now > 0) {
    for (DcId d = 0; d < mdcc_.num_dcs; ++d) {
      if (reach_->IsDead(d, now)) {
        any_dead = true;
        break;
      }
    }
  }
  if (any_dead) {
    // Dead-DC-aware prior: evaluate each write as a zero-vote in-flight
    // option so the reachability terms apply.
    double likelihood = 1.0;
    OptionProgress op;
    op.votes.assign(static_cast<size_t>(mdcc_.num_dcs), -1);
    op.proposed_at = now;
    for (const WriteOption& w : writes) {
      op.option = w;
      likelihood *= OptionLikelihood(op, /*with_latency=*/false, now, 0, 0);
    }
    return likelihood;
  }
  double likelihood = 1.0;
  for (const WriteOption& w : writes) {
    likelihood *= FreshOptionLikelihood(w.key);
  }
  return likelihood;
}

double CommitLikelihoodEstimator::EstimateFreshBy(
    const std::vector<WriteOption>& writes, Duration sla, DcId client_dc,
    SimTime now) const {
  // Admission must never shed load on a cold model: only links with learned
  // data contribute a latency constraint. Warmth depends on client_dc only,
  // not on the individual writes, so scan the links once per call.
  bool warm = true;
  for (DcId d = 0; d < mdcc_.num_dcs; ++d) {
    if (!latency_->HasData(client_dc, d)) {
      warm = false;
      break;
    }
  }
  if (!warm) return EstimateFresh(writes, now);

  // Zero-vote in-flight option proposed "now": the latency-constrained
  // estimate then uses the learned RTT tails for every outstanding DC.
  double likelihood = 1.0;
  OptionProgress op;
  op.votes.assign(static_cast<size_t>(mdcc_.num_dcs), -1);
  op.proposed_at = now;
  for (const WriteOption& w : writes) {
    op.option = w;
    likelihood *= OptionLikelihood(op, /*with_latency=*/true, now, sla,
                                   client_dc);
  }
  return likelihood;
}

// ------------------------------------------------------------- calibration

CalibrationTracker::CalibrationTracker(int buckets)
    : buckets_(buckets),
      totals_(static_cast<size_t>(buckets), 0),
      committed_(static_cast<size_t>(buckets), 0),
      predicted_sum_(static_cast<size_t>(buckets), 0.0) {
  PLANET_CHECK(buckets >= 1);
}

void CalibrationTracker::Record(double predicted, bool committed) {
  predicted = std::clamp(predicted, 0.0, 1.0);
  int b = std::min(buckets_ - 1, static_cast<int>(predicted * buckets_));
  ++totals_[static_cast<size_t>(b)];
  if (committed) ++committed_[static_cast<size_t>(b)];
  predicted_sum_[static_cast<size_t>(b)] += predicted;
  ++total_;
}

std::vector<CalibrationTracker::Bucket> CalibrationTracker::Buckets() const {
  std::vector<Bucket> out;
  for (int b = 0; b < buckets_; ++b) {
    Bucket bucket;
    bucket.lo = double(b) / buckets_;
    bucket.hi = double(b + 1) / buckets_;
    bucket.total = totals_[static_cast<size_t>(b)];
    bucket.committed = committed_[static_cast<size_t>(b)];
    bucket.mean_predicted =
        bucket.total > 0
            ? predicted_sum_[static_cast<size_t>(b)] / double(bucket.total)
            : 0.0;
    // Emit-path only: builds the calibration report after a run drains
    // (the analyzer reaches it through name-based `.Reset()` fan-out).
    out.push_back(bucket);  // planet-lint: allow(hot-path-alloc)
  }
  return out;
}

double CalibrationTracker::ExpectedCalibrationError() const {
  if (total_ == 0) return 0.0;
  double ece = 0.0;
  for (const Bucket& b : Buckets()) {
    if (b.total == 0) continue;
    double observed = double(b.committed) / double(b.total);
    ece += (double(b.total) / double(total_)) *
           std::abs(observed - b.mean_predicted);
  }
  return ece;
}

}  // namespace planet

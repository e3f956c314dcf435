// PlanetClient: the PLANET layer over the MDCC coordinator, plus the shared
// PlanetContext (learned models, admission controller, statistics).
#ifndef PLANET_PLANET_CLIENT_H_
#define PLANET_PLANET_CLIENT_H_

#include <memory>
#include <unordered_map>

#include "common/histogram.h"
#include "mdcc/client.h"
#include "planet/predictor.h"
#include "planet/transaction.h"

namespace planet {

/// Aggregate statistics of all transactions run through a PlanetContext.
struct PlanetStats {
  uint64_t started = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t unavailable = 0;
  uint64_t admission_rejected = 0;
  uint64_t speculated = 0;
  uint64_t speculation_correct = 0;
  uint64_t apologies = 0;
  uint64_t gave_up = 0;
  /// Transactions killed by the predictive early-abort path (experiment
  /// F11); every early abort is also counted in `aborted`.
  uint64_t early_aborts = 0;

  Histogram commit_latency;  ///< Begin -> definitive commit (committed only)
  Histogram final_latency;   ///< Begin -> definitive outcome (all)
  Histogram user_latency;    ///< Begin -> first user notification

  /// Reliability diagram of the prior (at-submit) likelihood predictions.
  CalibrationTracker calibration{10};

  double CommitRate() const {
    uint64_t finished = committed + aborted + unavailable;
    return finished == 0 ? 0.0 : double(committed) / double(finished);
  }
  double ApologyRate() const {
    return speculated == 0 ? 0.0 : double(apologies) / double(speculated);
  }

  /// Zeroes every counter and histogram (keeps the learned models alive;
  /// used to discard warm-up phases in experiments).
  void Reset() {
    int buckets = static_cast<int>(calibration.Buckets().size());
    *this = PlanetStats{};
    calibration = CalibrationTracker(buckets);
  }
};

/// State shared by the PlanetClients of one deployment: the online-learned
/// latency/conflict models, the estimator, and the statistics sink. Share
/// one context across all clients of a data center (or globally) so every
/// client benefits from every observation.
class PlanetContext {
 public:
  PlanetContext(const MdccConfig& mdcc, const PlanetConfig& planet);

  const MdccConfig& mdcc_config() const { return mdcc_; }
  const PlanetConfig& planet_config() const { return planet_; }
  /// Edits reach the clients, which read the config per call, but not the
  /// estimator: it copied the config at construction (see predictor.h).
  PlanetConfig& mutable_planet_config() { return planet_; }

  LatencyModel& latency_model() { return latency_; }
  ConflictModel& conflict_model() { return conflict_; }
  ReachabilityTracker& reachability() { return reach_; }
  const ReachabilityTracker& reachability() const { return reach_; }
  const CommitLikelihoodEstimator& estimator() const { return estimator_; }
  PlanetStats& stats() { return stats_; }
  const PlanetStats& stats() const { return stats_; }

 private:
  MdccConfig mdcc_;
  PlanetConfig planet_;
  LatencyModel latency_;
  ConflictModel conflict_;
  ReachabilityTracker reach_;
  CommitLikelihoodEstimator estimator_;
  PlanetStats stats_;
};

/// One PLANET client endpoint: wraps one MDCC coordinator client and runs
/// the programming model (stages, callbacks, prediction, speculation,
/// admission control).
class PlanetClient {
 public:
  /// `db` must outlive this client; `ctx` is shared and must outlive it too.
  PlanetClient(Client* db, PlanetContext* ctx);

  /// Starts a transaction and returns its handle.
  PlanetTransaction Begin();

  Client* db() const { return db_; }
  PlanetContext* context() const { return ctx_; }
  DcId dc() const { return db_->dc(); }

  /// Attaches a history recorder to the underlying MDCC coordinator: the
  /// PLANET layer adds no storage accesses of its own (admission-rejected
  /// transactions never submit writes), so the coordinator's log is the
  /// complete history of this client. Null disables recording (default).
  void SetHistoryRecorder(HistoryRecorder* recorder) {
    db_->SetHistoryRecorder(recorder);
  }

  /// Isolation mode of the underlying coordinator (the PLANET layer itself
  /// performs no reads, so forwarding is the complete semantics).
  void SetIsolation(IsolationLevel isolation) { db_->SetIsolation(isolation); }
  IsolationLevel isolation() const { return db_->isolation(); }

  /// Forwards predictive-replay commit delays to the coordinator.
  void SetScheduleDelays(const ScheduleDelays* delays) {
    db_->SetScheduleDelays(delays);
  }

  // -- Handle backends (called by PlanetTransaction) ---------------------
  void Read(TxnId txn, Key key, std::function<void(Status, Value)> cb);
  [[nodiscard]] Status Write(TxnId txn, Key key, Value value);
  [[nodiscard]] Status Add(TxnId txn, Key key, Value delta);
  void SetOnProgress(TxnId txn, std::function<void(const TxnProgress&)> cb);
  void SetOnStage(TxnId txn, std::function<void(PlanetStage)> cb);
  void SetOnFinal(TxnId txn, std::function<void(Status)> cb);
  void SetOnApology(TxnId txn, std::function<void()> cb);
  void SetTimeout(TxnId txn, Duration timeout,
                  std::function<void(PlanetTransaction&)> cb);
  void Commit(TxnId txn, std::function<void(const Outcome&)> user_cb);
  /// Drops a not-yet-submitted transaction (e.g. after a read timeout
  /// against a crashed replica). No-op once submitted.
  void AbortEarly(TxnId txn);
  double Likelihood(TxnId txn) const;
  double LikelihoodBy(TxnId txn, Duration budget) const;
  void Speculate(TxnId txn);
  void GiveUp(TxnId txn);
  PlanetStage StageOf(TxnId txn) const;

 private:
  struct TxnState {
    TxnId id = kInvalidTxnId;
    SimTime begin = 0;
    SimTime submit = 0;
    PlanetStage stage = PlanetStage::kExecuting;
    std::function<void(const TxnProgress&)> on_progress;
    std::function<void(PlanetStage)> on_stage;
    std::function<void(Status)> on_final;
    std::function<void()> on_apology;
    std::function<void(PlanetTransaction&)> on_timeout;
    std::function<void(const Outcome&)> user_cb;
    Duration timeout = 0;
    EventId timeout_event = kInvalidEventId;
    bool speculated = false;
    bool user_notified = false;
    bool final_known = false;
    double prior_likelihood = 1.0;
    int votes_received = 0;
    int votes_total = 0;
    int options_total = 0;
    int options_decided = 0;
    /// Predictive early abort: armed at submit when kill_threshold > 0.
    DoomGauge gauge;
    bool early_aborted = false;
  };

  TxnState* Find(TxnId txn);
  const TxnState* Find(TxnId txn) const;
  void SetStage(TxnState& state, PlanetStage stage);
  void FireProgress(TxnState& state);
  /// Feeds the kill gauge with the current DoomScore (1 - likelihood) and
  /// kills the transaction through the coordinator once it trips. No-op —
  /// a single branch, no events, no RNG — when the gauge is disabled, so
  /// kill_threshold = 0 replays byte-identical to the vanilla stack.
  void MaybeKill(TxnState& state);
  void NotifyUser(TxnState& state, Status status, bool speculative);
  void ResolveFinal(TxnId txn, Status status);
  void OnDeadline(TxnId txn);

  Client* db_;
  PlanetContext* ctx_;
  std::unordered_map<TxnId, TxnState> txns_;
};

}  // namespace planet

#endif  // PLANET_PLANET_CLIENT_H_

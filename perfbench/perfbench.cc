// perfbench — one benchmark for the three commit stacks.
//
// Runs one workload through `planet`, `mdcc` and `tpc` (2PC), one after
// another in this single thread, on the same workload seed. A round builds
// the three clusters, drives each to quiescence and checks its outputs;
// rounds repeat the same operations until --seconds of wall time have
// passed, and CPU figures are the median over rounds. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics and the
// tracing overhead (--trace 1, which also writes a Chrome trace file).
//
//   perfbench --workload hot-rmw|wide-read|fault-heal --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//   perfbench --selftest
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/convergence.h"
#include "check/serializability.h"
#include "components.h"
#include "harness/cluster.h"
#include "harness/metrics.h"
#include "trace.h"
#include "workload/runners.h"

namespace perfbench {
namespace {

using namespace planet;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

enum class StackKind { kPlanet, kMdcc, kTpc };

const char* StackName(StackKind stack) {
  switch (stack) {
    case StackKind::kPlanet: return "planet";
    case StackKind::kMdcc: return "mdcc";
    case StackKind::kTpc: return "tpc";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Workloads

/// Every workload: 20 clients per DC; PLANET speculates at a 300 ms
/// deadline when the commit likelihood is at least 0.9. A deadline below a
/// latency percentile would pin that percentile at deadline + read time on
/// every seed, so it sits above wide-read's fast-path p99 (~248 ms).
constexpr int kClientsPerDc = 20;
constexpr Duration kSpeculationDeadline = Millis(300);
constexpr double kSpeculateThreshold = 0.9;

struct WorkloadSpec {
  std::string name;
  WorkloadConfig keys;
  /// Open loop (Poisson arrivals per client) when > 0, closed loop otherwise.
  double rate_per_client = 0;
  /// LoadGenerator load window; used when txns_per_client is 0.
  Duration load_window = 0;
  /// > 0: every client issues exactly this many transactions back to back,
  /// so a round attempts the same number of operations on every seed.
  uint64_t txns_per_client = 0;
  FaultSchedule faults;
  int master_dc = -1;
  /// Master failover timeout, also PLANET's dead-DC detection (0 = off).
  Duration failover = 0;
  Duration read_timeout = Seconds(10);
  Duration txn_timeout = Seconds(30);
  /// Predictive early abort on top of speculation (0 = off).
  double kill_threshold = 0;
  /// planet runs no outcome-changing policy here, so planet and mdcc must
  /// commit, abort and time out exactly the same transactions.
  bool outcomes_must_match = false;
  /// Also run the fixed-input reproduction of the named convergence fault.
  bool named_fault_repro = false;
  /// Convergence-oracle self-test knob (MdccConfig::chaos_drop_learn).
  int chaos_drop_learn = 0;
  std::vector<StackKind> stacks = {StackKind::kPlanet, StackKind::kMdcc,
                                   StackKind::kTpc};
};

WorkloadSpec HotRmw(double scale) {
  WorkloadSpec spec;
  spec.name = "hot-rmw";
  spec.keys.num_keys = 10000;
  spec.keys.dist = KeyDist::kZipf;
  spec.keys.zipf_theta = 0.9;
  spec.keys.reads_per_txn = 1;
  spec.keys.writes_per_txn = 2;
  spec.load_window = Duration(double(Seconds(40)) * scale);
  spec.kill_threshold = 0.95;
  return spec;
}

WorkloadSpec WideRead(double scale) {
  WorkloadSpec spec;
  spec.name = "wide-read";
  spec.keys.num_keys = 1000000;
  spec.keys.dist = KeyDist::kUniform;
  spec.keys.reads_per_txn = 4;
  spec.keys.writes_per_txn = 1;
  spec.rate_per_client = 10;
  spec.load_window = Duration(double(Seconds(20)) * scale);
  spec.outcomes_must_match = true;
  return spec;
}

WorkloadSpec FaultHeal(double scale) {
  WorkloadSpec spec;
  spec.name = "fault-heal";
  spec.keys.num_keys = 20000;
  spec.keys.dist = KeyDist::kHotspot;
  spec.keys.hot_keys = 1000;
  spec.keys.hot_fraction = 0.5;
  spec.keys.reads_per_txn = 1;
  spec.keys.writes_per_txn = 2;
  spec.txns_per_client =
      std::max<uint64_t>(1, uint64_t(std::lround(120 * scale)));
  // Every record is mastered in DC 0, which crashes and restarts mid-load.
  spec.master_dc = 0;
  spec.faults.CrashReplica(Seconds(2), 0).RestartReplica(Seconds(6), 0);
  spec.failover = Millis(500);
  spec.read_timeout = Seconds(1);
  spec.txn_timeout = Seconds(5);
  spec.outcomes_must_match = true;
  spec.named_fault_repro = true;
  return spec;
}

/// The named convergence fault, on fixed inputs: `planetlab --stack mdcc
/// --keys 20000 --dist hotspot --hot-keys 200 --hot-frac 0.5
/// --clients-per-dc 20 --duration 60 --seed 7 --fault
/// partition@45:3,heal@52:3` ends with key 199 at v53 on replicas 0-1 and
/// at v54 on replicas 2-4: the two anti-entropy rounds the heal schedules
/// miss a committed version. The seed is fixed, so this part fails the same
/// way in every round.
WorkloadSpec NamedFaultRepro() {
  WorkloadSpec spec;
  spec.name = "named-fault-repro";
  spec.keys.num_keys = 20000;
  spec.keys.dist = KeyDist::kHotspot;
  spec.keys.hot_keys = 200;
  spec.keys.hot_fraction = 0.5;
  spec.keys.reads_per_txn = 1;
  spec.keys.writes_per_txn = 2;
  spec.load_window = Seconds(60);
  spec.faults.PartitionDc(Seconds(45), 3).HealDc(Seconds(52), 3);
  spec.stacks = {StackKind::kMdcc};
  return spec;
}
constexpr uint64_t kNamedFaultSeed = 7;

bool LookupWorkload(const std::string& name, double scale,
                    WorkloadSpec* spec) {
  if (name == "hot-rmw") {
    *spec = HotRmw(scale);
  } else if (name == "wide-read") {
    *spec = WideRead(scale);
  } else if (name == "fault-heal") {
    *spec = FaultHeal(scale);
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// One stack run

/// Per-layer counts from the program's public getters after the drain.
struct Counters {
  uint64_t events = 0, msgs = 0, retransmits = 0, abort_notices = 0;
  size_t peak_pending = 0;  ///< traced runs only (sampled every 1 ms)
  uint64_t accepts = 0, conflict_rejects = 0, stale_rejects = 0;
  uint64_t fast_accepts = 0, classic_proposals = 0, classic_fallbacks = 0;
  uint64_t resolve_queries = 0, failovers = 0, stale_epoch_rejects = 0;
  uint64_t sync_adopted = 0;
  uint64_t speculated = 0, early_aborts = 0, tracked_keys = 0;
  double apology_ratio = 0, calibration_ece = 0;
};

/// CPU and set-up times are reported at the machine speed at which
/// ReferenceLoopSeconds() takes this long: each stack run's figures are
/// scaled by kReferenceSeconds / (its reference time, measured just before
/// and just after its drive).
constexpr double kReferenceSeconds = 0.05;

struct StackRun {
  StackKind stack = StackKind::kPlanet;
  double setup_s = 0, cpu_s = 0, drive_s = 0, check_s = 0;
  double reference_s = kReferenceSeconds;
  int num_dcs = 0;
  uint64_t issued = 0, finished = 0;
  uint64_t failed = 0;  ///< operations that failed (see CheckRun)
  RunMetrics metrics;
  std::vector<Duration> commit_latency;  ///< committed transactions
  std::vector<Duration> user_latency;    ///< every finished transaction
  /// Begin to first user notification, over committed transactions (the
  /// speculative notice or the commit itself), in the program's histogram
  /// too so its percentiles can be checked.
  std::vector<Duration> committed_user_latency;
  Histogram committed_user_hist;
  uint64_t below_wan_floor = 0;  ///< commits faster than one WAN round trip
  SimTime last_finish = 0;
  Duration load_length = 0;  ///< simulated length of the offered load
  Counters counters;
  EstimateTimes estimate;  ///< planet, traced runs only
  std::vector<std::string> problems;  ///< failed checks not tied to one op

  double Scale() const { return kReferenceSeconds / reference_s; }
  double ScaledSetupS() const { return setup_s * Scale(); }
  double CpuUsPerTxn() const {
    return finished == 0 ? 0.0 : cpu_s * Scale() * 1e6 / double(finished);
  }
  double Goodput() const {
    return load_length == 0 ? 0.0
                            : double(metrics.committed) * 1e6 /
                                  double(load_length);
  }
};

/// Closed loop of exactly `count` back-to-back transactions.
class FixedCountLoop {
 public:
  FixedCountLoop(TxnRunner runner, uint64_t count,
                 std::function<void(const TxnResult&)> sink)
      : runner_(std::move(runner)), count_(count), sink_(std::move(sink)) {}
  // In-flight transactions call back into this object.
  FixedCountLoop(const FixedCountLoop&) = delete;
  FixedCountLoop& operator=(const FixedCountLoop&) = delete;

  void Start() { IssueNext(); }
  uint64_t issued() const { return issued_; }
  uint64_t finished() const { return finished_; }

 private:
  void IssueNext() {
    if (issued_ >= count_) return;
    ++issued_;
    runner_([this](TxnResult result) {
      ++finished_;
      sink_(result);
      IssueNext();
    });
  }

  TxnRunner runner_;
  uint64_t count_;
  std::function<void(const TxnResult&)> sink_;
  uint64_t issued_ = 0;
  uint64_t finished_ = 0;
};

/// The load of one stack run: LoadGenerators, or fixed-count loops.
struct Drivers {
  std::vector<std::unique_ptr<LoadGenerator>> generators;
  std::vector<std::unique_ptr<FixedCountLoop>> loops;
};

/// Smallest round trip a commit from `dc` can take: ApplyWan floors every
/// WAN link at half its median one-way delay, and a commit needs at least
/// one reply from another DC.
Duration WanRoundTripFloor(const WanPreset& wan, DcId dc) {
  Duration best = kSimTimeMax;
  for (int other = 0; other < wan.num_dcs(); ++other) {
    if (other == dc) continue;
    Duration median = static_cast<Duration>(
        wan.one_way_ms[size_t(dc)][size_t(other)] * 1000.0);
    best = std::min(best, 2 * (median / 2));
  }
  return best;
}

/// Builds the drivers; `make_runner(i)` binds client i to its stack.
Drivers MakeDrivers(const WorkloadSpec& spec, Simulator* sim, int num_clients,
                    int num_dcs, const WanPreset& wan, StackRun* run,
                    const std::function<TxnRunner(int)>& make_runner,
                    const std::function<Rng(uint64_t)>& fork) {
  Drivers drivers;
  const bool check_floor = run->stack != StackKind::kTpc;
  for (int i = 0; i < num_clients; ++i) {
    Duration floor = WanRoundTripFloor(wan, DcId(i % num_dcs));
    auto sink = [run, sim, floor, check_floor](const TxnResult& r) {
      run->metrics.Record(r);
      if (r.status.ok()) {
        run->commit_latency.push_back(r.latency);
        run->committed_user_latency.push_back(r.user_latency);
        run->committed_user_hist.Record(r.user_latency);
        if (check_floor && r.latency < floor) ++run->below_wan_floor;
      }
      run->user_latency.push_back(r.user_latency);
      run->last_finish = std::max(run->last_finish, sim->Now());
    };
    if (spec.txns_per_client > 0) {
      drivers.loops.push_back(std::make_unique<FixedCountLoop>(
          make_runner(i), spec.txns_per_client, sink));
    } else {
      LoadGenerator::Options load;
      load.rate_per_sec = spec.rate_per_client;
      auto gen = std::make_unique<LoadGenerator>(sim, fork(100 + uint64_t(i)),
                                                 make_runner(i), load);
      gen->SetResultSink(sink);
      drivers.generators.push_back(std::move(gen));
    }
  }
  return drivers;
}

/// Starts the load and runs the simulation to quiescence, timed with the
/// thread's CPU clock; then reads the simulator and network counters.
/// Traced runs slice the drive per simulated second (one child span each)
/// and step through each slice in 1 ms RunUntil steps to sample the
/// pending-event count.
void Drive(const WorkloadSpec& spec, Drivers& drivers, Simulator& sim,
           const Network& net, Tracer* tracer, int trace_id, int parent,
           StackRun* run) {
  const double reference_before = ReferenceLoopSeconds();
  const double w0 = WallSeconds();
  const double cpu0 = ThreadCpuSeconds();
  const int drive_span = tracer->Begin("sim.drive", trace_id, parent);
  for (auto& gen : drivers.generators) gen->Start(spec.load_window);
  for (auto& loop : drivers.loops) loop->Start();
  if (!tracer->enabled()) {
    sim.Run();
  } else {
    size_t peak = sim.NumPending();
    for (int64_t second = 0; sim.NextEventTime() != kSimTimeMax; ++second) {
      ScopedSpan slice(tracer, "sim.second " + std::to_string(second),
                       trace_id, drive_span);
      for (int ms = 1; ms <= 1000; ++ms) {
        sim.RunUntil(Seconds(second) + Millis(ms));
        peak = std::max(peak, sim.NumPending());
      }
    }
    run->counters.peak_pending = peak;
  }
  tracer->End(drive_span);
  run->cpu_s = ThreadCpuSeconds() - cpu0;
  run->drive_s = WallSeconds() - w0;
  run->reference_s = 0.5 * (reference_before + ReferenceLoopSeconds());
  run->load_length =
      spec.txns_per_client > 0 ? run->last_finish : spec.load_window;
  run->counters.events = sim.events_processed();
  run->counters.msgs = net.messages_sent();
  run->counters.retransmits = net.messages_retransmitted();
}

/// Exact nearest-rank percentile (the rank Histogram::Percentile uses).
Duration ExactPercentile(std::vector<Duration> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  uint64_t rank = uint64_t(std::ceil(p / 100.0 * double(v.size())));
  if (rank == 0) rank = 1;
  return v[size_t(rank - 1)];
}

/// The program's histogram percentile must be the upper bound of the
/// bucket holding the exact value: never below it, at most one bucket
/// (~4.5%) above.
void CheckPercentile(const char* what, const std::vector<Duration>& samples,
                     const Histogram& hist, double p, StackRun* run) {
  Duration exact = ExactPercentile(samples, p);
  int64_t program = hist.Percentile(p);
  int64_t ceiling = int64_t(std::ceil(double(exact) * 1.0445)) + 1;
  if (program < exact || program > ceiling) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s p%g: histogram %" PRId64 " us vs exact %" PRId64 " us",
                  what, p, program, int64_t(exact));
    run->problems.push_back(buf);
  }
}

/// Output checks shared by every stack. Failed operations: transactions
/// that never reached a definitive outcome, commits below the WAN floor,
/// serializability witnesses and, per diverging key, the last committed
/// write to it.
void CheckRun(const Drivers& drivers, const History& history,
              const CheckerOptions& checker, const ConvergenceReport* conv,
              StackRun* run) {
  for (const auto& gen : drivers.generators) {
    run->issued += gen->issued();
    run->finished += gen->finished();
  }
  for (const auto& loop : drivers.loops) {
    run->issued += loop->issued();
    run->finished += loop->finished();
  }
  run->failed += run->issued - run->finished;
  if (run->finished != run->metrics.finished()) {
    run->problems.push_back("sink saw a different number of results");
  }
  run->failed += run->below_wan_floor;

  CheckReport serial = CheckSerializability(history, checker);
  std::set<TxnId> witnesses;
  for (const Violation& v : serial.violations) {
    if (v.mode_permitted) continue;
    witnesses.insert(v.txns.begin(), v.txns.end());
    if (v.txns.empty()) run->problems.push_back(v.ToString());
  }
  run->failed += witnesses.size();

  if (conv != nullptr) {
    std::set<Key> diverged;
    for (const ConvergenceViolation& v : conv->violations) {
      diverged.insert(v.key);
    }
    run->failed += diverged.size();
  }

  CheckPercentile("commit", run->commit_latency,
                  run->metrics.latency_committed, 50, run);
  CheckPercentile("commit", run->commit_latency,
                  run->metrics.latency_committed, 99, run);
  CheckPercentile("user", run->user_latency, run->metrics.user_latency, 50,
                  run);
  CheckPercentile("user", run->user_latency, run->metrics.user_latency, 99,
                  run);
  CheckPercentile("committed user", run->committed_user_latency,
                  run->committed_user_hist, 50, run);
  CheckPercentile("committed user", run->committed_user_latency,
                  run->committed_user_hist, 99, run);
}

/// Every scheduled fault event fired during the run.
void CheckFaultsInjected(const WorkloadSpec& spec, const FaultInjector* faults,
                         StackRun* run) {
  uint64_t injected = faults != nullptr ? faults->injected() : 0;
  if (injected != spec.faults.size()) {
    run->problems.push_back("fault injector fired " + std::to_string(injected) +
                            " of " + std::to_string(spec.faults.size()) +
                            " scheduled events");
  }
}

struct RunContext {
  const WorkloadSpec* spec;
  uint64_t seed;
  Tracer* tracer;
  int parent_span;  ///< the workload span
};

StackRun RunMdccStack(const RunContext& rc, StackKind stack) {
  const WorkloadSpec& spec = *rc.spec;
  Tracer* tracer = rc.tracer;
  StackRun run;
  run.stack = stack;
  const int trace_id = tracer->NewTraceId();
  ScopedSpan stack_span(tracer, StackName(stack), trace_id, rc.parent_span);

  double t0 = WallSeconds();
  int setup_span = tracer->Begin("harness.setup", trace_id, stack_span.id());
  ClusterOptions options;
  options.seed = rc.seed;
  options.clients_per_dc = kClientsPerDc;
  options.mdcc.master_dc = spec.master_dc;
  options.mdcc.read_timeout = spec.read_timeout;
  options.mdcc.txn_timeout = spec.txn_timeout;
  options.mdcc.chaos_drop_learn = spec.chaos_drop_learn;
  if (spec.failover > 0) {
    options.mdcc.master_failover_timeout = spec.failover;
    options.planet.dead_after = spec.failover;
  }
  options.planet.kill_threshold = spec.kill_threshold;
  run.num_dcs = options.mdcc.num_dcs;
  auto cluster = std::make_unique<Cluster>(options);
  HistoryRecorder recorder;
  cluster->SetHistoryRecorder(&recorder);
  std::unique_ptr<FaultInjector> faults;
  if (!spec.faults.empty()) {
    faults = std::make_unique<FaultInjector>(&cluster->sim(), spec.faults,
                                             cluster->MakeFaultActions());
  }
  Cluster* c = cluster.get();
  auto make_runner = [c, &spec, stack](int i) -> TxnRunner {
    Rng rng = c->ForkRng(200 + uint64_t(i));
    if (stack == StackKind::kMdcc) {
      return MakeMdccRunner(c->client(i), spec.keys, rng);
    }
    PlanetRunnerPolicy policy;
    policy.speculation_deadline = kSpeculationDeadline;
    policy.speculate_threshold = kSpeculateThreshold;
    return MakePlanetRunner(c->planet_client(i), spec.keys, rng, policy);
  };
  Drivers drivers = MakeDrivers(
      spec, &c->sim(), c->num_clients(), c->num_dcs(), options.wan, &run,
      make_runner, [c](uint64_t tag) { return c->ForkRng(tag); });
  tracer->End(setup_span);
  run.setup_s = WallSeconds() - t0;

  Drive(spec, drivers, c->sim(), c->net(), tracer, trace_id, stack_span.id(),
        &run);

  Counters& k = run.counters;
  k.abort_notices = c->net().class_sent(MsgClass::kAbortNotice);
  for (DcId dc = 0; dc < c->num_dcs(); ++dc) {
    const Replica* r = c->replica(dc);
    k.accepts += r->store().accepts();
    k.conflict_rejects += r->store().rejects_conflict();
    k.stale_rejects += r->store().rejects_stale();
    k.fast_accepts += r->fast_accept_requests();
    k.classic_proposals += r->classic_proposals();
    k.resolve_queries += r->resolve_queries_sent();
    k.stale_epoch_rejects += r->stale_epoch_rejects();
    k.sync_adopted += r->sync_records_adopted();
  }
  for (int i = 0; i < c->num_clients(); ++i) {
    k.classic_fallbacks += c->client(i)->classic_fallbacks();
    k.failovers += c->client(i)->failovers();
  }
  if (stack == StackKind::kPlanet) {
    const PlanetStats& ps = c->context().stats();
    k.speculated = ps.speculated;
    k.early_aborts = ps.early_aborts;
    k.apology_ratio = ps.ApologyRate();
    k.calibration_ece = ps.calibration.ExpectedCalibrationError();
    k.tracked_keys = c->context().conflict_model().tracked_vote_keys() +
                     c->context().conflict_model().tracked_option_keys();
  }
  CheckFaultsInjected(spec, faults.get(), &run);

  double k0 = WallSeconds();
  {
    ScopedSpan check_span(tracer, "check", trace_id, stack_span.id());
    ConvergenceReport conv =
        CheckConvergence(c->LiveReplicaStates(), &recorder.history());
    CheckRun(drivers, recorder.history(), CheckerOptions{}, &conv, &run);
  }
  run.check_s = WallSeconds() - k0;

  if (stack == StackKind::kPlanet && tracer->enabled()) {
    ScopedSpan span(tracer, "planet.estimate", trace_id, stack_span.id());
    run.estimate = TimeEstimator(c->context(), spec.keys, rc.seed,
                                 c->sim().Now());
  }
  return run;
}

StackRun RunTpcStack(const RunContext& rc) {
  const WorkloadSpec& spec = *rc.spec;
  Tracer* tracer = rc.tracer;
  StackRun run;
  run.stack = StackKind::kTpc;
  const int trace_id = tracer->NewTraceId();
  ScopedSpan stack_span(tracer, "tpc", trace_id, rc.parent_span);

  double t0 = WallSeconds();
  int setup_span = tracer->Begin("harness.setup", trace_id, stack_span.id());
  TpcClusterOptions options;
  options.seed = rc.seed;
  options.clients_per_dc = kClientsPerDc;
  options.tpc.master_dc = spec.master_dc;
  options.tpc.read_timeout = spec.read_timeout;
  options.tpc.txn_timeout = spec.txn_timeout;
  auto cluster = std::make_unique<TpcCluster>(options);
  HistoryRecorder recorder;
  cluster->SetHistoryRecorder(&recorder);
  std::unique_ptr<FaultInjector> faults;
  if (!spec.faults.empty()) {
    faults = std::make_unique<FaultInjector>(&cluster->sim(), spec.faults,
                                             cluster->MakeFaultActions());
  }
  TpcCluster* c = cluster.get();
  Drivers drivers = MakeDrivers(
      spec, &c->sim(), c->num_clients(), options.tpc.num_dcs, options.wan,
      &run,
      [c, &spec](int i) {
        return MakeTpcRunner(c->client(i), spec.keys,
                             c->ForkRng(200 + uint64_t(i)));
      },
      [c](uint64_t tag) { return c->ForkRng(tag); });
  tracer->End(setup_span);
  run.setup_s = WallSeconds() - t0;

  Drive(spec, drivers, c->sim(), c->net(), tracer, trace_id, stack_span.id(),
        &run);
  CheckFaultsInjected(spec, faults.get(), &run);

  double k0 = WallSeconds();
  {
    ScopedSpan check_span(tracer, "check", trace_id, stack_span.id());
    // 2PC keeps no anti-entropy, so its replicas are not compared; writers
    // left in doubt by a crash are allowed, as in the fuzzer's oracle.
    CheckerOptions checker;
    checker.allow_in_doubt_writers = true;
    CheckRun(drivers, recorder.history(), checker, nullptr, &run);
  }
  run.check_s = WallSeconds() - k0;
  return run;
}

StackRun RunStack(const RunContext& rc, StackKind stack) {
  return stack == StackKind::kTpc ? RunTpcStack(rc) : RunMdccStack(rc, stack);
}

// ---------------------------------------------------------------------------
// Rounds

struct Round {
  bool traced = false;
  std::vector<StackRun> stacks;  ///< in WorkloadSpec::stacks order
  std::vector<StackRun> repro;   ///< the named-fault reproduction, if any
  double setup_s = 0;            ///< the three clusters' set-up
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> component_ns;  ///< traced rounds only

  const StackRun* Find(StackKind stack) const {
    for (const StackRun& r : stacks) {
      if (r.stack == stack) return &r;
    }
    return nullptr;
  }
};

size_t PeakPending(const Round& round) {
  size_t peak = 0;
  for (const StackRun& r : round.stacks) {
    peak = std::max(peak, r.counters.peak_pending);
  }
  return peak;
}

Round RunRound(const WorkloadSpec& spec, uint64_t seed, Tracer* tracer) {
  Round round;
  round.traced = tracer->enabled();
  ScopedSpan workload_span(tracer, spec.name, 0, -1);
  RunContext rc{&spec, seed, tracer, workload_span.id()};
  for (StackKind stack : spec.stacks) {
    StackRun run = RunStack(rc, stack);
    round.setup_s += run.ScaledSetupS();
    round.stacks.push_back(std::move(run));
  }
  if (spec.named_fault_repro) {
    WorkloadSpec repro = NamedFaultRepro();
    RunContext rrc{&repro, kNamedFaultSeed, tracer, workload_span.id()};
    round.repro.push_back(RunStack(rrc, StackKind::kMdcc));
  }
  for (const std::vector<StackRun>* runs : {&round.stacks, &round.repro}) {
    for (const StackRun& r : *runs) {
      round.attempted += r.issued;
      round.failed += r.failed;
      for (const std::string& p : r.problems) {
        round.problems.push_back(std::string(StackName(r.stack)) + ": " + p);
      }
    }
  }
  if (spec.outcomes_must_match) {
    const StackRun* planet = round.Find(StackKind::kPlanet);
    const StackRun* mdcc = round.Find(StackKind::kMdcc);
    if (planet != nullptr && mdcc != nullptr &&
        (planet->metrics.committed != mdcc->metrics.committed ||
         planet->metrics.aborted != mdcc->metrics.aborted ||
         planet->metrics.unavailable != mdcc->metrics.unavailable)) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "planet and mdcc outcomes differ: %" PRIu64 "/%" PRIu64
                    "/%" PRIu64 " vs %" PRIu64 "/%" PRIu64 "/%" PRIu64,
                    planet->metrics.committed, planet->metrics.aborted,
                    planet->metrics.unavailable, mdcc->metrics.committed,
                    mdcc->metrics.aborted, mdcc->metrics.unavailable);
      round.problems.push_back(buf);
    }
  }
  if (tracer->enabled()) {
    auto timed = [&](const std::string& name, const std::function<double()>& fn) {
      ScopedSpan span(tracer, name, 0, workload_span.id());
      round.component_ns[name] = fn();
    };
    size_t depth = PeakPending(round);
    timed("sim.schedule_step_ns", [&] { return TimeScheduleStep(depth, seed); });
    timed("sim.send_ns", [&] { return TimeSend(seed); });
    timed("storage.accept_apply_ns",
          [&] { return TimeAcceptApply(spec.keys, seed); });
    timed("storage.read_ns", [&] { return TimeStoreRead(spec.keys, seed); });
    timed("workload.next_distinct_ns",
          [&] { return TimeNextDistinct(spec.keys, seed); });
    timed("common.histogram_record_ns",
          [&] { return TimeHistogramRecord(seed); });
  }
  return round;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Ms(Duration us) { return double(us) / 1000.0; }

std::vector<Metric> EndToEndMetrics(const std::vector<Round>& rounds,
                                    double peak_rss_mb) {
  std::vector<Metric> out;
  std::vector<double> setup;
  for (const Round& r : rounds) setup.push_back(r.setup_s);
  out.push_back({"setup_s", Median(setup), "s"});
  out.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  const Round& first = rounds.front();
  for (const StackRun& run : first.stacks) {
    std::string s = StackName(run.stack);
    std::vector<double> cpu;
    for (const Round& r : rounds) {
      if (const StackRun* sr = r.Find(run.stack)) cpu.push_back(sr->CpuUsPerTxn());
    }
    out.push_back({s + ".cpu_us_per_txn", Median(cpu), "us"});
    out.push_back({s + ".goodput_txn_s", run.Goodput(), "txn/s"});
    out.push_back({s + ".commit_p50_ms",
                   Ms(ExactPercentile(run.commit_latency, 50)), "ms"});
    out.push_back({s + ".commit_p99_ms",
                   Ms(ExactPercentile(run.commit_latency, 99)), "ms"});
    if (run.stack == StackKind::kPlanet) {
      out.push_back({"planet.user_p50_ms",
                     Ms(ExactPercentile(run.committed_user_latency, 50)), "ms"});
      out.push_back({"planet.user_p99_ms",
                     Ms(ExactPercentile(run.committed_user_latency, 99)), "ms"});
    }
  }
  return out;
}

/// Median over the given rounds of f(stack run).
double MedianOver(const std::vector<const Round*>& rounds, StackKind stack,
                  const std::function<double(const StackRun&)>& f) {
  std::vector<double> v;
  for (const Round* r : rounds) {
    if (const StackRun* sr = r->Find(stack)) v.push_back(f(*sr));
  }
  return Median(v);
}

std::vector<Metric> PerLayerMetrics(const std::vector<Round>& rounds) {
  std::vector<const Round*> traced, untraced;
  for (const Round& r : rounds) (r.traced ? traced : untraced).push_back(&r);
  std::vector<Metric> out;
  const Round& t = *traced.front();
  auto cpu = [](const StackRun& r) { return r.CpuUsPerTxn(); };
  for (const StackRun& run : t.stacks) {
    const std::string s = StackName(run.stack);
    const double n = double(std::max<uint64_t>(run.finished, 1));
    const Counters& k = run.counters;
    auto per_txn = [n](uint64_t x) { return double(x) / n; };
    out.push_back({s + ".harness.setup_s",
                   MedianOver(traced, run.stack,
                              [](const StackRun& r) { return r.ScaledSetupS(); }),
                   "s"});
    out.push_back({s + ".harness.trace_overhead_us_per_txn",
                   MedianOver(traced, run.stack, cpu) -
                       MedianOver(untraced, run.stack, cpu),
                   "us"});
    out.push_back({s + ".sim.drive_s",
                   MedianOver(traced, run.stack,
                              [](const StackRun& r) { return r.drive_s; }),
                   "s"});
    out.push_back({s + ".check.check_s",
                   MedianOver(traced, run.stack,
                              [](const StackRun& r) { return r.check_s; }),
                   "s"});
    out.push_back({s + ".sim.events_per_txn", per_txn(k.events), "count"});
    out.push_back({s + ".sim.peak_pending", double(k.peak_pending), "count"});
    out.push_back({s + ".sim.msgs_per_txn", per_txn(k.msgs), "count"});
    out.push_back(
        {s + ".sim.retransmits_per_txn", per_txn(k.retransmits), "count"});
    if (run.stack == StackKind::kTpc) continue;
    out.push_back({s + ".storage.accepts_per_txn", per_txn(k.accepts), "count"});
    out.push_back({s + ".storage.conflict_rejects_per_txn",
                   per_txn(k.conflict_rejects), "count"});
    out.push_back({s + ".storage.stale_rejects_per_txn",
                   per_txn(k.stale_rejects), "count"});
    out.push_back(
        {s + ".mdcc.fast_accepts_per_txn", per_txn(k.fast_accepts), "count"});
    out.push_back({s + ".mdcc.classic_proposals_per_txn",
                   per_txn(k.classic_proposals), "count"});
    out.push_back({s + ".mdcc.classic_fallbacks_per_txn",
                   per_txn(k.classic_fallbacks), "count"});
    // Options decided without a classic fallback, over options proposed
    // (every option goes to every replica). The client counts fallbacks per
    // option and exposes no per-transaction flag, so the ratio is kept at
    // the option level.
    const double options_proposed =
        double(k.fast_accepts) / double(std::max(run.num_dcs, 1));
    out.push_back({s + ".mdcc.fast_option_ratio",
                   options_proposed == 0
                       ? 0.0
                       : 1.0 - double(k.classic_fallbacks) / options_proposed,
                   "ratio"});
    out.push_back({s + ".mdcc.resolve_queries_per_txn",
                   per_txn(k.resolve_queries), "count"});
    out.push_back({s + ".mdcc.failovers", double(k.failovers), "count"});
    out.push_back({s + ".mdcc.stale_epoch_rejects",
                   double(k.stale_epoch_rejects), "count"});
    out.push_back({s + ".mdcc.sync_records_adopted", double(k.sync_adopted),
                   "count"});
    if (run.stack != StackKind::kPlanet) continue;
    out.push_back({"planet.sim.abort_notices_per_txn",
                   per_txn(k.abort_notices), "count"});
    out.push_back(
        {"planet.planet.speculated_per_txn", per_txn(k.speculated), "count"});
    out.push_back({"planet.planet.apology_ratio", k.apology_ratio, "ratio"});
    out.push_back({"planet.planet.early_aborts_per_txn",
                   per_txn(k.early_aborts), "count"});
    out.push_back(
        {"planet.planet.calibration_ece", k.calibration_ece, "ratio"});
    out.push_back(
        {"planet.planet.tracked_keys", double(k.tracked_keys), "count"});
    out.push_back({"planet.planet.layer_us_per_txn",
                   MedianOver(untraced, StackKind::kPlanet, cpu) -
                       MedianOver(untraced, StackKind::kMdcc, cpu),
                   "us"});
    out.push_back({"planet.estimate_ns",
                   MedianOver(traced, StackKind::kPlanet,
                              [](const StackRun& r) {
                                return r.estimate.estimate_ns;
                              }),
                   "ns"});
    out.push_back({"planet.estimate_fresh_ns",
                   MedianOver(traced, StackKind::kPlanet,
                              [](const StackRun& r) {
                                return r.estimate.estimate_fresh_ns;
                              }),
                   "ns"});
  }
  for (const auto& [name, unused] : t.component_ns) {
    std::vector<double> v;
    for (const Round* r : traced) v.push_back(r->component_ns.at(name));
    out.push_back({name, Median(v), "ns"});
  }
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-48s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Entry points

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--selftest") {
      args->selftest = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(v);
    } else if (a == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (a == "--trace-out") {
      args->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

int RunBenchmark(const Args& args) {
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, 1.0, &spec)) {
    std::fprintf(stderr, "unknown workload '%s' (hot-rmw | wide-read | "
                         "fault-heal)\n", args.workload.c_str());
    return 2;
  }
  Tracer untraced(false);
  Tracer traced(true);
  std::vector<Round> rounds;
  const double start = WallSeconds();
  // Traced runs alternate untraced and traced rounds, so the tracing
  // overhead is measured under the same machine conditions.
  bool have_traced = false;
  // Peak memory of the workload run: the first round; later rounds repeat
  // its operations and would only add allocator noise.
  double peak_rss_mb = 0;
  while (rounds.empty() || WallSeconds() - start < args.seconds ||
         (args.trace && (!have_traced || rounds.size() < 2))) {
    bool trace_this = args.trace && rounds.size() % 2 == 1;
    rounds.push_back(RunRound(spec, args.seed, trace_this ? &traced : &untraced));
    if (rounds.size() == 1) peak_rss_mb = PeakRssMb();
    const Round& r = rounds.back();
    std::fprintf(stderr, "round %zu%s: setup %.4f s, us/txn (reference ms)",
                 rounds.size(), r.traced ? " (traced)" : "", r.setup_s);
    for (const StackRun& run : r.stacks) {
      std::fprintf(stderr, " %s %.2f (%.1f)", StackName(run.stack),
                   run.CpuUsPerTxn(), run.reference_s * 1e3);
    }
    std::fprintf(stderr, "\n");
    have_traced = have_traced || trace_this;
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& p : r.problems) {
      correct = false;
      std::fprintf(stderr, "check failed: %s\n", p.c_str());
    }
  }
  const Round& first = rounds.front();
  std::printf("workload %s seed %" PRIu64 ": %zu rounds, per round %" PRIu64
              " operations, %" PRIu64 " failed\n",
              spec.name.c_str(), args.seed, rounds.size(), first.attempted,
              first.failed);
  for (const std::vector<StackRun>* runs : {&first.stacks, &first.repro}) {
    for (const StackRun& r : *runs) {
      std::printf("  %-6s%s issued %" PRIu64 " committed %" PRIu64
                  " aborted %" PRIu64 " unavailable %" PRIu64 " failed %" PRIu64
                  "\n",
                  StackName(r.stack), runs == &first.repro ? " (named fault)" : "",
                  r.issued, r.metrics.committed, r.metrics.aborted,
                  r.metrics.unavailable, r.failed);
    }
  }
  std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(rounds) : EndToEndMetrics(rounds, peak_rss_mb);
  if (args.trace && !args.trace_out.empty()) {
    if (!traced.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", traced.size(),
                 args.trace_out.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

/// Short runs of every workload must pass every check, and an mdcc run with
/// the learn-dropping chaos knob must report failed operations (the
/// convergence and serializability checks are not vacuous).
int SelfTest() {
  int bad = 0;
  Tracer tracer(false);
  for (const char* name : {"hot-rmw", "wide-read", "fault-heal"}) {
    WorkloadSpec spec;
    LookupWorkload(name, 0.25, &spec);
    Round r = RunRound(spec, 1, &tracer);
    // fault-heal keeps the named convergence fault: it fails on the fixed
    // reproduction and nowhere else.
    uint64_t named = 0;
    for (const StackRun& run : r.repro) named += run.failed;
    bool ok = r.problems.empty() && r.failed == named &&
              (!spec.named_fault_repro || named > 0);
    std::printf("selftest %-10s attempted %" PRIu64 " failed %" PRIu64
                " (named fault %" PRIu64 ") problems %zu: %s\n",
                name, r.attempted, r.failed, named, r.problems.size(),
                ok ? "ok" : "FAIL");
    for (const std::string& p : r.problems) std::printf("  %s\n", p.c_str());
    bad += ok ? 0 : 1;
  }
  WorkloadSpec chaos = HotRmw(0.25);
  chaos.name = "chaos-drop-learn";
  chaos.chaos_drop_learn = 5;
  chaos.stacks = {StackKind::kMdcc};
  Round r = RunRound(chaos, 1, &tracer);
  bool ok = r.failed > 0;
  std::printf("selftest %-10s attempted %" PRIu64 " failed %" PRIu64
              " (must be > 0): %s\n",
              chaos.name.c_str(), r.attempted, r.failed, ok ? "ok" : "FAIL");
  bad += ok ? 0 : 1;
  std::printf("selftest: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (args.selftest) return perfbench::SelfTest();
  return perfbench::RunBenchmark(args);
}

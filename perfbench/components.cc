#include "components.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "harness/wan.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/store.h"
#include "trace.h"

namespace perfbench {

using namespace planet;

namespace {

constexpr int kBatches = 5;

/// Runs `batch(ops)` kBatches times and returns the median ns per op.
template <typename F>
double MedianNsPerOp(int ops, F&& batch) {
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    double start = WallSeconds();
    batch(ops);
    ns.push_back((WallSeconds() - start) * 1e9 / ops);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Keeps computed values alive so the timed calls are not optimized out.
volatile uint64_t g_sink = 0;

}  // namespace

double ReferenceLoopSeconds() {
  const double start = ThreadCpuSeconds();
  std::unordered_map<uint64_t, uint64_t> map;
  std::priority_queue<uint64_t> heap;
  std::vector<std::unique_ptr<uint64_t[]>> blocks(64);
  uint64_t x = 88172645463325252ull;  // xorshift64 state
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  double acc = 0;
  // Integer half: the event heap, hash maps and small allocations.
  for (int i = 0; i < 100000; ++i) {
    uint64_t r = next();
    map[r & 0x1ffff] += uint64_t(i);
    auto it = map.find((r >> 20) & 0x1ffff);
    if (it != map.end()) acc += double(it->second & 0xff);
    heap.push(r);
    if (heap.size() > 20000) heap.pop();
    blocks[r & 63] = std::make_unique<uint64_t[]>(4 + (r >> 60));
  }
  // Floating-point half: binomial tails and exponentials, as the
  // likelihood estimator computes them.
  for (int i = 0; i < 75000; ++i) {
    double p = double(next() >> 11) * 0x1.0p-53;
    double coef = 1;
    for (int k = 0; k <= 5; ++k) {
      acc += coef * std::pow(p, k) * std::pow(1 - p, 5 - k);
      coef = coef * (5 - k) / (k + 1);
    }
    acc += std::exp(-3 * p);
  }
  g_sink = g_sink + uint64_t(acc) + heap.top();
  return ThreadCpuSeconds() - start;
}

double TimeScheduleStep(size_t depth, uint64_t seed) {
  Simulator sim;
  Rng rng = Rng(seed).Fork(1);
  // Delays up to a WAN round trip, as the protocol's timers and sends are.
  auto delay = [&rng] { return Duration(rng.UniformInt(1, 400000)); };
  for (size_t i = 0; i < std::max<size_t>(depth, 1); ++i) {
    sim.Schedule(delay(), [] {});
  }
  uint64_t fired = 0;
  double ns = MedianNsPerOp(200000, [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      sim.Schedule(delay(), [&fired] { ++fired; });
      sim.Step();
    }
  });
  g_sink = g_sink + fired;
  return ns;
}

double TimeSend(uint64_t seed) {
  Simulator sim;
  Network net(&sim, Rng(seed).Fork(2));
  WanPreset wan = FiveDcWan();
  for (int dc = 0; dc < wan.num_dcs(); ++dc) net.RegisterNode(dc, dc);
  ApplyWan(&net, wan);
  Rng rng = Rng(seed).Fork(3);
  uint64_t delivered = 0;
  double ns = MedianNsPerOp(100000, [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      NodeId src = NodeId(rng.UniformInt(0, wan.num_dcs() - 1));
      NodeId dst = NodeId(rng.UniformInt(0, wan.num_dcs() - 1));
      net.Send(src, dst, [&delivered] { ++delivered; });
    }
    sim.Run();
  });
  g_sink = g_sink + delivered;
  return ns;
}

namespace {

/// A store warmed with the records `warm` draws from the workload touch.
void WarmStore(Store* store, const KeyChooser& chooser, Rng& rng, int warm) {
  for (int i = 0; i < warm; ++i) store->SeedValue(chooser.Next(rng), i);
}

constexpr int kWarmDraws = 100000;

}  // namespace

double TimeAcceptApply(const WorkloadConfig& wl, uint64_t seed) {
  KeyChooser chooser(wl);
  Rng rng = Rng(seed).Fork(4);
  Store store;
  WarmStore(&store, chooser, rng, kWarmDraws);
  TxnId txn = 1;
  uint64_t accepted = 0;
  double ns = MedianNsPerOp(50000, [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      WriteOption option;
      option.txn = txn++;
      option.key = chooser.Next(rng);
      option.read_version = store.Read(option.key).version;
      option.new_value = Value(i);
      if (store.TryAcceptOption(option).ok()) {
        store.ApplyOrLearn(option);
        ++accepted;
      }
    }
  });
  g_sink = g_sink + accepted;
  return ns;
}

double TimeStoreRead(const WorkloadConfig& wl, uint64_t seed) {
  KeyChooser chooser(wl);
  Rng rng = Rng(seed).Fork(5);
  Store store;
  WarmStore(&store, chooser, rng, kWarmDraws);
  std::vector<Key> keys;
  for (int i = 0; i < 200000; ++i) keys.push_back(chooser.Next(rng));
  uint64_t sum = 0;
  double ns = MedianNsPerOp(200000, [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      sum += store.Read(keys[static_cast<size_t>(i)]).version;
    }
  });
  g_sink = g_sink + sum;
  return ns;
}

double TimeNextDistinct(const WorkloadConfig& wl, uint64_t seed) {
  KeyChooser chooser(wl);
  Rng rng = Rng(seed).Fork(6);
  int n = wl.reads_per_txn + wl.writes_per_txn;
  uint64_t sum = 0;
  double ns = MedianNsPerOp(100000, [&](int ops) {
    for (int i = 0; i < ops; ++i) sum += chooser.NextDistinct(rng, n)[0];
  });
  g_sink = g_sink + sum;
  return ns;
}

double TimeHistogramRecord(uint64_t seed) {
  Rng rng = Rng(seed).Fork(7);
  std::vector<int64_t> samples;
  for (int i = 0; i < 100000; ++i) {
    samples.push_back(int64_t(rng.Lognormal(150000.0, 0.3)));
  }
  Histogram hist;
  double ns = MedianNsPerOp(100000, [&](int ops) {
    for (int i = 0; i < ops; ++i) hist.Record(samples[size_t(i)]);
  });
  g_sink = g_sink + hist.count();
  return ns;
}

EstimateTimes TimeEstimator(PlanetContext& ctx, const WorkloadConfig& wl,
                            uint64_t seed, SimTime now) {
  const int num_dcs = ctx.mdcc_config().num_dcs;
  KeyChooser chooser(wl);
  Rng rng = Rng(seed).Fork(8);
  // In-flight views of the workload's write sets, a WAN round trip after
  // proposing: the local acceptor and one more have voted, the rest are out.
  std::vector<TxnView> views;
  std::vector<std::vector<WriteOption>> fresh;
  for (int t = 0; t < 256; ++t) {
    TxnView view;
    view.id = TxnId(t + 1);
    view.phase = TxnPhase::kProposing;
    view.begin_time = now - Millis(60);
    view.propose_time = now - Millis(50);
    std::vector<WriteOption> writes;
    for (Key key : chooser.NextDistinct(rng, wl.writes_per_txn)) {
      OptionProgress op;
      op.option.txn = view.id;
      op.option.key = key;
      op.votes.assign(static_cast<size_t>(num_dcs), -1);
      int local = t % num_dcs;
      op.votes[static_cast<size_t>(local)] = 1;
      op.votes[static_cast<size_t>((local + 1) % num_dcs)] = 1;
      op.accepts = 2;
      op.proposed_at = view.propose_time;
      writes.push_back(op.option);
      view.options.push_back(std::move(op));
    }
    views.push_back(std::move(view));
    fresh.push_back(std::move(writes));
  }
  const CommitLikelihoodEstimator& est = ctx.estimator();
  double sum = 0;
  EstimateTimes times;
  times.estimate_ns = MedianNsPerOp(20000, [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      sum += est.Estimate(views[size_t(i) % views.size()], now);
    }
  });
  times.estimate_fresh_ns = MedianNsPerOp(20000, [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      sum += est.EstimateFresh(fresh[size_t(i) % fresh.size()], now);
    }
  });
  g_sink = g_sink + uint64_t(sum);
  return times;
}

}  // namespace perfbench

// Hot-path allocation regression tests.
//
// The simulator's acceptance contract (docs/PERFORMANCE.md) is that
// steady-state Schedule/Cancel/Step and Network::Send never touch the heap
// for closures of typical protocol size, and that the commit-likelihood
// estimate the kill gauge runs on every vote does not either. This TU replaces global operator
// new/delete with counting versions; each test warms the pools (slot
// chunks, heap vector, free list grow once, up front), then asserts the
// measured region performed zero allocations and zero InlineFunction heap
// fallbacks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>

#include "common/inline_function.h"
#include "common/rng.h"
#include "planet/predictor.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace planet {
namespace {

// A capture the size of a typical protocol closure: a couple of pointers
// plus some POD routing state.
struct TypicalCapture {
  uint64_t* counter;
  uint64_t txn;
  int32_t key;
  int32_t version;
  void operator()() { *counter += txn + static_cast<uint64_t>(key + version); }
};

TEST(HotPathAlloc, SteadyStateScheduleRunIsAllocFree) {
  Simulator sim;
  uint64_t count = 0;
  constexpr int kBatch = 512;

  // Warm-up: grows the slot chunks, heap vector, and free list to steady
  // state. Nothing after this batch needs more capacity.
  for (int i = 0; i < kBatch; ++i) {
    sim.Schedule(i % 7, TypicalCapture{&count, 1, 0, 0});
  }
  sim.Run();

  uint64_t fallbacks_before = InlineFunctionHeapFallbacks();
  uint64_t allocs_before = AllocCount();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < kBatch; ++i) {
      sim.Schedule(i % 7, TypicalCapture{&count, 1, 0, 0});
    }
    sim.Run();
  }
  EXPECT_EQ(AllocCount() - allocs_before, 0u);
  EXPECT_EQ(InlineFunctionHeapFallbacks() - fallbacks_before, 0u);
  EXPECT_EQ(count, static_cast<uint64_t>(kBatch) * 21u);
}

TEST(HotPathAlloc, SteadyStateSendIsAllocFree) {
  Simulator sim;
  Network net(&sim, Rng(99));
  net.RegisterNode(0, 0);
  net.RegisterNode(1, 1);
  net.SetLink(0, 1, LinkParams{});

  uint64_t delivered = 0;
  constexpr int kBatch = 256;
  for (int i = 0; i < kBatch; ++i) {
    net.Send(0, 1, TypicalCapture{&delivered, 1, i, 0});
  }
  sim.Run();

  uint64_t fallbacks_before = InlineFunctionHeapFallbacks();
  uint64_t allocs_before = AllocCount();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < kBatch; ++i) {
      net.Send(0, 1, TypicalCapture{&delivered, 1, i, round});
    }
    sim.Run();
  }
  EXPECT_EQ(AllocCount() - allocs_before, 0u);
  EXPECT_EQ(InlineFunctionHeapFallbacks() - fallbacks_before, 0u);
  EXPECT_EQ(net.messages_sent(), static_cast<uint64_t>(kBatch) * 21u);
  EXPECT_EQ(net.messages_dropped(), 0u);
}

TEST(HotPathAlloc, MdccSizedClosureStaysInline) {
  // The largest closures the MDCC stack sends capture ~88 bytes (a reply
  // functor nested in routing state). Anything up to the documented budget
  // of EventFn::inline_bytes() - 16 must ride inline through Send.
  Simulator sim;
  Network net(&sim, Rng(7));
  net.RegisterNode(0, 0);
  net.RegisterNode(1, 0);

  struct BigCapture {
    uint64_t payload[14];  // with sink: 120B, the documented Send budget
    uint64_t* sink;
    void operator()() { *sink += payload[0] + payload[13]; }
  };
  static_assert(sizeof(BigCapture) == 120);

  uint64_t sink = 0;
  net.Send(0, 1, BigCapture{{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}, &sink});
  uint64_t fallbacks_before = InlineFunctionHeapFallbacks();
  sim.Run();
  EXPECT_EQ(sink, 3u);
  EXPECT_EQ(InlineFunctionHeapFallbacks(), fallbacks_before);
}

TEST(HotPathAlloc, MillionCancelledTimersStayBounded) {
  // Satellite regression for the NumPending/live-set growth bug: a window
  // of pending timers is continuously scheduled and cancelled, one million
  // in total. The pool must stay at the window's high-water mark, the heap
  // must compact its tombstones, and each Cancel must free the captured
  // state immediately (not at the timer's far-future deadline).
  Simulator sim;
  constexpr int kWindow = 1024;
  constexpr int kTotal = 1'000'000;

  auto tracer = std::make_shared<int>(42);
  EventId window[kWindow] = {};
  uint64_t fallbacks_before = InlineFunctionHeapFallbacks();

  for (int i = 0; i < kTotal; ++i) {
    int w = i % kWindow;
    if (window[w] != kInvalidEventId) {
      ASSERT_TRUE(sim.Cancel(window[w]));
    }
    // Far-future deadline: these timers never fire, so any captured state
    // still alive is state Cancel failed to release.
    window[w] = sim.Schedule(Seconds(3600) + i, [tracer] { (void)*tracer; });
  }
  for (EventId id : window) sim.Cancel(id);

  EXPECT_EQ(sim.NumPending(), 0u);
  // Every closure's shared_ptr copy was destroyed at Cancel time.
  EXPECT_EQ(tracer.use_count(), 1);

  Simulator::PoolStats stats = sim.pool_stats();
  // The pool's high-water mark is the live window, not the total scheduled.
  EXPECT_LE(stats.slots, 2u * kWindow);
  EXPECT_EQ(stats.free_slots, stats.slots);
  // Tombstone compaction keeps the heap proportional to the window too.
  EXPECT_LE(stats.heap_entries, 4u * kWindow);
  EXPECT_EQ(InlineFunctionHeapFallbacks() - fallbacks_before, 0u);

  // The queue still works after the churn.
  bool ran = false;
  sim.Schedule(1, [&ran] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(HeapFallbackCounter, IsPerThread) {
  // The fallback counter is thread-local so each sim-shard worker counts
  // exactly its own closures: a sibling thread overflowing the inline
  // budget must not perturb this thread's count (and vice versa).
  struct Oversized {
    char pad[200];  // > EventFn::inline_bytes(): forced heap fallback
    void operator()() { (void)pad[0]; }
  };
  uint64_t before = InlineFunctionHeapFallbacks();
  uint64_t sibling_delta = 0;
  std::thread sibling([&sibling_delta] {
    uint64_t t_before = InlineFunctionHeapFallbacks();
    EXPECT_EQ(t_before, 0u) << "fresh thread starts at zero";
    for (int i = 0; i < 5; ++i) {
      Simulator::EventFn fn(Oversized{});
      fn();
    }
    sibling_delta = InlineFunctionHeapFallbacks() - t_before;
  });
  sibling.join();
  EXPECT_EQ(sibling_delta, 5u);
  EXPECT_EQ(InlineFunctionHeapFallbacks(), before)
      << "sibling fallbacks leaked into this thread's counter";

  // And the counter is resettable, so best-of-N harness iterations can
  // attribute fallbacks to the iteration that caused them.
  Simulator::EventFn fn(Oversized{});
  EXPECT_EQ(InlineFunctionHeapFallbacks(), before + 1);
  ResetInlineFunctionHeapFallbacks();
  EXPECT_EQ(InlineFunctionHeapFallbacks(), 0u);
}

TEST(HotPathAlloc, CancelReleasesCapturedStateImmediately) {
  Simulator sim;
  auto tracked = std::make_shared<int>(7);
  EventId id = sim.Schedule(Seconds(1000), [tracked] { (void)*tracked; });
  EXPECT_EQ(tracked.use_count(), 2);
  EXPECT_TRUE(sim.Cancel(id));
  // Freed at Cancel, with the simulator still holding the (tombstoned) slot.
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(HotPathAlloc, WarmEstimateIsAllocFree) {
  MdccConfig mdcc;
  PlanetConfig planet;
  LatencyModel latency(mdcc.num_dcs, Millis(100));
  ConflictModel conflict(planet.conflict_alpha);
  for (int i = 0; i < 200; ++i) {
    conflict.RecordVote(Key(i % 4), i % 3 != 0);
    conflict.RecordOptionOutcome(Key(i % 4), i % 5 != 0);
  }
  CommitLikelihoodEstimator estimator(mdcc, planet, &latency, &conflict);

  // A four-write transaction mid-vote, as the kill gauge sees it.
  TxnView view;
  view.phase = TxnPhase::kProposing;
  for (Key key = 0; key < 4; ++key) {
    OptionProgress op;
    op.option.key = key;
    op.votes.assign(static_cast<size_t>(mdcc.num_dcs), -1);
    op.votes[0] = 1;
    op.accepts = 1;
    view.options.push_back(op);
  }
  double sum = estimator.Estimate(view);  // warms the estimator's memo

  uint64_t allocs_before = AllocCount();
  for (int i = 0; i < 1000; ++i) sum += estimator.Estimate(view);
  EXPECT_EQ(AllocCount() - allocs_before, 0u);
  EXPECT_GT(sum, 0.0);
}

}  // namespace
}  // namespace planet

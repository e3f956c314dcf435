// ShardedCluster: key-partitioned parallel deployments. Checks the four
// properties drivers lean on — run-to-run determinism of the merged
// metrics, equality with the shards drained one by one on one thread,
// key-space partitioning (shards really are disjoint), and the seed domain
// (shard seeds differ from each other and from the base).
#include "harness/sharded_cluster.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "workload/runners.h"
#include "workload/workload.h"

namespace planet {
namespace {

struct MergedSnapshot {
  uint64_t committed;
  uint64_t aborted;
  uint64_t unavailable;
  uint64_t finished;
  uint64_t events;
  Duration p50;
  Duration p99;

  bool operator==(const MergedSnapshot& o) const {
    return committed == o.committed && aborted == o.aborted &&
           unavailable == o.unavailable && finished == o.finished &&
           events == o.events && p50 == o.p50 && p99 == o.p99;
  }
};

// How the shards are advanced: by ShardedCluster::Drain (one worker thread
// per shard), or one after another on the calling thread with
// Cluster::Drain — the independent computation the threaded run and the
// --sim-shards goldens must equal.
enum class DrainMode { kThreaded, kShardByShard };

MergedSnapshot RunShardedPlanet(int num_shards,
                                DrainMode mode = DrainMode::kThreaded,
                                std::vector<uint64_t>* shard_committed =
                                    nullptr) {
  ClusterOptions base;
  base.seed = 4242;
  base.clients_per_dc = 1;

  ShardedCluster sharded(base, num_shards);

  PlanetRunnerPolicy policy;
  policy.speculation_deadline = Millis(250);
  policy.speculate_threshold = 0.9;

  LoadGenerator::Options load;
  load.think_time_mean = Millis(50);

  std::vector<std::unique_ptr<LoadGenerator>> generators;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    Cluster* cluster = sharded.shard(s);
    WorkloadConfig wl;
    wl.num_keys = 1000;
    wl.num_shards = num_shards;
    wl.shard = s;
    for (int i = 0; i < cluster->num_clients(); ++i) {
      auto gen = std::make_unique<LoadGenerator>(
          &cluster->sim(), cluster->ForkRng(7000 + i),
          MakePlanetRunner(cluster->planet_client(i), wl,
                           cluster->ForkRng(8000 + i), policy),
          load);
      gen->SetResultSink(sharded.context(s).metrics.Sink());
      gen->Start(Seconds(5));
      generators.push_back(std::move(gen));
    }
  }
  uint64_t events = 0;
  if (mode == DrainMode::kThreaded) {
    sharded.Drain();
    EXPECT_EQ(sharded.windows(), 1u) << "independent shards should free-run";
    events = sharded.TotalEventsProcessed();
  } else {
    for (int s = 0; s < sharded.num_shards(); ++s) {
      sharded.shard(s)->Drain();
      events += sharded.shard(s)->sim().events_processed();
    }
  }
  EXPECT_TRUE(sharded.AllConverged());
  if (shard_committed != nullptr) {
    for (int s = 0; s < sharded.num_shards(); ++s) {
      shard_committed->push_back(sharded.context(s).metrics.committed);
    }
  }

  RunMetrics merged = sharded.MergedMetrics();
  MergedSnapshot snap;
  snap.committed = merged.committed;
  snap.aborted = merged.aborted;
  snap.unavailable = merged.unavailable;
  snap.finished = merged.finished();
  snap.events = events;
  snap.p50 = merged.latency_all.Percentile(50);
  snap.p99 = merged.latency_all.Percentile(99);
  return snap;
}

TEST(ShardedCluster, TwoShardsRunTwiceBitIdentical) {
  MergedSnapshot first = RunShardedPlanet(2);
  EXPECT_GT(first.committed, 0u);
  EXPECT_GT(first.events, 0u);
  EXPECT_EQ(RunShardedPlanet(2), first);
}

TEST(ShardedCluster, ThreadedDrainEqualsShardByShardSerialDrain) {
  // The threaded drain must merge to exactly what the same shards give when
  // drained one after another on this thread: K serial runs, merged in
  // shard order. This is what backs the --sim-shards 2 goldens.
  std::vector<uint64_t> shard_committed;
  MergedSnapshot threaded = RunShardedPlanet(2, DrainMode::kThreaded);
  MergedSnapshot serial =
      RunShardedPlanet(2, DrainMode::kShardByShard, &shard_committed);
  EXPECT_EQ(threaded, serial);
  ASSERT_EQ(shard_committed.size(), 2u);
  for (uint64_t committed : shard_committed) {
    EXPECT_GT(committed, 0u);
    EXPECT_GT(serial.committed, committed)
        << "the merge must sum the shards, not report one of them";
  }
}

TEST(ShardedCluster, ShardCountIsPartOfTheSeedDomain) {
  // shards=1 under the sharded engine is NOT the serial seed-4242 run
  // (ShardSeed(s, 0) != s), and different shard counts are different
  // experiments. Just pin that each is self-consistent and they differ.
  MergedSnapshot one = RunShardedPlanet(1);
  MergedSnapshot two = RunShardedPlanet(2);
  EXPECT_GT(one.committed, 0u);
  EXPECT_GT(two.committed, 0u);
  EXPECT_FALSE(one == two);
}

TEST(ShardedCluster, ShardSeedsAreDistinct) {
  ClusterOptions base;
  base.seed = 7;
  ShardedCluster sharded(base, 4);
  std::set<uint64_t> seeds;
  for (int s = 0; s < 4; ++s) {
    seeds.insert(Rng::ShardSeed(base.seed, static_cast<uint64_t>(s)));
  }
  EXPECT_EQ(seeds.size(), 4u);
  EXPECT_EQ(seeds.count(base.seed), 0u)
      << "shard 0 must not reuse the base seed (serial goldens own it)";
}

TEST(KeyChooserSharding, EmitsOnlyOwnedKeysAndCoversAllShards) {
  constexpr int kShards = 4;
  constexpr uint64_t kKeys = 1000;
  for (auto dist : {KeyDist::kUniform, KeyDist::kZipf, KeyDist::kHotspot}) {
    std::set<Key> seen;
    for (int s = 0; s < kShards; ++s) {
      WorkloadConfig wl;
      wl.num_keys = kKeys;
      wl.dist = dist;
      wl.num_shards = kShards;
      wl.shard = s;
      KeyChooser chooser(wl);
      Rng rng(123);
      for (int i = 0; i < 2000; ++i) {
        Key k = chooser.Next(rng);
        ASSERT_LT(k, kKeys);
        ASSERT_EQ(k % kShards, static_cast<Key>(s))
            << "dist " << static_cast<int>(dist) << " leaked a foreign key";
        seen.insert(k);
      }
      // NextDistinct stays inside the shard too.
      for (Key k : chooser.NextDistinct(rng, 8)) {
        ASSERT_EQ(k % kShards, static_cast<Key>(s));
      }
    }
    EXPECT_GT(seen.size(), 100u);
  }
}

TEST(KeyChooserSharding, UnshardedDrawSequenceUnchanged) {
  // num_shards=1 must be the bit-identical historical behaviour — the
  // serial goldens depend on the exact draw sequence. Pin it against a
  // manual reimplementation of the uniform path.
  WorkloadConfig wl;
  wl.num_keys = 777;
  KeyChooser chooser(wl);
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(chooser.Next(a), Key(b.Next() % 777));
  }
}

TEST(LoadGeneratorSessions, MultiplexedSessionsIssueIndependently) {
  // A generator with `sessions = K` and no think time drives K concurrent
  // closed-loop chains: with an instant runner each session issues once per
  // completion, so issued counts scale with K.
  Simulator sim;
  uint64_t runs = 0;
  TxnRunner instant = [&sim, &runs](std::function<void(TxnResult)> done) {
    ++runs;
    sim.Schedule(Micros(10), [done = std::move(done)] {
      done(TxnResult{});  // default Status is Ok
    });
  };
  LoadGenerator::Options opts;
  opts.think_time_mean = Micros(90);
  opts.sessions = 16;
  LoadGenerator gen(&sim, Rng(5), instant, opts);
  gen.Start(Millis(10));
  sim.Run();
  // 16 sessions, ~100us per think+txn cycle over 10ms => ~1600 issues.
  EXPECT_GT(gen.issued(), 800u);
  EXPECT_EQ(gen.issued(), gen.finished());

  // And a single-session generator issues roughly 1/16th of that.
  Simulator sim2;
  uint64_t runs2 = 0;
  TxnRunner instant2 = [&sim2, &runs2](std::function<void(TxnResult)> done) {
    ++runs2;
    sim2.Schedule(Micros(10), [done = std::move(done)] {
      done(TxnResult{});  // default Status is Ok
    });
  };
  LoadGenerator::Options single = opts;
  single.sessions = 1;
  LoadGenerator gen2(&sim2, Rng(5), instant2, single);
  gen2.Start(Millis(10));
  sim2.Run();
  EXPECT_LT(gen2.issued() * 8, gen.issued());
}

TEST(LoadGeneratorSessions, StaggeredStartRampsIn) {
  Simulator sim;
  std::vector<SimTime> first_issue_times;
  TxnRunner recorder = [&](std::function<void(TxnResult)> done) {
    first_issue_times.push_back(sim.Now());
    // Never completes: we only observe the session start ramp.
    (void)done;
  };
  LoadGenerator::Options opts;
  opts.think_time_mean = Millis(1);
  opts.sessions = 64;
  opts.stagger_start = true;
  LoadGenerator gen(&sim, Rng(11), recorder, opts);
  gen.Start(Seconds(1));
  sim.Run();
  ASSERT_EQ(first_issue_times.size(), 64u);
  std::set<SimTime> distinct(first_issue_times.begin(),
                             first_issue_times.end());
  EXPECT_GT(distinct.size(), 32u) << "sessions should not start in lockstep";
}

}  // namespace
}  // namespace planet

// Snapshot isolation and the engine pool: concurrent evaluate() calls
// racing commit()/evict() must return answers consistent with a single
// published epoch (never a torn mix of pre- and post-commit state), the
// published snapshot must be immutable once handed out, and EnginePool
// must build exactly one engine per key under concurrent acquires.
//
// This binary is also the ThreadSanitizer target for the concurrent
// admission path (tools/run_sanitized.sh builds it in the TSan tree).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/admission_engine.hpp"
#include "core/engine_pool.hpp"
#include "core/topology_delta.hpp"
#include "geom/topology.hpp"
#include "net/network.hpp"

namespace mrwsn::core {
namespace {

constexpr double kParityTol = 1e-6;

net::Network chain_network(std::size_t nodes, double spacing) {
  return net::Network(geom::chain(nodes, spacing),
                      phy::PhyModel::paper_default());
}

std::vector<net::LinkId> chain_path(const net::Network& net, std::size_t first,
                                    std::size_t hops) {
  std::vector<net::LinkId> links;
  for (std::size_t i = first; i < first + hops; ++i)
    links.push_back(*net.find_link(i, i + 1));
  return links;
}

TEST(SnapshotIsolation, EvaluateMatchesSequentialQuery) {
  const net::Network net = chain_network(7, 70.0);
  PhysicalInterferenceModel model(net);

  AdmissionEngine concurrent(model);
  concurrent.snapshot();
  AdmissionEngine sequential(model);

  const std::vector<std::vector<net::LinkId>> paths = {
      chain_path(net, 0, 2), chain_path(net, 2, 3), chain_path(net, 0, 6)};
  for (double demand : {0.5, 1.5, 3.0}) {
    for (const auto& path : paths) {
      const AdmissionAnswer a = concurrent.evaluate(path, demand);
      const AdmissionAnswer b = sequential.query(path, demand);
      EXPECT_EQ(a.admitted, b.admitted);
      EXPECT_NEAR(a.available_mbps, b.available_mbps, kParityTol);
      EXPECT_EQ(a.epoch, 1u);
    }
  }
  EXPECT_GE(concurrent.snapshot_read_stats().queries, 9u);
}

TEST(SnapshotIsolation, PublishedSnapshotIsImmutableAcrossCommits) {
  const net::Network net = chain_network(6, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);

  const AdmissionEngine::SnapshotPtr before = engine.snapshot();
  ASSERT_EQ(before->epoch, 1u);
  EXPECT_TRUE(before->background.empty());

  const auto path = chain_path(net, 1, 2);
  ASSERT_TRUE(engine.commit(path, 1.0).admitted);
  ASSERT_TRUE(engine.commit(path, 0.5).admitted);

  // The old snapshot still describes epoch 1 — no background, no links.
  EXPECT_EQ(before->epoch, 1u);
  EXPECT_TRUE(before->background.empty());
  const AdmissionEngine::SnapshotPtr after = engine.published();
  EXPECT_EQ(after->epoch, 3u);
  EXPECT_EQ(after->background.size(), 2u);
  EXPECT_EQ(engine.epoch(), 3u);
}

TEST(SnapshotIsolation, EvictPublishesAnEmptyEpoch) {
  const net::Network net = chain_network(6, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);
  engine.snapshot();

  const auto path = chain_path(net, 0, 3);
  const double empty_available = engine.evaluate(path, 1.0).available_mbps;
  ASSERT_TRUE(engine.commit(path, 2.0).admitted);
  EXPECT_LT(engine.evaluate(path, 1.0).available_mbps, empty_available);

  engine.evict();
  const AdmissionAnswer fresh = engine.evaluate(path, 1.0);
  EXPECT_NEAR(fresh.available_mbps, empty_available, kParityTol);
  EXPECT_TRUE(engine.published()->background.empty());
}

// One admission path: after every kind of write, evaluate(), query() and
// query_batch() all answer against the latest published epoch, and all
// three see the write — they agree with each other and with a cold solve
// of the background the writes left behind.
TEST(SnapshotIsolation, EveryWriteIsVisibleToEveryRead) {
  net::Network net = chain_network(8, 70.0);
  PhysicalInterferenceModel model(net);
  TopologyDelta delta(&net, &model);
  AdmissionEngine engine(model);
  const std::vector<net::LinkId> path = chain_path(net, 2, 3);
  constexpr double kDemand = 0.5;
  std::vector<LinkFlow> background;

  const auto expect_reads_agree = [&](const std::string& write) {
    SCOPED_TRACE("after " + write);
    const PhysicalInterferenceModel fresh(net);
    const AvailableBandwidthResult cold =
        max_path_bandwidth(fresh, background, path);
    ASSERT_TRUE(cold.background_feasible);

    const AdmissionQuery batch_query{path, kDemand};
    std::vector<AdmissionAnswer> reads;
    reads.push_back(engine.evaluate(path, kDemand));
    EXPECT_EQ(reads.back().epoch, engine.published()->epoch) << "evaluate";
    reads.push_back(engine.query(path, kDemand));
    EXPECT_EQ(reads.back().epoch, engine.published()->epoch) << "query";
    reads.push_back(engine.query_batch({&batch_query, 1}).front());
    EXPECT_EQ(reads.back().epoch, engine.published()->epoch) << "query_batch";
    for (const AdmissionAnswer& read : reads) {
      EXPECT_TRUE(read.background_feasible);
      EXPECT_EQ(read.admitted, reads.front().admitted);
      EXPECT_NEAR(read.available_mbps, reads.front().available_mbps,
                  kParityTol);
      EXPECT_NEAR(read.available_mbps, cold.available_mbps, kParityTol);
    }
  };

  const LinkFlow staged{chain_path(net, 0, 2), 0.5};
  engine.add_background(staged);
  background.push_back(staged);
  engine.query(path, kDemand);
  expect_reads_agree("add_background + query");

  const std::vector<net::LinkId> committed = chain_path(net, 4, 2);
  ASSERT_TRUE(engine.commit(committed, 0.25).admitted);
  background.push_back(LinkFlow{committed, 0.25});
  expect_reads_agree("commit");

  engine.apply_topology_delta(
      [&] { return delta.move_node(3, geom::Point{3 * 70.0 + 9.0, 14.0}); });
  expect_reads_agree("apply_topology_delta");

  engine.evict();
  background.clear();
  expect_reads_agree("evict");

  ASSERT_TRUE(engine.commit(committed, 0.25).admitted);
  engine.clear();
  expect_reads_agree("clear");
}

// query_batch() pins one snapshot per batch while writers publish: every
// item of a batch carries the same epoch, and one reader's epochs never go
// back. Under TSan this races the batch's parallel_for against commits and
// churn repairs.
TEST(SnapshotIsolation, QueryBatchPinsOneEpochWhileWritersPublish) {
  net::Network net = chain_network(8, 70.0);
  PhysicalInterferenceModel model(net);
  TopologyDelta delta(&net, &model);
  AdmissionEngine engine(model);
  engine.snapshot();
  std::vector<AdmissionQuery> batch;
  for (std::size_t first = 0; first + 2 < 8; ++first)
    batch.push_back({chain_path(net, first, 2), 0.25});

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> batches{0};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<AdmissionAnswer> answers = engine.query_batch(batch);
      for (const AdmissionAnswer& answer : answers)
        EXPECT_EQ(answer.epoch, answers.front().epoch);
      EXPECT_GE(answers.front().epoch, last);
      last = answers.front().epoch;
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      engine.commit(chain_path(net, i, 2), 0.05);
    } else {
      engine.apply_topology_delta([&] {
        return delta.move_node(
            3, geom::Point{3 * 70.0 + static_cast<double>(i % 3) * 9.0,
                           (i % 4 == 1) ? 14.0 : -14.0});
      });
    }
    // Pace the writer so batches genuinely interleave with publishes.
    while (batches.load(std::memory_order_relaxed) < i + 1)
      std::this_thread::yield();
  }
  stop.store(true);
  reader.join();
  EXPECT_GE(batches.load(), 6u);
}

// The satellite's core promise: readers racing a writer observe answers
// explainable by a single epoch. Every evaluate records (epoch, value);
// afterwards a sequential shadow engine replays the same commit sequence
// and every record must match its epoch's shadow answer to 1e-6.
TEST(SnapshotIsolation, ConcurrentEvaluatesAreEpochConsistentDuringCommits) {
  const net::Network net = chain_network(8, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);
  engine.snapshot();  // epoch 1

  const std::vector<std::vector<net::LinkId>> eval_paths = {
      chain_path(net, 0, 3), chain_path(net, 2, 4), chain_path(net, 5, 2),
      chain_path(net, 0, 7)};
  const double eval_demand = 1.0;

  // Writer plan: commits small enough that several get admitted, plus one
  // mid-stream evict.
  struct WriterOp {
    bool evict;
    std::size_t first, hops;
    double demand;
  };
  const std::vector<WriterOp> writer_ops = {
      {false, 1, 2, 0.4}, {false, 4, 2, 0.3}, {false, 0, 5, 0.2},
      {true, 0, 0, 0.0},  {false, 2, 3, 0.5}, {false, 5, 2, 0.25}};

  struct Record {
    std::size_t path = 0;
    std::uint64_t epoch = 0;
    double available = 0.0;
    bool admitted = false;
  };
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kEvalsPerReader = 200;
  std::vector<std::vector<Record>> records(kReaders);
  std::atomic<bool> go{false};

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r)
    readers.emplace_back([&, r] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      records[r].reserve(kEvalsPerReader);
      for (std::size_t i = 0; i < kEvalsPerReader; ++i) {
        const std::size_t p = (r + i) % eval_paths.size();
        const AdmissionAnswer answer =
            engine.evaluate(eval_paths[p], eval_demand);
        records[r].push_back(
            Record{p, answer.epoch, answer.available_mbps, answer.admitted});
      }
    });

  go.store(true, std::memory_order_release);
  for (const WriterOp& op : writer_ops) {
    if (op.evict)
      engine.evict();
    else
      engine.commit(chain_path(net, op.first, op.hops), op.demand);
    std::this_thread::yield();
  }
  for (std::thread& reader : readers) reader.join();

  // Sequential shadow: expected[epoch][path] from replaying the writers.
  std::vector<std::map<std::size_t, AdmissionAnswer>> expected(
      writer_ops.size() + 2);
  {
    AdmissionEngine shadow(model);
    for (std::size_t epoch = 1; epoch <= writer_ops.size() + 1; ++epoch) {
      for (std::size_t p = 0; p < eval_paths.size(); ++p)
        expected[epoch][p] = shadow.query(eval_paths[p], eval_demand);
      if (epoch <= writer_ops.size()) {
        const WriterOp& op = writer_ops[epoch - 1];
        if (op.evict)
          shadow.evict();
        else
          shadow.commit(chain_path(net, op.first, op.hops), op.demand);
      }
    }
  }

  std::size_t checked = 0;
  for (const auto& lane : records)
    for (const Record& record : lane) {
      ASSERT_GE(record.epoch, 1u);
      ASSERT_LE(record.epoch, writer_ops.size() + 1);
      const AdmissionAnswer& want = expected[record.epoch].at(record.path);
      EXPECT_EQ(record.admitted, want.admitted)
          << "epoch " << record.epoch << " path " << record.path;
      EXPECT_NEAR(record.available, want.available_mbps, kParityTol)
          << "epoch " << record.epoch << " path " << record.path;
      ++checked;
    }
  EXPECT_EQ(checked, kReaders * kEvalsPerReader);
  EXPECT_EQ(engine.snapshot_read_stats().queries, checked);
}

TEST(SnapshotIsolation, ConcurrentCommitsSerializeWithDistinctEpochs) {
  const net::Network net = chain_network(8, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);
  engine.snapshot();

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kCommitsPerWriter = 8;
  std::vector<std::vector<std::uint64_t>> epochs(kWriters);
  std::atomic<std::size_t> admitted{0};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kCommitsPerWriter; ++i) {
        const AdmissionAnswer answer =
            engine.commit(chain_path(net, (w + i) % 6, 2), 0.05);
        epochs[w].push_back(answer.epoch);
        if (answer.admitted) admitted.fetch_add(1);
      }
    });
  for (std::thread& writer : writers) writer.join();

  // Every commit published its own epoch: all stamps distinct, and the
  // final epoch is 1 (initial) + total commits.
  std::vector<std::uint64_t> all;
  for (const auto& lane : epochs) all.insert(all.end(), lane.begin(), lane.end());
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(engine.epoch(), 1u + kWriters * kCommitsPerWriter);
  EXPECT_EQ(engine.published()->background.size(), admitted.load());
}

TEST(SnapshotIsolation, ChurnRacingEvaluateIsEpochConsistent) {
  // Deterministic mutation script (node 3 shuttles around its chain slot),
  // replayable for the shadow pass below.
  constexpr std::size_t kMutations = 24;
  constexpr double kDemand = 0.25;
  const auto target_of = [](std::size_t i) {
    return geom::Point{3 * 70.0 + static_cast<double>(i % 3) * 9.0,
                       (i % 2) ? 14.0 : -14.0};
  };

  net::Network net = chain_network(8, 70.0);
  PhysicalInterferenceModel model(net);
  TopologyDelta delta(&net, &model);
  AdmissionEngine engine(model);
  engine.add_background(LinkFlow{chain_path(net, 0, 2), 0.5});
  engine.snapshot();
  const std::vector<net::LinkId> path = chain_path(net, 4, 3);

  // Phase 1: evaluate() readers race the churn writer; every answer
  // records the epoch it was served under. TSan holds this phase to "the
  // model is never patched under a solve in flight".
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  constexpr std::size_t kReaders = 4;
  std::vector<std::vector<std::pair<std::uint64_t, double>>> seen(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t)
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const AdmissionAnswer a = engine.evaluate(path, kDemand);
        seen[t].emplace_back(a.epoch, a.available_mbps);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::size_t i = 0; i < kMutations; ++i) {
    engine.apply_topology_delta(
        [&] { return delta.move_node(3, target_of(i)); });
    // Pace the churn against the readers so epochs genuinely interleave
    // with solves instead of racing past them before the threads spin up.
    while (reads.load(std::memory_order_relaxed) < 2 * (i + 1))
      std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(engine.epoch(), 1u + kMutations);

  // Phase 2: shadow replay. Run the same script sequentially, record every
  // epoch's reference answer, and hold each racy answer to the reference
  // of the epoch it was stamped with — a reader that raced a repair must
  // have seen either the pre- or post-churn world in full, never a mix.
  net::Network shadow_net = chain_network(8, 70.0);
  PhysicalInterferenceModel shadow_model(shadow_net);
  TopologyDelta shadow_delta(&shadow_net, &shadow_model);
  AdmissionEngine shadow(shadow_model);
  shadow.add_background(LinkFlow{chain_path(shadow_net, 0, 2), 0.5});
  shadow.snapshot();
  std::map<std::uint64_t, double> reference;
  reference[shadow.epoch()] = shadow.query(path, kDemand).available_mbps;
  for (std::size_t i = 0; i < kMutations; ++i) {
    const std::uint64_t epoch = shadow.apply_topology_delta(
        [&] { return shadow_delta.move_node(3, target_of(i)); });
    reference[epoch] = shadow.query(path, kDemand).available_mbps;
  }

  std::size_t verified = 0;
  for (const auto& lane : seen)
    for (const auto& [epoch, available] : lane) {
      const auto it = reference.find(epoch);
      ASSERT_TRUE(it != reference.end()) << "answer from unknown epoch "
                                         << epoch;
      EXPECT_NEAR(available, it->second, kParityTol) << "epoch " << epoch;
      ++verified;
    }
  EXPECT_GT(verified, 0u);
}

// Every supported (link, rate) singleton of the topology — enough distinct
// columns to span several pool chunks on a moderate chain, without pulling
// in the bench harness's randomized synthesizer.
std::vector<IndependentSet> singleton_columns(
    const PhysicalInterferenceModel& model, const net::Network& net) {
  std::vector<IndependentSet> out;
  for (net::LinkId link = 0; link < net.num_links(); ++link) {
    const auto top = model.max_rate_alone(link);
    if (!top) continue;
    for (int rate = 0; rate <= static_cast<int>(*top); ++rate) {
      IndependentSet set;
      set.links = {link};
      set.rates = {static_cast<phy::RateIndex>(rate)};
      if (model.supports(set.links, set.rates)) out.push_back(std::move(set));
    }
  }
  return out;
}

// The tentpole's O(Δ) publication claim, held by pointer identity: epoch
// N+1 must alias — not copy — every full pool chunk of epoch N, because a
// commit only ever appends fresh columns to the tail chunk.
TEST(StructureSharing, UntouchedPoolChunksAliasAcrossEpochs) {
  const net::Network net = chain_network(24, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);

  constexpr std::size_t kChunk = AdmissionEngine::PoolSeg::chunk_capacity();
  const std::size_t preloaded =
      engine.preload_columns(singleton_columns(model, net));
  ASSERT_GT(preloaded, kChunk) << "topology too small to span two chunks";

  const AdmissionEngine::SnapshotPtr epoch_n = engine.snapshot();
  ASSERT_TRUE(engine.commit(chain_path(net, 2, 3), 0.25).admitted);
  const AdmissionEngine::SnapshotPtr epoch_n1 = engine.published();
  ASSERT_EQ(epoch_n1->epoch, epoch_n->epoch + 1);

  const std::size_t shared_prefix = (epoch_n->pool.size() / kChunk) * kChunk;
  for (std::size_t i = 0; i < shared_prefix; i += kChunk)
    EXPECT_EQ(epoch_n->pool.chunk_identity(i), epoch_n1->pool.chunk_identity(i))
        << "pool chunk covering index " << i << " was deep-copied";
  EXPECT_GE(epoch_n1->pool.size(), epoch_n->pool.size());

  // The next epoch keeps aliasing, including the chunks the commit between
  // N and N+1 already shared once.
  ASSERT_TRUE(engine.commit(chain_path(net, 6, 2), 0.25).admitted);
  const AdmissionEngine::SnapshotPtr epoch_n2 = engine.published();
  for (std::size_t i = 0; i < shared_prefix; i += kChunk)
    EXPECT_EQ(epoch_n->pool.chunk_identity(i), epoch_n2->pool.chunk_identity(i));

  // And the commit really did advance the background without touching N.
  EXPECT_TRUE(epoch_n->background.empty());
  EXPECT_EQ(epoch_n2->background.size(), 2u);
}

// A retained snapshot must stay readable and bit-stable after the writer
// evicts, commits, and repairs the topology in place: copy-on-write means
// the in-place master/pool surgery lands in fresh chunks, never in the
// chunks an old epoch aliases.
TEST(StructureSharing, OldEpochReadableAfterEvictionAndChurn) {
  net::Network net = chain_network(8, 70.0);
  PhysicalInterferenceModel model(net);
  TopologyDelta delta(&net, &model);
  AdmissionEngine engine(model);
  engine.add_background(LinkFlow{chain_path(net, 0, 2), 0.5});
  engine.add_background(LinkFlow{chain_path(net, 3, 2), 0.25});

  const AdmissionEngine::SnapshotPtr old_epoch = engine.snapshot();
  ASSERT_TRUE(old_epoch->feasible);
  const double old_airtime = old_epoch->airtime;
  const std::vector<double> old_demand(old_epoch->demand.begin(),
                                       old_epoch->demand.end());
  const std::vector<net::LinkId> old_links(old_epoch->links.begin(),
                                           old_epoch->links.end());
  const std::size_t old_pool = old_epoch->pool.size();

  engine.evict();
  ASSERT_TRUE(engine.commit(chain_path(net, 4, 2), 0.125).admitted);
  engine.apply_topology_delta(
      [&] { return delta.move_node(3, geom::Point{3 * 70.0 + 9.0, 14.0}); });
  engine.apply_topology_delta(
      [&] { return delta.move_node(3, geom::Point{3 * 70.0, 0.0}); });

  EXPECT_EQ(old_epoch->background.size(), 2u);
  EXPECT_EQ(old_epoch->airtime, old_airtime);
  EXPECT_TRUE(old_epoch->feasible);
  EXPECT_EQ(std::vector<double>(old_epoch->demand.begin(),
                                old_epoch->demand.end()),
            old_demand);
  EXPECT_EQ(std::vector<net::LinkId>(old_epoch->links.begin(),
                                     old_epoch->links.end()),
            old_links);
  EXPECT_EQ(old_epoch->pool.size(), old_pool);
  // The writer has long since moved on.
  EXPECT_GT(engine.epoch(), old_epoch->epoch);
  EXPECT_EQ(engine.published()->background.size(), 1u);
}

// AdmissionEngineOptions::shelf_capacity bounds the reader column shelf:
// overflow is dropped and counted, and answers are unaffected (the shelf
// only feeds the pool warm-up, never correctness).
TEST(SnapshotIsolation, ShelfCapacityDropsOverflowAndCounts) {
  const net::Network net = chain_network(10, 70.0);
  PhysicalInterferenceModel model(net);

  AdmissionEngineOptions tight_options;
  tight_options.shelf_capacity = 1;
  AdmissionEngine tight(model, tight_options);
  tight.snapshot();
  AdmissionEngine roomy(model);  // default capacity
  roomy.snapshot();

  for (std::size_t first = 0; first + 3 < 10; ++first) {
    const auto path = chain_path(net, first, 3);
    const AdmissionAnswer a = tight.evaluate(path, 0.5);
    const AdmissionAnswer b = roomy.evaluate(path, 0.5);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_NEAR(a.available_mbps, b.available_mbps, kParityTol);
  }

  EXPECT_GT(tight.stats().shelf_dropped, 0u);
  EXPECT_EQ(roomy.stats().shelf_dropped, 0u);
  EXPECT_LE(tight.snapshot_read_stats().shelved_columns, 1u);
  EXPECT_GT(roomy.snapshot_read_stats().shelved_columns,
            tight.snapshot_read_stats().shelved_columns);
}

TEST(EnginePool, BuildsOncePerKeyUnderConcurrentAcquire) {
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  EnginePool pool;
  std::atomic<std::size_t> builds{0};
  const auto factory = [&] {
    builds.fetch_add(1);
    return std::make_shared<EnginePool::Entry>(nullptr, model);
  };

  constexpr std::size_t kThreads = 8;
  std::vector<EnginePool::EntryPtr> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { got[t] = pool.acquire(0xABCDu, factory); });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(builds.load(), 1u);
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]);
  const EnginePoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EnginePool, EvictDropsTheKeyButNotOutstandingEntries) {
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  EnginePool pool;
  std::size_t builds = 0;
  const auto factory = [&] {
    ++builds;
    return std::make_shared<EnginePool::Entry>(nullptr, model);
  };

  const EnginePool::EntryPtr first = pool.acquire(7, factory);
  ASSERT_TRUE(first != nullptr);
  EXPECT_TRUE(pool.evict(7));
  EXPECT_FALSE(pool.evict(7));
  EXPECT_EQ(pool.size(), 0u);

  // The held entry stays alive and usable after eviction.
  first->engine.snapshot();
  EXPECT_EQ(first->engine.epoch(), 1u);

  const EnginePool::EntryPtr second = pool.acquire(7, factory);
  EXPECT_EQ(builds, 2u);
  EXPECT_TRUE(second != first);
}

TEST(EnginePool, MutatedEntryIsAStaleMissOnReacquire) {
  net::Network net = chain_network(6, 70.0);
  PhysicalInterferenceModel model(net);
  TopologyDelta delta(&net, &model);
  EnginePool pool;
  std::size_t builds = 0;
  const auto factory = [&] {
    ++builds;
    return std::make_shared<EnginePool::Entry>(nullptr, model);
  };

  constexpr std::uint64_t kKey = 0xB10Bu;  // stands in for io::scenario_hash
  const EnginePool::EntryPtr first = pool.acquire(kKey, factory);
  first->engine.snapshot();
  const std::uint64_t pre_epoch = first->engine.epoch();
  EXPECT_EQ(pool.acquire(kKey, factory), first);  // untouched: warm hit

  // Mutate the pooled topology in place: the load-time content hash the
  // key was computed from no longer describes this entry.
  first->engine.apply_topology_delta(
      [&] { return delta.move_node(0, {5.0, 5.0}); });
  first->mark_mutated();

  const EnginePool::EntryPtr second = pool.acquire(kKey, factory);
  EXPECT_TRUE(second != first);
  EXPECT_FALSE(second->mutated());
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(pool.stats().stale, 1u);
  EXPECT_EQ(pool.acquire(kKey, factory), second);  // fresh entry is warm

  // The stale holder keeps a working engine (its churn epoch survived).
  EXPECT_GT(first->engine.epoch(), pre_epoch);
}

TEST(EnginePool, DistinctKeysGetDistinctEngines) {
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  EnginePool pool;
  const auto factory = [&] {
    return std::make_shared<EnginePool::Entry>(nullptr, model);
  };
  const EnginePool::EntryPtr a = pool.acquire(1, factory);
  const EnginePool::EntryPtr b = pool.acquire(2, factory);
  EXPECT_TRUE(a != b);
  EXPECT_EQ(pool.acquire(1, factory), a);
  EXPECT_EQ(pool.size(), 2u);
  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
}

}  // namespace
}  // namespace mrwsn::core

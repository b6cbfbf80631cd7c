// Randomized property sweeps tying the whole stack together:
//   * BFS levels match the serial reference for random graphs across
//     every scheduler variant and random seeds (TEST_P sweep).
//   * Token conservation holds for random task DAGs.
//   * The host broker queue's claim/poll API is linearizable with
//     respect to batch boundaries under randomized interleavings.
#include <gtest/gtest.h>

#include <map>

#include "bfs/pt_bfs.h"
#include "core/counters.h"
#include "core/host_queue.h"
#include "core/ext_schedulers.h"
#include "graph/bfs_ref.h"
#include "graph/generators.h"
#include "tasks/task_engine.h"
#include "util/prng.h"

namespace scq {
namespace {

simt::DeviceConfig prop_device(std::uint32_t cus) {
  simt::DeviceConfig cfg;
  cfg.name = "prop";
  cfg.num_cus = cus;
  cfg.waves_per_cu = 2;
  cfg.mem_latency = 120;
  cfg.atomic_latency = 40;
  cfg.atomic_service = 3;
  cfg.lds_latency = 10;
  cfg.issue_cost = 3;
  cfg.kernel_launch_overhead = 800;
  return cfg;
}

// Random graph drawn from a seed: mixes families so the sweep covers
// trees, power-law, lattices and random graphs.
graph::Graph random_graph(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto family = rng.below(4);
  const auto n = static_cast<graph::Vertex>(500 + rng.below(2500));
  switch (family) {
    case 0:
      return graph::synthetic_kary(n, 2 + static_cast<unsigned>(rng.below(5)));
    case 1: {
      graph::RmatParams p;
      p.n_vertices = n;
      p.n_edges = n * (2 + rng.below(8));
      p.seed = seed * 31 + 7;
      return graph::rmat(p);
    }
    case 2:
      return graph::road_network({.n_vertices = n, .seed = seed * 13 + 1});
    default:
      return graph::rodinia_random(
          {.n_vertices = n,
           .avg_degree = 2 + static_cast<unsigned>(rng.below(5)),
           .seed = seed * 17 + 3});
  }
}

class RandomGraphBfs
    : public ::testing::TestWithParam<std::tuple<QueueVariant, int>> {};

TEST_P(RandomGraphBfs, LevelsAlwaysMatchReference) {
  const auto& [variant, seed] = GetParam();
  const graph::Graph g = random_graph(static_cast<std::uint64_t>(seed));
  const graph::Vertex source =
      static_cast<graph::Vertex>(seed * 37 % g.num_vertices());
  const auto ref = graph::bfs_levels(g, source);

  bfs::PtBfsOptions opt;
  opt.variant = variant;
  if (variant == QueueVariant::kStack) opt.queue_headroom = 16.0;
  const bfs::BfsResult result =
      bfs::run_pt_bfs(prop_device(3 + seed % 4), g, source, opt);
  ASSERT_FALSE(result.run.aborted) << result.run.abort_reason;
  EXPECT_TRUE(bfs::matches_reference(result.levels, ref))
      << "seed " << seed << ": " << bfs::first_mismatch(result.levels, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomGraphBfs,
    ::testing::Combine(::testing::Values(QueueVariant::kBase, QueueVariant::kAn,
                                         QueueVariant::kRfan,
                                         QueueVariant::kDistrib),
                       ::testing::Range(1, 6)),
    [](const auto& i) {
      std::string name;
      switch (std::get<0>(i.param)) {
        case QueueVariant::kBase: name = "BASE"; break;
        case QueueVariant::kAn: name = "AN"; break;
        case QueueVariant::kRfan: name = "RFAN"; break;
        case QueueVariant::kDistrib: name = "DISTRIB"; break;
        default: name = "STACK"; break;
      }
      return name + "_seed" + std::to_string(std::get<1>(i.param));
    });

TEST(RandomDagConservation, EveryVariantConservesRandomDags) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto variant :
         {QueueVariant::kRfan, QueueVariant::kStack, QueueVariant::kDistrib}) {
      simt::Device dev(prop_device(4));
      auto queue = make_scheduler(dev, variant, 1 << 16);
      util::Xoshiro256 rng(seed);
      std::map<std::uint64_t, int> visits;
      std::uint64_t next_id = 1;
      const std::vector<tasks::TaskSeed> seeds{{0, 0}};
      const auto run = tasks::run_host_tasks(
          dev, *queue, seeds, [&](tasks::TaskContext& ctx) {
            const std::uint64_t token = ctx.payload();
            visits[token] += 1;
            const std::uint64_t depth = token & 0xff;
            if (depth >= 7) return;
            const std::uint64_t fanout =
                depth < 2 ? 3 : rng.below(4);  // ramp then irregular
            for (std::uint64_t i = 0; i < fanout; ++i) {
              ctx.spawn((next_id++ << 8) | (depth + 1), 0);
            }
          });
      ASSERT_FALSE(run.aborted) << run.abort_reason;
      for (const auto& [token, count] : visits) {
        ASSERT_EQ(count, 1) << "variant " << to_string(variant) << " seed "
                            << seed << " token " << token;
      }
      EXPECT_EQ(visits.size(), next_id);
    }
  }
}

TEST(HostBrokerProperty, RandomizedClaimPollInterleavings) {
  // Single-threaded adversarial schedule: randomly interleave batch
  // enqueues with claim/poll consumers and verify exactly-once, in-order
  // delivery per ticket.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Xoshiro256 rng(seed);
    HostBrokerQueue<std::uint64_t> q(64);
    std::uint64_t produced = 0, consumed = 0;
    std::vector<HostBrokerQueue<std::uint64_t>::Ticket> tickets;
    std::uint64_t claimed_total = 0;
    std::uint64_t expected_next = 0;

    auto poll_all = [&] {
      for (auto& t : tickets) {
        std::array<std::uint64_t, 8> out{};
        const std::uint64_t start = t.first + t.consumed;
        const auto got = q.poll(t, out);
        for (std::uint32_t i = 0; i < got; ++i) {
          ASSERT_EQ(out[i], start + i) << "ticket delivery must be in order";
        }
        consumed += got;
      }
    };

    for (int step = 0; step < 400; ++step) {
      if (rng.chance(0.5) && produced - consumed < 48) {
        // Publish a batch of 1..8 sequential values. A ring slot only
        // recycles when its claimant polls it, and this test is single-
        // threaded, so drain every ticket first — a blocking enqueue
        // against an unpolled low ticket would deadlock.
        poll_all();
        const std::size_t n = 1 + rng.below(8);
        std::vector<std::uint64_t> batch;
        for (std::size_t i = 0; i < n; ++i) batch.push_back(produced++);
        if (produced - consumed < q.capacity()) {
          ASSERT_TRUE(q.enqueue_batch(batch));
        } else {
          produced -= n;  // ring genuinely full of unpolled claims: skip
        }
      } else if (rng.chance(0.6) && claimed_total < produced + 16) {
        tickets.push_back(q.claim_slots(1 + static_cast<std::uint32_t>(rng.below(4))));
        claimed_total += tickets.back().count;
      } else if (!tickets.empty()) {
        // Poll a random ticket; consumed values must be globally ordered
        // by ticket start (tickets partition the sequence space).
        auto& t = tickets[rng.below(tickets.size())];
        std::array<std::uint64_t, 8> out{};
        const std::uint64_t start = t.first + t.consumed;
        const auto got = q.poll(t, out);
        for (std::uint32_t i = 0; i < got; ++i) {
          ASSERT_EQ(out[i], start + i) << "ticket delivery must be in order";
        }
        consumed += got;
      }
    }
    // Drain: publish enough for all claims, polling tickets whenever the
    // ring is full (a blocking enqueue could deadlock single-threaded).
    auto poll_everything = [&] {
      for (auto& t : tickets) {
        std::array<std::uint64_t, 8> out{};
        consumed += q.poll(t, out);
      }
    };
    int guard = 0;
    while (produced < claimed_total && guard++ < 100'000) {
      if (q.try_enqueue(produced)) {
        ++produced;
      } else {
        poll_everything();
      }
    }
    guard = 0;
    while (consumed < claimed_total && guard++ < 100'000) poll_everything();
    for (const auto& t : tickets) ASSERT_TRUE(t.done());
    EXPECT_EQ(consumed, claimed_total);
    (void)expected_next;
  }
}

TEST(DeterminismProperty, WholeStackIsReproducible) {
  for (const auto variant : {QueueVariant::kRfan, QueueVariant::kDistrib}) {
    const graph::Graph g = random_graph(9);
    bfs::PtBfsOptions opt;
    opt.variant = variant;
    const auto a = bfs::run_pt_bfs(prop_device(4), g, 0, opt);
    const auto b = bfs::run_pt_bfs(prop_device(4), g, 0, opt);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.stats.user[kWorkCycles], b.run.stats.user[kWorkCycles]);
    EXPECT_EQ(a.levels, b.levels);
  }
}

}  // namespace
}  // namespace scq

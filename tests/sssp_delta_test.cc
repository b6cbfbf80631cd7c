// Golden tests for the delta-stepping / A* SSSP driver on the priority
// multi-queue: distances must match graph::dijkstra, the serial
// delta-stepping and A* references, and the FIFO pt_sssp driver across
// BASE/AN/RFAN — plus bit-exactness under seed 0 and the cluster
// token-packing boundary (the 22-bit cost saturation policy).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bfs/pt_sssp.h"
#include "bfs/pt_sssp_delta.h"
#include "cluster/token.h"
#include "core/counters.h"
#include "graph/generators.h"
#include "graph/sssp_ref.h"
#include "sim/flight_recorder.h"
#include "support/queue_checker.h"
#include "support/sssp_serial_ref.h"

namespace scq::bfs {
namespace {

using graph::Vertex;

simt::DeviceConfig small_device() {
  simt::DeviceConfig cfg = simt::spectre_config();
  cfg.num_cus = 4;
  cfg.waves_per_cu = 2;
  cfg.kernel_launch_overhead = 500;
  return cfg;
}

// W x H lattice with 4-neighbour connectivity and deterministic weights
// in [1, 10]; vertex (x, y) is y * W + x. Manhattan distance to the
// far corner is consistent here: adjacent cells differ by 1 in h and
// every edge weighs at least 1.
graph::Graph make_grid(Vertex w, Vertex h, std::uint64_t seed) {
  std::vector<graph::WeightedEdge> edges;
  auto wgt = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<graph::Weight>(1 + (seed >> 33) % 10);
  };
  for (Vertex y = 0; y < h; ++y) {
    for (Vertex x = 0; x < w; ++x) {
      const Vertex v = y * w + x;
      if (x + 1 < w) edges.push_back({v, v + 1, wgt()});
      if (y + 1 < h) edges.push_back({v, v + w, wgt()});
    }
  }
  return graph::Graph::from_weighted_edges(w * h, edges, true);
}

std::function<std::uint64_t(Vertex)> manhattan_to_corner(Vertex w, Vertex h) {
  return [w, h](Vertex v) -> std::uint64_t {
    const Vertex x = v % w, y = v / w;
    return (w - 1 - x) + (h - 1 - y);
  };
}

struct NamedGraph {
  const char* name;
  graph::Graph g;
};

std::vector<NamedGraph> golden_graphs() {
  std::vector<NamedGraph> out;
  out.push_back({"tree", graph::with_random_weights(
                             graph::synthetic_kary(500, 4), 11)});
  // A chain maximizes bucket count: every band closes in sequence.
  {
    std::vector<graph::WeightedEdge> chain;
    std::uint64_t s = 99;
    for (Vertex v = 0; v + 1 < 300; ++v) {
      s = s * 48271 % 2147483647;
      chain.push_back({v, v + 1, static_cast<graph::Weight>(1 + s % 9)});
    }
    out.push_back({"chain", graph::Graph::from_weighted_edges(300, chain)});
  }
  out.push_back({"random", graph::with_random_weights(
                               graph::rodinia_random({.n_vertices = 600,
                                                      .avg_degree = 5,
                                                      .seed = 3}),
                               7)});
  out.push_back({"grid", make_grid(24, 24, 5)});
  return out;
}

// ---- Serial references against Dijkstra ----

TEST(SerialDeltaRef, MatchesDijkstraAcrossGraphsAndDeltas) {
  for (const auto& [name, g] : golden_graphs()) {
    const auto want = graph::dijkstra(g, 0);
    for (const std::uint64_t delta : {1ull, 3ull, 8ull}) {
      EXPECT_EQ(fuzz::serial_delta_stepping(g, 0, delta), want)
          << name << " delta=" << delta;
    }
  }
}

TEST(SerialAstarRef, MatchesDijkstraOnGrid) {
  const graph::Graph g = make_grid(20, 20, 17);
  const auto want = graph::dijkstra(g, 0);
  EXPECT_EQ(fuzz::serial_astar(g, 0, manhattan_to_corner(20, 20)), want);
  EXPECT_EQ(fuzz::serial_astar(g, 0, nullptr), want);  // h=0 == Dijkstra
}

// ---- The device driver against every reference ----

TEST(PtSsspDelta, MatchesAllReferences) {
  const simt::DeviceConfig cfg = small_device();
  for (const auto& [name, g] : golden_graphs()) {
    const auto want = graph::dijkstra(g, 0);
    ASSERT_EQ(fuzz::serial_delta_stepping(g, 0, 4), want) << name;

    const SsspResult delta = run_pt_sssp_delta(cfg, g, 0);
    ASSERT_FALSE(delta.run.aborted) << name << ": " << delta.run.abort_reason;
    EXPECT_EQ(delta.dist, want) << name;

    // The FIFO driver across every single-band variant agrees too.
    for (const QueueVariant v :
         {QueueVariant::kBase, QueueVariant::kAn, QueueVariant::kRfan}) {
      PtSsspOptions fifo;
      fifo.variant = v;
      const SsspResult r = run_pt_sssp(cfg, g, 0, fifo);
      ASSERT_FALSE(r.run.aborted) << name;
      EXPECT_EQ(r.dist, want) << name << " variant=" << static_cast<int>(v);
    }
  }
}

TEST(PtSsspDelta, ExplicitDeltaAndBandCounts) {
  const graph::Graph g = make_grid(16, 16, 23);
  const auto want = graph::dijkstra(g, 0);
  for (const std::uint32_t bands : {2u, 8u, 16u}) {
    for (const std::uint64_t delta : {1ull, 5ull, 40ull}) {
      PtSsspDeltaOptions opt;
      opt.num_bands = bands;
      opt.delta = delta;
      const SsspResult r = run_pt_sssp_delta(small_device(), g, 0, opt);
      ASSERT_FALSE(r.run.aborted) << "bands=" << bands << " delta=" << delta;
      EXPECT_EQ(r.dist, want) << "bands=" << bands << " delta=" << delta;
    }
  }
}

TEST(PtSsspDelta, AstarOnGridMatchesAndReordersWork) {
  const Vertex side = 20;
  const graph::Graph g = make_grid(side, side, 31);
  const auto want = graph::dijkstra(g, 0);

  PtSsspDeltaOptions astar;
  astar.heuristic = manhattan_to_corner(side, side);
  const SsspResult r = run_pt_sssp_delta(small_device(), g, 0, astar);
  ASSERT_FALSE(r.run.aborted) << r.run.abort_reason;
  EXPECT_EQ(r.dist, want);
  EXPECT_EQ(r.dist, fuzz::serial_astar(g, 0, astar.heuristic));
}

TEST(PtSsspDelta, UnweightedGraphDegeneratesToLevelBanding) {
  const graph::Graph g = graph::synthetic_kary(400, 3);
  const auto want = graph::dijkstra(g, 0);
  const SsspResult r = run_pt_sssp_delta(small_device(), g, 0);
  ASSERT_FALSE(r.run.aborted);
  EXPECT_EQ(r.dist, want);
}

TEST(PtSsspDelta, SeedZeroIsBitExact) {
  const graph::Graph g = make_grid(18, 18, 41);
  const SsspResult a = run_pt_sssp_delta(small_device(), g, 0);
  const SsspResult b = run_pt_sssp_delta(small_device(), g, 0);
  ASSERT_FALSE(a.run.aborted);
  EXPECT_EQ(a.run.cycles, b.run.cycles);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.run.stats.user[kEdgesRelaxed], b.run.stats.user[kEdgesRelaxed]);
  EXPECT_EQ(a.run.stats.user[kStaleSkips], b.run.stats.user[kStaleSkips]);
  EXPECT_EQ(a.run.stats.user[kBandCloses], b.run.stats.user[kBandCloses]);
}

TEST(PtSsspDelta, RecordsBandClosures) {
  // A weighted chain walks through every bucket in order, so band
  // closures must fire as the frontier advances.
  std::vector<graph::WeightedEdge> chain;
  for (Vertex v = 0; v + 1 < 200; ++v) chain.push_back({v, v + 1, 5});
  const graph::Graph g = graph::Graph::from_weighted_edges(200, chain);
  PtSsspDeltaOptions opt;
  opt.delta = 5;
  const SsspResult r = run_pt_sssp_delta(small_device(), g, 0, opt);
  ASSERT_FALSE(r.run.aborted);
  EXPECT_GT(r.run.stats.user[kBandCloses], 0u);
  EXPECT_EQ(r.dist, graph::dijkstra(g, 0));
}

TEST(PtSsspDelta, HistoryPassesBandedChecker) {
  // The real driver's operation history must satisfy the full banded
  // spec: per-band exactly-once, slot mapping, band fields, and
  // closure monotonicity (the delta-stepping soundness argument in
  // pt_sssp_delta.h, verified rather than trusted).
  const graph::Graph g = make_grid(16, 16, 13);
  simt::OpHistory history;
  PtSsspDeltaOptions opt;
  opt.history = &history;
  opt.queue_capacity = 1024;  // 8 bands x 128 slots, no retry resizing
  const SsspResult r = run_pt_sssp_delta(small_device(), g, 0, opt);
  ASSERT_FALSE(r.run.aborted);
  ASSERT_EQ(r.attempts, 1u);
  const fuzz::CheckResult check = fuzz::check_history(
      history.snapshot(), {.capacity = 128, .num_bands = 8});
  EXPECT_TRUE(check.ok()) << check.report();
  EXPECT_GT(check.delivered, 0u);
}

// The closed-band rescue drops claim-ahead lanes from their monitors;
// the flight recorder must retire the monitor waits of those claims,
// so after a clean run it holds at most one monitor per lane (the
// claims still pending when the kernel exited), never a dropped one.
TEST(PtSsspDelta, RescuedClaimsLeaveNoStaleMonitors) {
  simt::DeviceConfig cfg = small_device();
  cfg.num_cus = 2;  // 4 waves, 256 lanes
  const graph::Graph g = make_grid(32, 32, 23);
  for (const std::uint32_t bands : {2u, 4u, 8u}) {
    simt::FlightRecorder recorder;
    PtSsspDeltaOptions opt;
    opt.num_bands = bands;
    opt.recorder = &recorder;
    const SsspResult r = run_pt_sssp_delta(cfg, g, 0, opt);
    ASSERT_FALSE(r.run.aborted) << bands << " bands";
    ASSERT_EQ(r.dist, graph::dijkstra(g, 0)) << bands << " bands";
    EXPECT_GT(r.run.stats.user[kBandCloses], 0u) << bands << " bands";
    std::map<std::uint32_t, std::uint64_t> per_wave;
    for (const auto& [key, wait] : recorder.monitors()) ++per_wave[wait.actor];
    EXPECT_LE(per_wave.size(), cfg.resident_waves()) << bands << " bands";
    for (const auto& [actor, n] : per_wave) {
      EXPECT_LE(n, simt::kWaveWidth)
          << "wave " << actor << " holds " << n << " monitors, " << bands
          << " bands";
    }
  }
}

// ---- Token-packing boundary: the 22-bit cost saturation policy ----

TEST(ClusterToken, SaturatingPackClampsCostAtBoundary) {
  using namespace scq::cluster;
  const std::uint64_t v = 0x123456;
  for (const std::uint64_t cost :
       {std::uint64_t{0}, kMaxPackCost - 1, kMaxPackCost, kMaxPackCost + 1,
        ~std::uint64_t{0}}) {
    const std::uint64_t tok = pack_token_saturating(TokenKind::kLocal, cost, v);
    EXPECT_EQ(token_kind(tok), TokenKind::kLocal) << cost;
    EXPECT_EQ(token_vertex(tok), v) << cost;
    EXPECT_EQ(token_cost(tok), std::min(cost, kMaxPackCost)) << cost;
  }
}

TEST(ClusterToken, PlainPackNoLongerBleedsIntoKindBits) {
  using namespace scq::cluster;
  // Regression for the latent truncation bug: an oversized cost used to
  // shift into the kind field, silently rewriting kLocal into another
  // kind. The masked pack must preserve the kind no matter the cost.
  const std::uint64_t tok =
      pack_token(TokenKind::kLocal, kMaxPackCost + 1, 7);
  EXPECT_EQ(token_kind(tok), TokenKind::kLocal);
  EXPECT_EQ(token_vertex(tok), 7u);
  EXPECT_EQ(token_cost(tok), 0u);  // masked wrap, contained to the field
  EXPECT_THROW(
      static_cast<void>(
          pack_token_checked(TokenKind::kLocal, kMaxPackCost + 1, 7)),
      simt::SimError);
  EXPECT_THROW(
      static_cast<void>(
          pack_token_checked(TokenKind::kLocal, 0, kMaxPackVertex + 1)),
      simt::SimError);
}

TEST(ClusterToken, SaturatedCostsStillYieldCorrectDistances) {
  // Force saturation: delta 1 on a chain whose true distances exceed
  // the 22-bit cost field. Scheduling coarsens (everything past the
  // boundary shares the top band) but distances stay exact.
  std::vector<graph::WeightedEdge> chain;
  for (Vertex v = 0; v + 1 < 64; ++v) {
    chain.push_back({v, v + 1, 1 << 17});
  }
  const graph::Graph g = graph::Graph::from_weighted_edges(64, chain);
  PtSsspDeltaOptions opt;
  opt.delta = 1;  // bucket == raw distance, overflowing 22 bits mid-chain
  const SsspResult r = run_pt_sssp_delta(small_device(), g, 0, opt);
  ASSERT_FALSE(r.run.aborted) << r.run.abort_reason;
  EXPECT_EQ(r.dist, graph::dijkstra(g, 0));
}

}  // namespace
}  // namespace scq::bfs

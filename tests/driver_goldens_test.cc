// Seed-0 goldens for the single-device graph drivers (run_pt_bfs,
// run_pt_sssp, run_pt_sssp_delta). Each case pins the simulated cycle
// count, the attempt count, an FNV-1a hash of the levels/distances and
// three work counters. Any change to the work cycle, the relax client,
// the queue protocol or the cost model that moves one simulated event
// moves at least one of these numbers.
//
// Re-baselining: a deliberate schedule change prints the new row for
// every failing case ("golden row: {...}"); paste it over the old one
// and say in the change description why the numbers moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "bfs/pt_bfs.h"
#include "bfs/pt_sssp.h"
#include "bfs/pt_sssp_delta.h"
#include "core/counters.h"
#include "graph/generators.h"
#include "graph/sssp_ref.h"

namespace scq::bfs {
namespace {

simt::DeviceConfig small_device() {
  simt::DeviceConfig cfg = simt::spectre_config();
  cfg.name = "small";
  cfg.num_cus = 2;
  cfg.waves_per_cu = 2;
  return cfg;
}

const graph::Graph& rmat_graph() {
  static const graph::Graph g = [] {
    graph::RmatParams p;
    p.n_vertices = 1024;
    p.n_edges = 8192;
    return graph::rmat(p);
  }();
  return g;
}

const graph::Graph& weighted_rmat_graph() {
  static const graph::Graph g = graph::with_random_weights(rmat_graph(), 7);
  return g;
}

// 32 x 32 lattice, 4-neighbour, deterministic weights in [1, 10]. The
// Manhattan distance to the far corner is a consistent A* heuristic
// because every edge weighs at least 1.
constexpr Vertex kGridSide = 32;

const graph::Graph& grid_graph() {
  static const graph::Graph g = [] {
    std::vector<graph::WeightedEdge> edges;
    std::uint64_t seed = 23;
    auto wgt = [&seed] {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<graph::Weight>(1 + (seed >> 33) % 10);
    };
    for (Vertex y = 0; y < kGridSide; ++y) {
      for (Vertex x = 0; x < kGridSide; ++x) {
        const Vertex v = y * kGridSide + x;
        if (x + 1 < kGridSide) edges.push_back({v, v + 1, wgt()});
        if (y + 1 < kGridSide) edges.push_back({v, v + kGridSide, wgt()});
      }
    }
    return graph::Graph::from_weighted_edges(kGridSide * kGridSide, edges,
                                             true);
  }();
  return g;
}

std::uint64_t manhattan_to_corner(Vertex v) {
  const Vertex x = v % kGridSide, y = v / kGridSide;
  return (kGridSide - 1 - x) + (kGridSide - 1 - y);
}

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const T v : values) {
    auto x = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= x & 0xff;
      h *= 1099511628211ull;
      x >>= 8;
    }
  }
  return h;
}

struct Golden {
  const char* name;
  simt::Cycle cycles;
  std::uint32_t attempts;
  std::uint64_t hash;
  std::uint64_t edges_relaxed;
  std::uint64_t tasks_processed;
  std::uint64_t stale_skips;
};

Golden measure(const std::string& name) {
  const simt::DeviceConfig cfg = small_device();
  simt::RunResult run;
  std::uint32_t attempts = 0;
  std::uint64_t hash = 0;
  const auto variant_of = [&](char c) {
    return c == 'B' ? QueueVariant::kBase
                    : c == 'A' ? QueueVariant::kAn : QueueVariant::kRfan;
  };
  if (name.rfind("bfs_", 0) == 0) {
    PtBfsOptions opt;
    opt.variant = variant_of(name[4]);
    opt.atomic_discovery = name.find("_racy") == std::string::npos;
    const BfsResult r = run_pt_bfs(cfg, rmat_graph(), 0, opt);
    run = r.run;
    attempts = r.attempts;
    hash = fnv1a(r.levels);
  } else if (name.rfind("sssp_", 0) == 0) {
    PtSsspOptions opt;
    opt.variant = variant_of(name[5]);
    const bool weighted = name.find("_unweighted") == std::string::npos;
    const SsspResult r =
        run_pt_sssp(cfg, weighted ? weighted_rmat_graph() : rmat_graph(), 0,
                    opt);
    run = r.run;
    attempts = r.attempts;
    hash = fnv1a(r.dist);
  } else {
    PtSsspDeltaOptions opt;
    opt.num_bands = name.find("_b2") != std::string::npos ? 2 : 8;
    if (name.find("_astar") != std::string::npos) {
      opt.heuristic = manhattan_to_corner;
    }
    const SsspResult r = run_pt_sssp_delta(cfg, grid_graph(), 0, opt);
    run = r.run;
    attempts = r.attempts;
    hash = fnv1a(r.dist);
  }
  EXPECT_FALSE(run.aborted) << name << ": " << run.abort_reason;
  return {nullptr,
          run.cycles,
          attempts,
          hash,
          run.stats.user[kEdgesRelaxed],
          run.stats.user[kTasksProcessed],
          run.stats.user[kStaleSkips]};
}

// Recorded at seed 0 from the drivers' dedicated per-driver kernels,
// before they were folded into the task engine.
const Golden kGoldens[] = {
    {"bfs_BASE_atomic", 1312054, 1, 455459113627065549ull, 22935, 2073, 0},
    {"bfs_BASE_racy", 1589519, 1, 17867679843969339724ull, 24536, 2226, 0},
    {"bfs_AN_atomic", 1110931, 1, 455459113627065549ull, 22680, 2151, 0},
    {"bfs_AN_racy", 1371597, 1, 455459113627065549ull, 25141, 2353, 0},
    {"bfs_RFAN_atomic", 1060956, 1, 455459113627065549ull, 23576, 2217, 0},
    {"bfs_RFAN_racy", 1272237, 1, 455459113627065549ull, 25277, 2364, 0},
    {"sssp_BASE_weighted", 2351106, 1, 5416756579194641990ull, 50785, 3634, 0},
    {"sssp_AN_weighted", 1704386, 1, 5416756579194641990ull, 55685, 4136, 0},
    {"sssp_RFAN_weighted", 1572284, 1, 5416756579194641990ull, 59618, 4429, 0},
    {"sssp_RFAN_unweighted", 1064049, 1, 5643725882625235897ull, 23568, 2216, 0},
    {"delta_b2", 970399, 1, 7262128786457200042ull, 11708, 3025, 188},
    {"delta_b2_astar", 995185, 1, 7262128786457200042ull, 9620, 2487, 240},
    {"delta_b8", 1009362, 1, 7262128786457200042ull, 11149, 2867, 216},
    {"delta_b8_astar", 1003083, 1, 7262128786457200042ull, 9584, 2483, 212},
};

// Names the case in test listings (the default would dump raw bytes,
// including the name pointer).
void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.name; }

class DriverGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(DriverGolden, SeedZeroIsBitExact) {
  const Golden& want = GetParam();
  const Golden got = measure(want.name);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.hash, want.hash);
  EXPECT_EQ(got.edges_relaxed, want.edges_relaxed);
  EXPECT_EQ(got.tasks_processed, want.tasks_processed);
  EXPECT_EQ(got.stale_skips, want.stale_skips);
  if (::testing::Test::HasFailure()) {
    std::printf("golden row: {\"%s\", %llu, %u, %lluull, %llu, %llu, "
                "%llu},\n",
                want.name, static_cast<unsigned long long>(got.cycles),
                got.attempts, static_cast<unsigned long long>(got.hash),
                static_cast<unsigned long long>(got.edges_relaxed),
                static_cast<unsigned long long>(got.tasks_processed),
                static_cast<unsigned long long>(got.stale_skips));
  }
}

INSTANTIATE_TEST_SUITE_P(Drivers, DriverGolden, ::testing::ValuesIn(kGoldens),
                         [](const auto& c) {
                           return std::string(c.param.name);
                         });

}  // namespace
}  // namespace scq::bfs

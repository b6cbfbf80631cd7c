#include "bfs/rodinia_bfs.h"

#include <array>
#include <bit>

#include "core/counters.h"

namespace scq::bfs {

namespace {

using simt::Addr;
using simt::Kernel;
using simt::LaneMask;
using simt::Wave;
using simt::bit;
using simt::for_lanes;
using simt::kWaveWidth;

struct RodiniaBuffers {
  simt::Buffer mask;           // frontier membership, one word per vertex
  simt::Buffer updating_mask;  // next frontier
  simt::Buffer visited;        // discovered flags
  simt::Buffer stop;           // [0]: any vertex added this level?
};

// Kernel 1: every frontier vertex enumerates all of its children
// (coarse-grain: a thread owns the whole vertex, so one high-degree
// vertex stalls its wave — the footnote-4 pathology).
Kernel<void> rodinia_kernel1(Wave& w, const DeviceGraph& g,
                             const RodiniaBuffers& b) {
  const std::uint64_t base = w.global_thread_base();
  LaneMask in_range = 0;
  std::array<Addr, kWaveWidth> a{};
  for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
    if (base + lane < g.n_vertices) {
      in_range |= bit(lane);
      a[lane] = b.mask.at(base + lane);
    }
  }
  if (!in_range) co_return;

  std::array<std::uint64_t, kWaveWidth> in_frontier{};
  co_await w.load_lanes(in_range, a, in_frontier);
  LaneMask active = 0;
  for_lanes(in_range, [&](unsigned lane) {
    if (in_frontier[lane]) active |= bit(lane);
  });
  if (!active) co_return;

  // Leave the frontier.
  std::array<std::uint64_t, kWaveWidth> zeros{};
  co_await w.store_lanes(active, a, zeros);

  // Enumeration prolog.
  std::array<std::uint64_t, kWaveWidth> row_begin{}, row_end{}, vcost{};
  for_lanes(active, [&](unsigned lane) { a[lane] = g.row_offsets.at(base + lane); });
  co_await w.load_lanes(active, a, row_begin);
  for_lanes(active, [&](unsigned lane) { a[lane] += 1; });
  co_await w.load_lanes(active, a, row_end);
  for_lanes(active, [&](unsigned lane) { a[lane] = g.cost.at(base + lane); });
  co_await w.load_lanes(active, a, vcost);

  // Full-vertex enumeration in lock-step: the wave iterates to the
  // maximum degree among its lanes.
  std::array<std::uint64_t, kWaveWidth> cursor = row_begin;
  for (;;) {
    LaneMask stepping = 0;
    for_lanes(active, [&](unsigned lane) {
      if (cursor[lane] < row_end[lane]) stepping |= bit(lane);
    });
    if (!stepping) break;

    std::array<Addr, kWaveWidth> ea{};
    std::array<std::uint64_t, kWaveWidth> child{};
    for_lanes(stepping, [&](unsigned lane) {
      ea[lane] = g.cols.at(cursor[lane]);
      cursor[lane] += 1;
    });
    co_await w.load_lanes(stepping, ea, child);
    w.bump(kEdgesRelaxed, static_cast<std::uint64_t>(std::popcount(stepping)));

    std::array<Addr, kWaveWidth> va{};
    std::array<std::uint64_t, kWaveWidth> seen{};
    for_lanes(stepping, [&](unsigned lane) { va[lane] = b.visited.at(child[lane]); });
    co_await w.load_lanes(stepping, va, seen);
    LaneMask fresh = 0;
    for_lanes(stepping, [&](unsigned lane) {
      if (!seen[lane]) fresh |= bit(lane);
    });
    if (!fresh) continue;

    // Non-atomic updates are safe level-synchronously: racing writers
    // store identical values (Rodinia does exactly this).
    std::array<Addr, kWaveWidth> ca{};
    std::array<std::uint64_t, kWaveWidth> newcost{};
    for_lanes(fresh, [&](unsigned lane) {
      ca[lane] = g.cost.at(child[lane]);
      newcost[lane] = vcost[lane] + 1;
    });
    co_await w.store_lanes(fresh, ca, newcost);
    std::array<Addr, kWaveWidth> ua{};
    std::array<std::uint64_t, kWaveWidth> ones{};
    for_lanes(fresh, [&](unsigned lane) {
      ua[lane] = b.updating_mask.at(child[lane]);
      ones[lane] = 1;
    });
    co_await w.store_lanes(fresh, ua, ones);
  }
}

// Kernel 2: promote the updating mask to the frontier, set visited, and
// raise the continue flag.
Kernel<void> rodinia_kernel2(Wave& w, const DeviceGraph& g,
                             const RodiniaBuffers& b) {
  const std::uint64_t base = w.global_thread_base();
  LaneMask in_range = 0;
  std::array<Addr, kWaveWidth> a{};
  for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
    if (base + lane < g.n_vertices) {
      in_range |= bit(lane);
      a[lane] = b.updating_mask.at(base + lane);
    }
  }
  if (!in_range) co_return;

  std::array<std::uint64_t, kWaveWidth> updating{};
  co_await w.load_lanes(in_range, a, updating);
  LaneMask promoted = 0;
  for_lanes(in_range, [&](unsigned lane) {
    if (updating[lane]) promoted |= bit(lane);
  });
  if (!promoted) co_return;

  std::array<std::uint64_t, kWaveWidth> ones{}, zeros{};
  for_lanes(promoted, [&](unsigned lane) { ones[lane] = 1; });
  std::array<Addr, kWaveWidth> ma{}, va{};
  for_lanes(promoted, [&](unsigned lane) {
    ma[lane] = b.mask.at(base + lane);
    va[lane] = b.visited.at(base + lane);
  });
  co_await w.store_lanes(promoted, ma, ones);
  co_await w.store_lanes(promoted, va, ones);
  co_await w.store_lanes(promoted, a, zeros);
  co_await w.store(b.stop.at(0), 1);  // more work exists
}

}  // namespace

RodiniaBfsResult run_rodinia_bfs(const simt::DeviceConfig& config,
                                 const graph::Graph& g, Vertex source) {
  if (source >= g.num_vertices()) {
    throw simt::SimError("run_rodinia_bfs: source out of range");
  }
  simt::Device dev(config);
  const DeviceGraph dg = upload_graph(dev, g);
  RodiniaBuffers b;
  b.mask = dev.alloc(dg.n_vertices);
  b.updating_mask = dev.alloc(dg.n_vertices);
  b.visited = dev.alloc(dg.n_vertices);
  b.stop = dev.alloc(1);
  dev.write_word(b.mask.at(source), 1);
  dev.write_word(b.visited.at(source), 1);
  dev.write_word(dg.cost.at(source), 0);

  const std::uint32_t grid =
      static_cast<std::uint32_t>((dg.n_vertices + kWaveWidth - 1) / kWaveWidth);

  RodiniaBfsResult result;
  simt::RunResult total;
  for (;;) {
    dev.write_word(b.stop.at(0), 0);
    const auto r1 = dev.launch(grid, [&](Wave& w) -> Kernel<void> {
      return rodinia_kernel1(w, dg, b);
    });
    const auto r2 = dev.launch(grid, [&](Wave& w) -> Kernel<void> {
      return rodinia_kernel2(w, dg, b);
    });
    total.cycles += r1.cycles + r2.cycles;
    result.launches += 2;
    result.levels_executed += 1;
    if (dev.read_word(b.stop.at(0)) == 0) break;
    if (result.levels_executed > dg.n_vertices + 1) {
      throw simt::SimError("rodinia bfs failed to converge");
    }
  }
  total.seconds = config.seconds(total.cycles);
  total.stats = dev.stats();
  total.stats.user[kLevelsOrSweeps] = result.levels_executed;

  result.bfs.run = total;
  result.bfs.levels = read_levels(dev, dg);
  return result;
}

}  // namespace scq::bfs

#include "bfs/chai_bfs.h"

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

struct ChaiBuffers {
  simt::Buffer frontier0;  // V words
  simt::Buffer frontier1;  // V words
  simt::Buffer cursor;     // [0],[1]: claim cursors per parity
  simt::Buffer count;      // [0],[1]: frontier sizes per parity
  simt::Buffer release;    // one word per level: barrier release flags
  std::uint32_t n_workgroups = 0;

  [[nodiscard]] const simt::Buffer& frontier(unsigned parity) const {
    return parity == 0 ? frontier0 : frontier1;
  }
};

Kernel<void> chai_wave(Wave& w, const DeviceGraph& g, const ChaiBuffers& b,
                       std::uint32_t cpu_workgroups, simt::Cycle svm_extra) {
  // The first workgroups model collaborating CPU threads: scalar lanes
  // sharing the same frontier counters across the CPU/GPU cluster.
  if (w.workgroup_id() < cpu_workgroups) w.set_lane_count(1);
  const LaneMask lanes = w.lane_mask();

  std::uint32_t level = 0;
  for (;;) {
    const unsigned parity = level & 1u;

    // Claim-and-process loop: each lane grabs one frontier vertex per
    // iteration with its own fetch-add — no proxy aggregation.
    for (;;) {
      std::array<Addr, kWaveWidth> ca{};
      std::array<std::uint64_t, kWaveWidth> ones{}, idx{};
      for_lanes(lanes, [&](unsigned lane) {
        ca[lane] = b.cursor.at(parity);
        ones[lane] = 1;
      });
      co_await w.atomic_lanes(simt::AtomicKind::kAdd, lanes, ca, ones, {}, idx);
      co_await w.idle(svm_extra);  // fine-grain SVM atomic round trip
      w.bump(kQueueAtomics, static_cast<std::uint64_t>(std::popcount(lanes)));
      const std::uint64_t in_count = co_await w.load(b.count.at(parity));
      LaneMask active = 0;
      for_lanes(lanes, [&](unsigned lane) {
        if (idx[lane] < in_count) active |= bit(lane);
      });
      if (!active) break;

      // Fetch claimed vertices and their adjacency ranges.
      std::array<Addr, kWaveWidth> a{};
      std::array<std::uint64_t, kWaveWidth> vertex{}, row_begin{}, row_end{};
      for_lanes(active, [&](unsigned lane) {
        a[lane] = b.frontier(parity).at(idx[lane]);
      });
      co_await w.load_lanes(active, a, vertex);
      for_lanes(active, [&](unsigned lane) {
        a[lane] = g.row_offsets.at(vertex[lane]);
      });
      co_await w.load_lanes(active, a, row_begin);
      for_lanes(active, [&](unsigned lane) { a[lane] += 1; });
      co_await w.load_lanes(active, a, row_end);

      // Coarse-grain enumeration: a lane owns its whole vertex, so one
      // high-fanout vertex stalls the wave (the paper's footnote 4).
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

        // Discovery: per-lane CAS(cost, unvisited -> level+1). Failures
        // are the already-discovered case — but they are still failed
        // CASes burning atomic-unit slots.
        std::array<Addr, kWaveWidth> costa{};
        std::array<std::uint64_t, kWaveWidth> desired{}, expected{};
        for_lanes(stepping, [&](unsigned lane) {
          costa[lane] = g.cost.at(child[lane]);
          desired[lane] = level + 1;
          expected[lane] = kUnvisited;
        });
        w.bump(kQueueAtomics, static_cast<std::uint64_t>(std::popcount(stepping)));
        const LaneMask winners = co_await w.atomic_lanes(
            simt::AtomicKind::kCas, stepping, costa, desired, expected);
        w.bump(kQueueCasFailures,
               static_cast<std::uint64_t>(std::popcount(stepping & ~winners)));
        if (!winners) continue;

        // Append to the output frontier: per-lane fetch-add on the tail.
        std::array<Addr, kWaveWidth> ta{};
        std::array<std::uint64_t, kWaveWidth> one2{}, slot{};
        for_lanes(winners, [&](unsigned lane) {
          ta[lane] = b.count.at(1 - parity);
          one2[lane] = 1;
        });
        co_await w.atomic_lanes(simt::AtomicKind::kAdd, winners, ta, one2, {}, slot);
        co_await w.idle(svm_extra);  // fine-grain SVM atomic round trip
        w.bump(kQueueAtomics, static_cast<std::uint64_t>(std::popcount(winners)));
        std::array<Addr, kWaveWidth> fa{};
        for_lanes(winners, [&](unsigned lane) {
          fa[lane] = b.frontier(1 - parity).at(slot[lane]);
        });
        co_await w.store_lanes(winners, fa, child);
      }
    }

    // Software global barrier (sense via per-level release flag). The
    // last arriver recycles this parity's cursor/count for level+2
    // before releasing anyone.
    const simt::CasResult arrive = co_await w.atomic_add(b.release.at(0), 1);
    if (arrive.old_value == std::uint64_t{b.n_workgroups} * (level + 1) - 1) {
      co_await w.store(b.cursor.at(parity), 0);
      co_await w.store(b.count.at(parity), 0);
      co_await w.store(b.release.at(1 + level), 1);
      w.bump(kLevelsOrSweeps);  // exactly one last-arriver per level
    } else {
      while (co_await w.load(b.release.at(1 + level)) == 0) {
        co_await w.idle(300);
      }
    }

    ++level;
    const std::uint64_t next_count = co_await w.load(b.count.at(level & 1u));
    if (next_count == 0) break;
  }
}

}  // namespace

BfsResult run_chai_bfs(const simt::DeviceConfig& config, const graph::Graph& g,
                       Vertex source, const ChaiBfsOptions& options) {
  if (source >= g.num_vertices()) {
    throw simt::SimError("run_chai_bfs: source out of range");
  }
  simt::Device dev(config);
  const DeviceGraph dg = upload_graph(dev, g);

  ChaiBuffers b;
  const std::uint64_t v_words = std::max<std::uint64_t>(dg.n_vertices, 1);
  b.frontier0 = dev.alloc(v_words);
  b.frontier1 = dev.alloc(v_words);
  b.cursor = dev.alloc(2);
  b.count = dev.alloc(2);
  // release[0] doubles as the barrier arrival counter; release[1+L] is
  // level L's release flag. Levels are bounded by V.
  b.release = dev.alloc(v_words + 2);

  // Every workgroup must be resident: they synchronize at a software
  // barrier, so an undispatched workgroup would deadlock the launch.
  const std::uint32_t resident = config.resident_waves();
  if (options.cpu_workgroups >= resident) {
    throw simt::SimError("run_chai_bfs: cpu_workgroups exceed residency");
  }
  const std::uint32_t gpu_wgs = options.gpu_workgroups != 0
                                    ? options.gpu_workgroups
                                    : resident - options.cpu_workgroups;
  b.n_workgroups = gpu_wgs + options.cpu_workgroups;
  if (b.n_workgroups > resident) {
    throw simt::SimError("run_chai_bfs: workgroups exceed resident capacity");
  }

  dev.write_word(dg.cost.at(source), 0);
  dev.write_word(b.frontier0.at(0), source);
  dev.write_word(b.count.at(0), 1);

  const simt::RunResult run =
      dev.launch(b.n_workgroups, [&](Wave& w) -> Kernel<void> {
        return chai_wave(w, dg, b, options.cpu_workgroups,
                         options.svm_atomic_extra);
      });

  BfsResult result;
  result.run = run;
  result.levels = read_levels(dev, dg);
  return result;
}

}  // namespace scq::bfs

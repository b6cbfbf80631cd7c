#include "bfs/relax_client.h"

#include <array>
#include <bit>
#include <memory>
#include <span>

#include "cluster/token.h"
#include "core/counters.h"
#include "tasks/task_engine.h"

namespace scq::bfs {

namespace {

using LaneWords = std::array<std::uint64_t, kWaveWidth>;

class RelaxClient final : public tasks::TaskWaveClient {
 public:
  RelaxClient(const DeviceGraph& g, const RelaxPlan& plan)
      : g_(g), plan_(plan), delta_(plan.delta) {}

  // Listing 2 lines 6-22: load the row bounds and the vertex's current
  // cost. Delta-stepping drops a token whose packed bucket trails the
  // vertex's current bucket: a fresher token already covers this
  // expansion with smaller distances. (The packed bucket saturates at
  // kMaxPackCost, which can only under-report and thus suppress a skip,
  // never cause a wrong one.)
  Kernel<LaneMask> on_arrival(Wave& w, WaveQueueState& st, LaneMask arrived,
                              std::span<const std::uint64_t> tokens) override {
    std::array<Addr, kWaveWidth> a{};
    LaneWords row_begin{}, row_end{}, cost_now{};
    for_lanes(arrived, [&](unsigned lane) {
      vertex_[lane] =
          delta_ ? cluster::token_vertex(tokens[lane]) : tokens[lane];
      a[lane] = g_.row_offsets.at(vertex_[lane]);
    });
    co_await w.load_lanes(arrived, a, row_begin);
    for_lanes(arrived, [&](unsigned lane) { a[lane] += 1; });
    co_await w.load_lanes(arrived, a, row_end);
    for_lanes(arrived, [&](unsigned lane) {
      a[lane] = g_.cost.at(vertex_[lane]);
    });
    co_await w.load_lanes(arrived, a, cost_now);

    LaneMask stale = 0;
    for_lanes(arrived, [&](unsigned lane) {
      if (delta_ != nullptr) {
        const std::uint64_t now_bucket =
            cost_now[lane] == kUnvisited
                ? ~std::uint64_t{0}
                : delta_->bucket_of(cost_now[lane],
                                    static_cast<Vertex>(vertex_[lane]));
        if (cluster::token_cost(tokens[lane]) > now_bucket) {
          w.bump(kStaleSkips);
          stale |= bit(lane);
          return;
        }
      }
      cursor_[lane] = row_begin[lane];
      row_begin_[lane] = row_begin[lane];
      row_end_[lane] = row_end[lane];
      cost_[lane] = cost_now[lane];
      heavy_sweep_[lane] = false;
      saw_heavy_[lane] = false;
      ticket_[lane] = st.deliver_ticket[lane];
    });
    if (const LaneMask started = arrived & ~stale) {
      emit(w, {.step = simt::QueueStep::kExecStart,
               .lanes = started,
               .tickets = ticket_.data(),
               .payloads = vertex_.data()});
    }
    co_return stale;
  }

  Kernel<LaneMask> work_step(Wave& w, WaveQueueState& st,
                             LaneMask run) override {
    for (unsigned t = 0; t < plan_.work_budget; ++t) {
      LaneMask active = 0;
      for_lanes(run, [&](unsigned lane) {
        if (cursor_[lane] < row_end_[lane]) active |= bit(lane);
      });
      if (!active) break;

      std::array<Addr, kWaveWidth> ea{};
      LaneWords child{}, edge_w{};
      for_lanes(active, [&](unsigned lane) {
        ea[lane] = g_.cols.at(cursor_[lane]++);
        edge_w[lane] = 1;
      });
      co_await w.load_lanes(active, ea, child);
      if (plan_.load_weights) {
        // The same edges: each lane's cursor has already moved past it.
        for_lanes(active, [&](unsigned lane) {
          ea[lane] = g_.weights.at(cursor_[lane] - 1);
        });
        co_await w.load_lanes(active, ea, edge_w);
      }

      // Light/heavy split: each sweep relaxes only its own class, so
      // every edge of an expansion is relaxed exactly once (the
      // kEdgesRelaxed accounting stays one per edge, as in FIFO runs).
      LaneMask relax = active;
      if (delta_ != nullptr) {
        relax = 0;
        for_lanes(active, [&](unsigned lane) {
          const bool heavy = edge_w[lane] > delta_->delta;
          if (heavy && !heavy_sweep_[lane]) {
            saw_heavy_[lane] = true;
          } else if (heavy == heavy_sweep_[lane]) {
            relax |= bit(lane);
          }
        });
        if (!relax) continue;
      }
      w.bump(kEdgesRelaxed, static_cast<std::uint64_t>(std::popcount(relax)));

      std::array<Addr, kWaveWidth> ca{};
      LaneWords newcost{}, oldcost{};
      for_lanes(relax, [&](unsigned lane) {
        ca[lane] = g_.cost.at(child[lane]);
        newcost[lane] = cost_[lane] + edge_w[lane];
      });
      LaneMask improved = 0;
      if (plan_.atomic_min) {
        co_await w.atomic_lanes(simt::AtomicKind::kMin, relax, ca, newcost,
                                {}, oldcost);
        for_lanes(relax, [&](unsigned lane) {
          if (oldcost[lane] > newcost[lane]) improved |= bit(lane);
        });
      } else {
        // Benign-race ablation: plain read-modify-write. Racy stores
        // may leave levels above the true distance (validated with
        // plausible_levels).
        co_await w.load_lanes(relax, ca, oldcost);
        for_lanes(relax, [&](unsigned lane) {
          if (oldcost[lane] > newcost[lane]) improved |= bit(lane);
        });
        if (improved) co_await w.store_lanes(improved, ca, newcost);
      }
      for_lanes(improved, [&](unsigned lane) {
        const std::uint64_t token =
            delta_ == nullptr
                ? child[lane]
                : cluster::pack_token_saturating(
                      cluster::TokenKind::kLocal,
                      delta_->bucket_of(newcost[lane],
                                        static_cast<Vertex>(child[lane])),
                      child[lane]);
        st.push_token(lane, token, ticket_[lane]);
        if (oldcost[lane] != kUnvisited) w.bump(kDupEnqueues);
      });
    }

    // Lanes whose enumeration finished become hungry next cycle; a lane
    // that skipped heavy edges on its light sweep goes round again.
    LaneMask done = 0;
    for_lanes(run, [&](unsigned lane) {
      if (cursor_[lane] < row_end_[lane]) return;
      if (saw_heavy_[lane] && !heavy_sweep_[lane]) {
        heavy_sweep_[lane] = true;
        cursor_[lane] = row_begin_[lane];
        return;
      }
      done |= bit(lane);
    });
    if (done) {
      emit(w, {.step = simt::QueueStep::kExecEnd,
               .lanes = done,
               .tickets = ticket_.data()});
    }
    co_return done;
  }

 private:
  const DeviceGraph& g_;
  const RelaxPlan& plan_;
  const DeltaBuckets* delta_;
  LaneWords vertex_{};
  LaneWords cursor_{};     // next edge index
  LaneWords row_begin_{};  // rewound to for the heavy sweep
  LaneWords row_end_{};    // one past the last edge
  LaneWords cost_{};       // the vertex's cost at arrival
  std::array<bool, kWaveWidth> heavy_sweep_{};
  std::array<bool, kWaveWidth> saw_heavy_{};
  // Trace identity of each lane's vertex-task (kNoTask when untraceable).
  LaneWords ticket_ = filled_lanes(kNoTask);
};

}  // namespace

RelaxRun run_relax(const simt::DeviceConfig& config, const graph::Graph& g,
                   const RelaxPlan& plan, const tasks::RunSinks& sinks,
                   const tasks::QueueFactory& make_queue) {
  tasks::TaskEngineOptions engine;
  engine.work_budget = plan.work_budget;
  engine.poll_interval = plan.poll_interval;
  engine.num_workgroups = plan.num_workgroups;

  RelaxRun out;
  DeviceGraph dg;
  out.retry = tasks::run_with_retry(
      config, plan.capacity, sinks,
      [&](simt::Device& dev, std::uint64_t capacity) {
        dg = upload_graph(dev, g);
        return make_queue(dev, capacity);
      },
      [&](simt::Device& dev, DeviceQueue& queue) {
        dev.write_word(dg.cost.at(plan.source), 0);
        const std::uint64_t seed[] = {plan.seed_token};
        queue.seed(dev, seed);
        const simt::RunResult run = tasks::run_task_waves(
            dev, queue,
            [&](Wave&) { return std::make_unique<RelaxClient>(dg, plan); },
            engine);
        if (!run.aborted) out.cost = dev.read(dg.cost);
        return run;
      },
      plan.detach_recorder);
  return out;
}

}  // namespace scq::bfs

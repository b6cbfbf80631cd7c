// Seed-0 goldens for the three queue-event logs: the checker's
// OpHistory, the causal TaskTrace and the black-box FlightRecorder.
// Each case pins the size and an FNV-1a hash of every log a run
// attaches, so any change in which protocol steps reach a log, in what
// order, or with which fields, moves at least one number:
//
//   - run_pt_bfs on RF/AN, AN and BASE, with auto and with deliberately
//     small rings (parked writes, stalled reservations, waited claims);
//   - run_pt_sssp_delta on 4 bands (band closes, banded seeds);
//   - run_task_graph on RF/AN and on the banded multi-queue;
//   - a two-device run_cluster_bfs (transfer rings, router injections);
//   - the black boxes of the two forced-failure paths;
//   - a single-threaded HostBrokerQueue run (per-op record counts).
//
// Re-baselining: a deliberate format or ordering change prints the new
// row for every failing case ("golden row: {...}"); paste it over the
// old one and say in the change description why the logs moved.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "bfs/cluster_bfs.h"
#include "bfs/pt_bfs.h"
#include "bfs/pt_sssp_delta.h"
#include "core/counters.h"
#include "core/host_queue.h"
#include "graph/generators.h"
#include "sim/flight_recorder.h"
#include "sim/op_history.h"
#include "sim/task_trace.h"
#include "support/forced_failures.h"
#include "tasks/task_engine.h"

namespace scq {
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

// 32 x 32 lattice, 4-neighbour, deterministic weights in [1, 10].
const graph::Graph& grid_graph() {
  static const graph::Graph g = [] {
    constexpr graph::Vertex kSide = 32;
    std::vector<graph::WeightedEdge> edges;
    std::uint64_t seed = 23;
    auto wgt = [&seed] {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<graph::Weight>(1 + (seed >> 33) % 10);
    };
    for (graph::Vertex y = 0; y < kSide; ++y) {
      for (graph::Vertex x = 0; x < kSide; ++x) {
        const graph::Vertex v = y * kSide + x;
        if (x + 1 < kSide) edges.push_back({v, v + 1, wgt()});
        if (y + 1 < kSide) edges.push_back({v, v + kSide, wgt()});
      }
    }
    return graph::Graph::from_weighted_edges(kSide * kSide, edges, true);
  }();
  return g;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= x & 0xff;
      h *= 1099511628211ull;
      x >>= 8;
    }
  }
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t hash_history(const std::vector<simt::OpRecord>& records) {
  Fnv f;
  for (const simt::OpRecord& r : records) {
    f.add(static_cast<std::uint64_t>(r.op));
    f.add(r.actor);
    f.add(r.ticket);
    f.add(r.slot);
    f.add(r.epoch);
    f.add(r.payload);
    f.add(r.cycle);
    f.add(r.band);
  }
  return f.h;
}

std::uint64_t hash_text(const std::string& s) {
  Fnv f;
  f.add(s);
  return f.h;
}

// One pinned log: record count (or document length) and hash.
struct Pin {
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  bool operator==(const Pin&) const = default;
};

struct Golden {
  const char* name;
  Pin history;   // OpHistory records
  Pin tasks;     // TaskTrace::to_json()
  Pin recorder;  // FlightRecorder::to_json(), or the black-box document
};

struct Logs {
  simt::OpHistory history;
  simt::TaskTrace tasks{std::size_t{1} << 22};
  simt::FlightRecorder recorder;

  void attach(tasks::RunSinks& sinks) {
    sinks.history = &history;
    sinks.task_trace = &tasks;
    sinks.recorder = &recorder;
  }
  Golden pins() const {
    const std::string t = tasks.to_json();
    const std::string r = recorder.to_json();
    return {nullptr,
            {history.size(), hash_history(history.snapshot())},
            {t.size(), hash_text(t)},
            {r.size(), hash_text(r)}};
  }
};

QueueVariant variant_named(const std::string& name) {
  if (name.find("_BASE") != std::string::npos) return QueueVariant::kBase;
  if (name.find("_AN") != std::string::npos) return QueueVariant::kAn;
  return QueueVariant::kRfan;
}

// Binary spawn tree over payloads 0..kTreeSize-1; on the banded queue a
// child lands one band below its parent (capped), so every band opens
// and closes.
constexpr std::uint64_t kTreeSize = 600;

Golden measure_task_graph(bool banded) {
  Logs logs;
  tasks::TaskGraphOptions opt;
  logs.attach(opt);
  if (banded) {
    opt.variant = QueueVariant::kMq;
    opt.num_bands = 4;
  }
  const std::vector<tasks::TaskSeed> seeds = {{0, 0}};
  const tasks::TaskGraphResult r = tasks::run_task_graph(
      small_device(), seeds,
      [banded](tasks::TaskContext& ctx) {
        const std::uint64_t band =
            banded ? std::min<std::uint64_t>(ctx.band() + 1, 3) : 0;
        for (std::uint64_t c = 2 * ctx.payload() + 1;
             c <= 2 * ctx.payload() + 2 && c < kTreeSize; ++c) {
          ctx.spawn(c, band);
        }
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(r.stats.executions, kTreeSize);
  return logs.pins();
}

Golden measure_forced(bool cluster) {
  const fuzz::ForcedDump d = cluster ? fuzz::forced_cluster_stall_dump()
                                     : fuzz::forced_publish_deadlock_dump();
  return {nullptr, {}, {}, {d.json.size(), hash_text(d.json)}};
}

// Single-threaded broker run touching every recording path: batch and
// single enqueue/dequeue, the claim/poll monitor API, and the CAS shims.
// The history pin is the record count per QueueOp (size = total; the
// hash folds the five counts and every record but its cycle); the task
// trace is pinned the same way.
Golden measure_host_broker() {
  simt::OpHistory history;
  simt::TaskTrace trace;
  HostBrokerQueue<std::uint64_t> q(8);
  q.attach_history(&history);
  q.attach_task_trace(&trace);
  const std::array<std::uint64_t, 5> batch = {1, 2, 3, 4, 5};
  EXPECT_TRUE(q.enqueue_batch(batch));
  std::array<std::uint64_t, 3> out{};
  EXPECT_TRUE(q.dequeue_batch(out));
  EXPECT_TRUE(q.enqueue(6));
  EXPECT_TRUE(q.try_enqueue(7));
  auto ticket = q.claim_slots(2);
  std::array<std::uint64_t, 2> polled{};
  EXPECT_EQ(q.poll(ticket, polled), 2u);
  EXPECT_TRUE(q.try_dequeue().has_value());
  EXPECT_TRUE(q.dequeue().has_value());
  EXPECT_FALSE(q.try_dequeue().has_value());

  std::array<std::uint64_t, 5> per_op{};
  for (const simt::OpRecord& r : history.snapshot()) {
    ++per_op[static_cast<std::size_t>(r.op)];
  }
  Fnv f;
  for (const std::uint64_t n : per_op) f.add(n);
  // Host events carry no simulated clock: everything but the cycle is
  // deterministic on one thread.
  for (const simt::OpRecord& r : history.snapshot()) {
    f.add(static_cast<std::uint64_t>(r.op));
    f.add(r.actor);
    f.add(r.ticket);
    f.add(r.slot);
    f.add(r.epoch);
    f.add(r.payload);
    f.add(r.band);
  }
  Fnv t;
  for (const simt::TaskEvent& e : trace.snapshot()) {
    t.add(static_cast<std::uint64_t>(e.phase));
    t.add(e.ticket);
    t.add(e.parent);
    t.add(e.payload);
    t.add(e.actor);
    t.add(e.cu);
  }
  return {nullptr, {history.size(), f.h}, {trace.size(), t.h}, {}};
}

// Two-device cluster BFS: transfer-ring reservations and writes, router
// injections and the merged per-device recorders. Only the recorder is
// pinned here.
Golden measure_cluster() {
  simt::FlightRecorder recorder;
  bfs::ClusterBfsOptions opt;
  opt.num_devices = 2;
  opt.flight_recorder = &recorder;
  const bfs::ClusterBfsResult r =
      bfs::run_cluster_bfs(small_device(), rmat_graph(), 0, opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_GT(r.run.router.delivered, 0u);
  const std::string json = recorder.to_json();
  return {nullptr, {}, {}, {json.size(), hash_text(json)}};
}

Golden measure(const std::string& name) {
  if (name == "cluster_bfs_d2") return measure_cluster();
  if (name == "tasks_RFAN") return measure_task_graph(false);
  if (name == "tasks_MQ_b4") return measure_task_graph(true);
  if (name == "forced_publish_deadlock") return measure_forced(false);
  if (name == "forced_cluster_stall") return measure_forced(true);
  if (name == "host_broker") return measure_host_broker();

  Logs logs;
  bool aborted = false;
  if (name.rfind("bfs_", 0) == 0) {
    bfs::PtBfsOptions opt;
    logs.attach(opt);
    opt.variant = variant_named(name);
    const bool small_ring = name.find("_ring64") != std::string::npos;
    if (small_ring) opt.queue_capacity = 64;
    const simt::RunResult run =
        bfs::run_pt_bfs(small_device(), rmat_graph(), 0, opt).run;
    aborted = run.aborted;
    // The small ring must actually exercise the wait transitions.
    if (small_ring) {
      EXPECT_GT(run.stats.user[kPublishStalls], 0u) << name;
    }
  } else {
    bfs::PtSsspDeltaOptions opt;
    logs.attach(opt);
    opt.num_bands = 4;
    aborted = bfs::run_pt_sssp_delta(small_device(), grid_graph(), 0, opt)
                  .run.aborted;
  }
  EXPECT_FALSE(aborted) << name;
  return logs.pins();
}

// Recorded at seed 0 before the three logs became consumers of one
// queue-event stream. The recorder pins of delta_b4 and tasks_MQ_b4
// were re-recorded when the closed-band rescue began retiring the
// monitor waits of the claims it drops (kClaimDrop): their monitor
// tables shrank to the claims still pending at exit, and the rescued
// lanes' next claims now log their own waits.
const Golden kGoldens[] = {
    {"bfs_RFAN",
     {9123, 5932539413513181766ull},
     {1248745, 10641998340875748959ull},
     {450993, 8886654821619852260ull}},
    {"bfs_AN",
     {8604, 5497680826092703882ull},
     {1189793, 1989461498991854318ull},
     {182699, 7620898061214988221ull}},
    {"bfs_BASE",
     {8292, 15801383247726543087ull},
     {1146865, 18441110235487777294ull},
     {260883, 1330274599513559580ull}},
    {"bfs_RFAN_ring64",
     {8987, 14484420261651635581ull},
     {1229813, 16285297909724277545ull},
     {453919, 14617422313851110871ull}},
    {"bfs_BASE_ring64",
     {8252, 17699572494022100146ull},
     {1141482, 7911147879220145887ull},
     {438083, 10876857667643625917ull}},
    {"delta_b4",
     {13172, 12644530237779544832ull},
     {2047174, 11021146570820136874ull},
     {501677, 3595598374463050457ull}},
    {"tasks_RFAN",
     {2648, 17266522705179728095ull},
     {350930, 7257069193889865983ull},
     {263424, 11662581532639916329ull}},
    {"tasks_MQ_b4",
     {3412, 16558438954615317493ull},
     {489544, 16653850428077446359ull},
     {357947, 15552752952264375738ull}},
    {"cluster_bfs_d2",
     {0, 0},
     {0, 0},
     {531823, 7199736880253669537ull}},
    {"forced_publish_deadlock",
     {0, 0},
     {0, 0},
     {1160, 12980594713442681838ull}},
    {"forced_cluster_stall",
     {0, 0},
     {0, 0},
     {1175, 17343590135150602674ull}},
    {"host_broker",
     {28, 13670291952191250267ull},
     {28, 11746786707525786147ull},
     {0, 0}},
};

void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.name; }

class ObservabilityGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ObservabilityGolden, SeedZeroLogsAreByteStable) {
  const Golden& want = GetParam();
  const Golden got = measure(want.name);
  EXPECT_EQ(got.history, want.history) << "OpHistory";
  EXPECT_EQ(got.tasks, want.tasks) << "TaskTrace";
  EXPECT_EQ(got.recorder, want.recorder) << "FlightRecorder / black box";
  if (::testing::Test::HasFailure()) {
    const auto u = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf(
        "golden row: {\"%s\", {%llu, %lluull}, {%llu, %lluull}, "
        "{%llu, %lluull}},\n",
        want.name, u(got.history.size), u(got.history.hash),
        u(got.tasks.size), u(got.tasks.hash), u(got.recorder.size),
        u(got.recorder.hash));
  }
}

INSTANTIATE_TEST_SUITE_P(Logs, ObservabilityGolden,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& c) {
                           return std::string(c.param.name);
                         });

}  // namespace
}  // namespace scq

// Repository benchmark driver: runs one workload through the public
// driver functions, validates every call against the serial references,
// and prints one JSON result line (see README.md in this directory).
//
//   perfbench --workload <bfs-powerlaw|tasks-grid|cluster-bfs>
//             --seed <n> --seconds <s> --trace <0|1> --out <dir>
//             [--corrupt-first-call]
//
// --trace 0 reports the end-to-end metrics, measured with every
// observability sink detached. --trace 1 is the traced run: untraced
// calls first (the overhead baseline), then calls with SimProfiler and
// TaskTrace attached; it reports the per-layer metrics and writes the
// benchmark's spans and the metrics to <out>.
//
// Host time is process CPU time (the benchmark is single-threaded), so
// descheduling does not count. Interference from other work on the
// machine only ever adds time, so a timing is taken as the mean of the
// fastest tenth of its samples (fastest_tenth_mean). The machine's own
// speed also drifts by tens of percent over minutes, so every reported
// host time is scaled to a reference speed: a fixed calibration loop
// that does not use the simulator is timed between iterations, and a
// timing is multiplied by kReferenceCalibrationS / its fastest-tenth time
// (class Calibration).
// --corrupt-first-call flips one output value of the first driver call
// before validation; the self-tests use it to show the validator fails.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bfs/cluster_bfs.h"
#include "bfs/datasets.h"
#include "bfs/pt_bfs.h"
#include "core/counters.h"
#include "graph/bfs_ref.h"
#include "graph/workload_refs.h"
#include "sim/config.h"
#include "sim/critical_path.h"
#include "sim/sim_profiler.h"
#include "sim/task_trace.h"
#include "tasks/workloads/workloads.h"

namespace {

using namespace scq;
using Steady = std::chrono::steady_clock;

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_since(Steady::time_point t0) {
  return std::chrono::duration<double>(Steady::now() - t0).count();
}

// Mean of the fastest tenth of the samples (at least one sample).
double fastest_tenth_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = std::max<std::size_t>(1, v.size() / 10);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += v[i];
  return sum / static_cast<double>(k);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// ---- The benchmark's own spans (traced run only) ----

class SpanLog {
 public:
  static constexpr int kNone = -1;

  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, ns_now(), 0, cpu_now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    spans_[id].end_ns = ns_now();
    spans_[id].cpu_s = cpu_now() - spans_[id].cpu_start;
  }

  // {"spans":[{id,parent,name,start_ns,end_ns,self_ns,cpu_s}...]}; self
  // time is the span's duration minus the time its children cover.
  [[nodiscard]] std::string to_json() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::ostringstream os;
    os << "{\"clock\": \"steady_ns\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? "," : "") << "\n{\"id\": " << i << ", \"parent\": " << s.parent
         << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
         << ", \"end_ns\": " << s.end_ns
         << ", \"self_ns\": " << (s.end_ns - s.start_ns - child_ns[i])
         << ", \"cpu_s\": " << s.cpu_s << "}";
    }
    os << "\n]}\n";
    return os.str();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    double cpu_start;
    double cpu_s;
  };
  static std::int64_t ns_now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Steady::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
};

// Opens a span when a log is given; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log ? log->begin(std::move(name), parent) : SpanLog::kNone) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---- Workloads ----

// Observability sinks for one traced call (both null when untraced).
struct Sinks {
  simt::SimProfiler* profiler = nullptr;
  simt::TaskTrace* task_trace = nullptr;
};

// What one driver call returned, reduced to what the metrics need.
struct CallResult {
  simt::Cycle cycles = 0;
  std::uint32_t attempts = 1;
  bool aborted = false;
  std::string abort_reason;
  simt::DeviceStats stats;  // summed over devices
  tasks::TaskStats task_stats;
  std::uint64_t reached = 0;  // BFS: vertices given a level
  // Cluster only.
  std::uint64_t supersteps = 0;
  cluster::RouterStats router;
  std::uint64_t cut_edges = 0;
  double device_imbalance = 0.0;  // max / mean per-device cycles
};

void add_stats(simt::DeviceStats& into, const simt::DeviceStats& s) {
  into.lines_touched += s.lines_touched;
  into.afa_ops += s.afa_ops;
  into.idle_cycles += s.idle_cycles;
  for (std::size_t i = 0; i < s.user.size(); ++i) into.user[i] += s.user[i];
}

CallResult from_run(const simt::RunResult& run, std::uint32_t attempts) {
  CallResult c;
  c.cycles = run.cycles;
  c.attempts = attempts;
  c.aborted = run.aborted;
  c.abort_reason = run.abort_reason;
  add_stats(c.stats, run.stats);
  return c;
}

[[noreturn]] void mismatch(const std::string& what) {
  throw std::runtime_error(what + " differs from the serial reference");
}

void check_levels(std::vector<std::uint32_t>& levels,
                  const std::vector<std::uint32_t>& ref, bool corrupt) {
  if (corrupt && !levels.empty()) levels[levels.size() / 2] ^= 1;
  if (!bfs::matches_reference(levels, ref)) {
    mismatch("BFS levels (" + bfs::first_mismatch(levels, ref) + ")");
  }
}

std::uint64_t count_reached(const std::vector<std::uint32_t>& levels) {
  return static_cast<std::uint64_t>(std::count_if(
      levels.begin(), levels.end(),
      [](std::uint32_t l) { return l != graph::kUnreached; }));
}

// Inputs built from the seed, serial references, and the ordered driver
// calls one iteration makes. call() keeps its output for validate(),
// which throws on a mismatch (after flipping one value when `corrupt`).
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual void generate() = 0;
  virtual void prepare_references() = 0;
  [[nodiscard]] virtual std::vector<std::string> call_names() const = 0;
  virtual CallResult call(std::size_t index, const Sinks& sinks) = 0;
  virtual void validate(std::size_t index, bool corrupt) = 0;
  [[nodiscard]] virtual graph::Vertex vertices() const = 0;
};

// bfs-powerlaw: RF/AN pt_bfs on Fiji's 224 persistent waves over R-MAT.
class BfsPowerLaw final : public Workload {
 public:
  explicit BfsPowerLaw(std::uint64_t seed) : seed_(seed) {}

  void generate() override { g_ = bfs::synthetic_power_law(n_, m_, seed_); }
  void prepare_references() override { ref_ = graph::bfs_levels(g_, 0); }
  [[nodiscard]] std::vector<std::string> call_names() const override {
    return {"pt_bfs"};
  }
  CallResult call(std::size_t, const Sinks& sinks) override {
    bfs::PtBfsOptions opt;
    opt.variant = QueueVariant::kRfan;
    opt.num_workgroups = 224;
    opt.profiler = sinks.profiler;
    opt.task_trace = sinks.task_trace;
    bfs::BfsResult r = bfs::run_pt_bfs(simt::fiji_config(), g_, 0, opt);
    CallResult c = from_run(r.run, r.attempts);
    c.reached = count_reached(r.levels);
    levels_ = std::move(r.levels);
    return c;
  }
  void validate(std::size_t, bool corrupt) override {
    check_levels(levels_, ref_, corrupt);
  }
  [[nodiscard]] graph::Vertex vertices() const override { return n_; }

 private:
  // 0.51 M events, 1.0 M simulated cycles and ~0.2 s of CPU per call on
  // a 2 GHz Xeon. Calls this short give many samples per run, which the
  // fastest-tenth estimate needs.
  static constexpr graph::Vertex n_ = 2000;
  static constexpr std::uint64_t m_ = 16000;
  std::uint64_t seed_;
  graph::Graph g_;
  std::vector<std::uint32_t> ref_;
  std::vector<std::uint32_t> levels_;
};

// tasks-grid: CC, PageRank-delta and dependency-credit coloring through
// run_task_graph on the banded multi-queue, Spectre, over a road grid.
class TasksGrid final : public Workload {
 public:
  explicit TasksGrid(std::uint64_t seed) : seed_(seed) {}

  void generate() override { g_ = bfs::synthetic_grid(n_, seed_); }
  void prepare_references() override {
    cc_ref_ = graph::connected_components_ref(g_);
    pr_ref_ = graph::pagerank_ref(g_, pr_.damping, 1e-13);
    color_ref_ = graph::greedy_coloring_ref(g_);
  }
  [[nodiscard]] std::vector<std::string> call_names() const override {
    return {"cc", "pagerank", "coloring"};
  }
  CallResult call(std::size_t index, const Sinks& sinks) override {
    tasks::TaskGraphOptions opt;
    opt.variant = QueueVariant::kMq;
    opt.host.num_workgroups = 32;
    opt.profiler = sinks.profiler;
    opt.task_trace = sinks.task_trace;
    const simt::DeviceConfig cfg = simt::spectre_config();
    const tasks::TaskGraphResult* graph_result = nullptr;
    if (index == 0) {
      cc_ = tasks::workloads::run_cc(cfg, g_, opt);
      graph_result = &cc_.graph;
    } else if (index == 1) {
      pr_result_ = tasks::workloads::run_pagerank_delta(cfg, g_, pr_, opt);
      graph_result = &pr_result_.graph;
    } else {
      tasks::workloads::ColoringOptions co;
      co.use_dependencies = true;
      co.adversarial_order = true;
      color_ = tasks::workloads::run_coloring(cfg, g_, co, opt);
      graph_result = &color_.graph;
    }
    CallResult c = from_run(graph_result->run, graph_result->attempts);
    c.task_stats = graph_result->stats;
    return c;
  }
  void validate(std::size_t index, bool corrupt) override {
    if (index == 0) {
      if (corrupt && !cc_.label.empty()) cc_.label.back() ^= 1;
      if (cc_.label != cc_ref_) mismatch("CC labels");
    } else if (index == 1) {
      std::vector<double>& rank = pr_result_.rank;
      if (corrupt && !rank.empty()) rank.back() += 1.0;
      if (rank.size() != pr_ref_.size()) mismatch("PageRank size");
      double l1 = 0.0;
      for (std::size_t u = 0; u < rank.size(); ++u) {
        l1 += std::abs(rank[u] - pr_ref_[u]);
      }
      const double bound =
          static_cast<double>(n_) * pr_.threshold / (1.0 - pr_.damping);
      if (!(l1 <= bound)) mismatch("PageRank (L1 above n*threshold/(1-d))");
    } else {
      if (corrupt && !color_.color.empty()) color_.color.back() ^= 1;
      if (color_.color != color_ref_) mismatch("coloring");
    }
  }
  [[nodiscard]] graph::Vertex vertices() const override { return n_; }

 private:
  // ~0.27 s of CPU per iteration, most of it in coloring.
  static constexpr graph::Vertex n_ = 4096;
  std::uint64_t seed_;
  tasks::workloads::PageRankOptions pr_;
  graph::Graph g_;
  std::vector<graph::Vertex> cc_ref_;
  std::vector<double> pr_ref_;
  std::vector<std::uint32_t> color_ref_;
  tasks::workloads::CcResult cc_;
  tasks::workloads::PageRankResult pr_result_;
  tasks::workloads::ColoringResult color_;
};

// cluster-bfs: RF/AN run_cluster_bfs on 4 Spectre devices, block
// partition, owner-only balance, over R-MAT.
class ClusterBfs final : public Workload {
 public:
  explicit ClusterBfs(std::uint64_t seed) : seed_(seed) {}

  void generate() override { g_ = bfs::synthetic_power_law(n_, m_, seed_); }
  void prepare_references() override { ref_ = graph::bfs_levels(g_, 0); }
  [[nodiscard]] std::vector<std::string> call_names() const override {
    return {"cluster_bfs"};
  }
  CallResult call(std::size_t, const Sinks& sinks) override {
    bfs::ClusterBfsOptions opt;
    opt.num_devices = 4;
    opt.partition = graph::PartitionPolicy::kBlock;
    opt.balance = cluster::BalancePolicy::kOwnerOnly;
    opt.variant = QueueVariant::kRfan;
    opt.task_trace = sinks.task_trace;
    bfs::ClusterBfsResult r =
        bfs::run_cluster_bfs(simt::spectre_config(), g_, 0, opt);
    CallResult c;
    c.cycles = r.run.cycles;
    c.attempts = r.attempts;
    c.aborted = r.run.aborted;
    c.abort_reason = r.run.abort_reason;
    double max_cycles = 0.0;
    double sum_cycles = 0.0;
    for (const simt::RunResult& d : r.run.device_runs) {
      add_stats(c.stats, d.stats);
      max_cycles = std::max(max_cycles, static_cast<double>(d.cycles));
      sum_cycles += static_cast<double>(d.cycles);
    }
    c.device_imbalance = ratio(
        max_cycles * static_cast<double>(r.run.device_runs.size()), sum_cycles);
    c.supersteps = r.run.supersteps;
    c.router = r.run.router;
    c.cut_edges = r.cut_edges;
    c.reached = count_reached(r.levels);
    levels_ = std::move(r.levels);
    return c;
  }
  void validate(std::size_t, bool corrupt) override {
    check_levels(levels_, ref_, corrupt);
  }
  [[nodiscard]] graph::Vertex vertices() const override { return n_; }

 private:
  // 930 supersteps and ~0.3 s of CPU per call; 62 % of the edges cut.
  static constexpr graph::Vertex n_ = 2500;
  static constexpr std::uint64_t m_ = 20000;
  std::uint64_t seed_;
  graph::Graph g_;
  std::vector<std::uint32_t> ref_;
  std::vector<std::uint32_t> levels_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "bfs-powerlaw") return std::make_unique<BfsPowerLaw>(seed);
  if (name == "tasks-grid") return std::make_unique<TasksGrid>(seed);
  if (name == "cluster-bfs") return std::make_unique<ClusterBfs>(seed);
  return nullptr;
}

// ---- Running iterations ----

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  bool corrupt_first_call = false;
};

// One iteration = every driver call of the workload once, in order.
struct Iteration {
  std::vector<CallResult> calls;
  std::vector<double> call_cpu_s;  // driver call only, validation excluded
  double cpu_s = 0.0;
};

std::uint64_t sum_cycles(const Iteration& it) {
  std::uint64_t s = 0;
  for (const CallResult& c : it.calls) s += c.cycles;
  return s;
}

std::uint64_t sum_attempts(const Iteration& it) {
  std::uint64_t s = 0;
  for (const CallResult& c : it.calls) s += c.attempts;
  return s;
}

using SinkFactory = std::function<Sinks(std::size_t)>;

class Runner {
 public:
  Runner(Workload& w, const Options& opt, SpanLog* spans)
      : w_(w),
        opt_(opt),
        spans_(spans),
        names_(w.call_names()),
        first_cycles_(names_.size(), kNoCycles) {}

  // Runs and validates every driver call once. Each call counts as
  // attempted; an abort, a throw, a validation mismatch, or sim_cycles
  // that differ from the invocation's first call of the same driver
  // counts it as failed. `make_sinks` (optional) gives each call sinks.
  Iteration run(const std::string& label, int parent,
                const SinkFactory& make_sinks = {}) {
    Iteration it;
    ScopedSpan span(spans_, label, parent);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      ++attempted_;
      const Sinks sinks = make_sinks ? make_sinks(i) : Sinks{};
      const bool corrupt = opt_.corrupt_first_call && attempted_ == 1;
      CallResult c;
      std::string why;
      const double t0 = cpu_now();
      try {
        ScopedSpan call(spans_, "call." + names_[i], span.id());
        c = w_.call(i, sinks);
      } catch (const std::exception& e) {
        why = std::string("threw: ") + e.what();
      }
      const double dt = cpu_now() - t0;
      if (why.empty() && c.aborted) why = "aborted: " + c.abort_reason;
      if (why.empty()) {
        try {
          ScopedSpan check(spans_, "validate." + names_[i], span.id());
          w_.validate(i, corrupt);
        } catch (const std::exception& e) {
          why = e.what();
        }
      }
      if (why.empty()) {
        if (first_cycles_[i] == kNoCycles) first_cycles_[i] = c.cycles;
        if (first_cycles_[i] != c.cycles) {
          why = "sim_cycles " + std::to_string(c.cycles) +
                " differ from the first call's " +
                std::to_string(first_cycles_[i]);
        }
      }
      if (!why.empty()) {
        ++failed_;
        std::fprintf(stderr, "perfbench: %s %s failed: %s\n", label.c_str(),
                     names_[i].c_str(), why.c_str());
      }
      it.calls.push_back(std::move(c));
      it.call_cpu_s.push_back(dt);
      it.cpu_s += dt;
    }
    return it;
  }

  // Runs iterations until `budget_s` of wall time has passed and at
  // least `min_iters` ran, calling `before_each` (optional, untimed)
  // ahead of each one.
  std::vector<Iteration> timed(const std::string& label, int parent,
                               double budget_s, std::size_t min_iters,
                               const SinkFactory& make_sinks = {},
                               const std::function<void()>& before_each = {}) {
    std::vector<Iteration> out;
    const Steady::time_point t0 = Steady::now();
    while (out.size() < min_iters || wall_since(t0) < budget_s) {
      if (before_each) before_each();
      out.push_back(run(label, parent, make_sinks));
    }
    return out;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::size_t num_calls() const { return names_.size(); }

 private:
  Workload& w_;
  const Options& opt_;
  SpanLog* spans_;
  std::vector<std::string> names_;
  static constexpr simt::Cycle kNoCycles = ~simt::Cycle{0};
  // sim_cycles of each driver's first valid call in this invocation.
  std::vector<simt::Cycle> first_cycles_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double iteration_cpu(const std::vector<Iteration>& its) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(it.cpu_s);
  return fastest_tenth_mean(v);
}

double call_cpu(const std::vector<Iteration>& its, std::size_t i) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(it.call_cpu_s[i]);
  return fastest_tenth_mean(v);
}

// Input generation time. The first generate() builds the inputs and
// sizes a sample to ~20 ms of back-to-back generations; sample() is
// then called between timed iterations, so the samples spread over the
// whole run like the driver-call timings do.
class SetupTimer {
 public:
  explicit SetupTimer(Workload& w) : w_(w) {
    const double t0 = cpu_now();
    w_.generate();
    const double once = std::max(cpu_now() - t0, 1e-6);
    reps_ = std::max(1, static_cast<int>(std::ceil(0.02 / once)));
  }
  void sample() {
    const double t0 = cpu_now();
    for (int r = 0; r < reps_; ++r) w_.generate();
    samples_.push_back((cpu_now() - t0) / reps_);
  }
  [[nodiscard]] double seconds() const { return fastest_tenth_mean(samples_); }

 private:
  Workload& w_;
  int reps_ = 1;
  std::vector<double> samples_;
};

// A fixed loop that stands in for the machine's speed: a binary-heap
// event loop (pop the earliest of 4096 pending events, push one a random
// delay later), the core of a discrete-event simulator, in standard
// library code that no change to the simulator can speed up. sample() is
// timed between iterations, so it sees the same slow and fast phases of
// the machine as the timed calls. A host time t is reported as
// t * scale(): the CPU seconds it would have taken on a machine where one
// sample takes kReferenceCalibrationS, which is about what it took on the
// 2.0 GHz Xeon the bounds were set on. Two other loops were tried as the
// yardstick (dependent loads from a 256 KiB table; read-modify-writes
// scattered over 8 MiB) and tracked the simulator's slow phases worse.
class Calibration {
 public:
  static constexpr double kReferenceCalibrationS = 0.02;

  void sample() {
    const double t0 = cpu_now();
    std::uint64_t x = 88172645463325252ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        events;
    for (int i = 0; i < 4096; ++i) events.push(next() >> 20);
    for (int i = 0; i < 600000; ++i) {
      const std::uint64_t t = events.top();
      events.pop();
      events.push(t + (next() & 1023));
    }
    sink_ = sink_ + events.top();
    samples_.push_back(cpu_now() - t0);
  }
  // Fastest-tenth CPU time of one sample, and the factor host times are
  // multiplied by.
  [[nodiscard]] double seconds() const { return fastest_tenth_mean(samples_); }
  [[nodiscard]] double scale() const {
    return ratio(kReferenceCalibrationS, seconds());
  }

 private:
  std::vector<double> samples_;
  // Read by nothing; volatile so the loop is not optimised away.
  volatile std::uint64_t sink_ = 0;
};

// ---- Metrics ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
         fmt(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::vector<Metric> end_to_end(Workload& w, Runner& runner,
                               const Options& opt) {
  SetupTimer setup(w);
  w.prepare_references();
  Calibration calib;
  runner.run("warmup", SpanLog::kNone);
  const std::vector<Iteration> its =
      runner.timed("timed", SpanLog::kNone, opt.seconds, 3, {}, [&] {
        setup.sample();
        calib.sample();
      });
  std::fprintf(stderr, "perfbench: %zu timed iterations, fastest-tenth CPU "
               "%.4f s, calibration %.4f s, scale %.4f\n",
               its.size(), iteration_cpu(its), calib.seconds(), calib.scale());
  const Iteration& first = its.front();
  return {
      {"setup_s", setup.seconds() * calib.scale(), "s"},
      {"run_cpu_s", iteration_cpu(its) * calib.scale(), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_cycles", static_cast<double>(sum_cycles(first)), "cycles"},
      {"launch_attempts", static_cast<double>(sum_attempts(first)), "count"},
  };
}

// Counts from the sinks of one traced iteration.
struct SinkCounts {
  std::uint64_t events = 0;
  std::array<std::uint64_t, simt::SimProfiler::kOps> ops{};
  double heap_ns = 0.0;
  double dispatch_ns = 0.0;
  double sampled_ns = 0.0;
  simt::AttributionSummary attribution;
  std::uint64_t critical_path_cycles = 0;
  std::uint64_t trace_dropped = 0;
};

SinkCounts analyse(
    const std::vector<std::unique_ptr<simt::SimProfiler>>& profilers,
    const std::vector<std::unique_ptr<simt::TaskTrace>>& traces) {
  SinkCounts s;
  for (const auto& p : profilers) {
    s.events += p->events();
    for (unsigned op = 0; op < simt::SimProfiler::kOps; ++op) {
      s.ops[op] += p->op_count(static_cast<simt::TraceOp>(op));
    }
    s.heap_ns += p->section_ns(simt::SimSection::kHeap);
    s.dispatch_ns += p->section_ns(simt::SimSection::kDispatch);
    s.sampled_ns += p->sampled_total_ns();
  }
  for (const auto& t : traces) {
    const std::vector<simt::TaskRecord> records =
        simt::build_task_records(t->snapshot());
    const simt::AttributionSummary sum = simt::total_attribution(records);
    s.attribution.attr.add(sum.attr);
    s.attribution.tasks += sum.tasks;
    s.critical_path_cycles += simt::critical_path(records).weight;
    s.trace_dropped += t->dropped();
  }
  return s;
}

std::vector<Metric> per_layer(Workload& w, Runner& runner, const Options& opt,
                              SpanLog& spans) {
  const int root = spans.begin("workload." + opt.workload, SpanLog::kNone);
  std::unique_ptr<SetupTimer> setup;
  {
    ScopedSpan s(&spans, "generate", root);
    setup = std::make_unique<SetupTimer>(w);
  }
  {
    ScopedSpan s(&spans, "reference", root);
    w.prepare_references();
  }
  Calibration calib;
  runner.run("warmup", root);
  const std::vector<Iteration> untraced =
      runner.timed("untraced", root, opt.seconds / 2, 2, {}, [&] {
        {
          ScopedSpan s(&spans, "generate", root);
          setup->sample();
        }
        ScopedSpan s(&spans, "calibrate", root);
        calib.sample();
      });

  // Traced iterations get fresh sinks per call; the first iteration's
  // are analysed for the counts, later ones only time traced calls. A
  // traced call whose sim_cycles moved fails in Runner::run, which is
  // the observer-purity check.
  const std::size_t n_calls = runner.num_calls();
  std::vector<std::unique_ptr<simt::SimProfiler>> profilers(n_calls);
  std::vector<std::unique_ptr<simt::TaskTrace>> traces(n_calls);
  const SinkFactory make_sinks = [&](std::size_t i) {
    profilers[i] = std::make_unique<simt::SimProfiler>();
    traces[i] = std::make_unique<simt::TaskTrace>(std::size_t{1} << 24);
    return Sinks{profilers[i].get(), traces[i].get()};
  };
  std::vector<Iteration> traced{runner.run("traced", root, make_sinks)};
  SinkCounts k;
  {
    ScopedSpan s(&spans, "analyse", root);
    k = analyse(profilers, traces);
  }
  for (Iteration& it :
       runner.timed("traced", root, opt.seconds / 4, 1, make_sinks)) {
    traced.push_back(std::move(it));
  }
  spans.end(root);

  const Iteration& first = traced.front();
  simt::DeviceStats stats;
  tasks::TaskStats ts;
  std::uint64_t reached = 0;
  for (const CallResult& c : first.calls) {
    add_stats(stats, c.stats);
    reached += c.reached;
    ts.executions += c.task_stats.executions;
    ts.spawns += c.task_stats.spawns;
    ts.credits += c.task_stats.credits;
    ts.phase_closes += c.task_stats.phase_closes;
  }
  const CallResult& c0 = first.calls.front();
  // Host times are scaled to the reference speed, like the end-to-end
  // ones; sim.trace_overhead is a ratio of two and needs no scaling.
  const double scale = calib.scale();
  const double untraced_cpu = iteration_cpu(untraced) * scale;
  const double tasks = static_cast<double>(k.attribution.tasks);
  const bool is_tasks = opt.workload == "tasks-grid";
  auto d = [](auto v) { return static_cast<double>(v); };
  auto op = [&](simt::TraceOp o) { return d(k.ops[static_cast<unsigned>(o)]); };
  auto phase = [&](simt::PhaseBucket b) { return ratio(d(k.attribution.attr[b]), tasks); };
  auto user = [&](unsigned i) { return d(stats.user[i]); };
  auto bfs_only = [&](double v) { return is_tasks ? 0.0 : v; };
  auto task_cpu = [&](std::size_t i) { return is_tasks ? call_cpu(untraced, i) * scale : 0.0; };
  auto task_cycles = [&](std::size_t i) { return is_tasks ? d(first.calls[i].cycles) : 0.0; };

  using simt::TraceOp;
  return {
      {"host.calibration_s", calib.seconds(), "s"},
      {"graph.generate_s", setup->seconds() * scale, "s"},
      {"retry_attempts", d(sum_attempts(first) - n_calls), "count"},
      {"sim.events", d(k.events), "count"},
      {"sim.cpu_ns_per_event", ratio(untraced_cpu * 1e9, d(k.events)), "ns"},
      {"sim.ops.vload", op(TraceOp::kVecLoad), "count"},
      {"sim.ops.vatomic", op(TraceOp::kVecAtomic), "count"},
      {"sim.ops.atomic", op(TraceOp::kAtomic), "count"},
      {"sim.ops.lds", op(TraceOp::kLds), "count"},
      {"sim.ops.compute", op(TraceOp::kCompute), "count"},
      {"sim.ops.idle", op(TraceOp::kIdle), "count"},
      {"sim.ops.vstore", op(TraceOp::kVecStore), "count"},
      {"sim.share.event_queue", ratio(k.heap_ns, k.sampled_ns), "ratio"},
      {"sim.share.dispatch", ratio(k.dispatch_ns, k.sampled_ns), "ratio"},
      {"sim.trace_overhead", ratio(iteration_cpu(traced), iteration_cpu(untraced)) - 1.0, "ratio"},
      {"sim.idle_cycles", d(stats.idle_cycles), "cycles"},
      {"sim.lines_touched", d(stats.lines_touched), "count"},
      {"sim.afa_ops", d(stats.afa_ops), "count"},
      {"core.queue_atomics", user(kQueueAtomics), "count"},
      {"core.publish_stalls", user(kPublishStalls), "count"},
      {"core.cas_failures", user(kQueueCasFailures), "count"},
      {"core.polls", user(kPolls), "count"},
      {"core.band_closes", user(kBandCloses), "count"},
      {"core.stale_skips", user(kStaleSkips), "count"},
      {"core.phase.reserve_wait", phase(simt::PhaseBucket::kReserveWait), "cycles"},
      {"core.phase.publish_wait", phase(simt::PhaseBucket::kPublishWait), "cycles"},
      {"core.phase.queue_wait", phase(simt::PhaseBucket::kQueueWait), "cycles"},
      {"core.phase.dna_spin", phase(simt::PhaseBucket::kDnaSpin), "cycles"},
      {"core.phase.dispatch", phase(simt::PhaseBucket::kDispatch), "cycles"},
      {"core.phase.execute", phase(simt::PhaseBucket::kExecute), "cycles"},
      {"core.critical_path_cycles", d(k.critical_path_cycles), "cycles"},
      {"core.trace_dropped", d(k.trace_dropped), "count"},
      {"bfs.tasks_processed", bfs_only(user(kTasksProcessed)), "count"},
      {"bfs.edges_relaxed", bfs_only(user(kEdgesRelaxed)), "count"},
      {"bfs.useful_ratio", bfs_only(ratio(d(reached), user(kTasksProcessed))), "ratio"},
      {"tasks.cc.cpu_s", task_cpu(0), "s"},
      {"tasks.pagerank.cpu_s", task_cpu(1), "s"},
      {"tasks.coloring.cpu_s", task_cpu(2), "s"},
      {"tasks.cc.sim_cycles", task_cycles(0), "cycles"},
      {"tasks.pagerank.sim_cycles", task_cycles(1), "cycles"},
      {"tasks.coloring.sim_cycles", task_cycles(2), "cycles"},
      {"tasks.executions", d(ts.executions), "count"},
      {"tasks.spawns", d(ts.spawns), "count"},
      {"tasks.credits", d(ts.credits), "count"},
      {"tasks.phase_closes", d(ts.phase_closes), "count"},
      {"tasks.amplification", ratio(d(ts.executions), d(w.vertices())), "ratio"},
      {"cluster.supersteps", d(c0.supersteps), "count"},
      {"cluster.cpu_us_per_superstep", ratio(untraced_cpu * 1e6, d(c0.supersteps)), "us"},
      {"cluster.xfer_tokens", user(kXferTokens), "count"},
      {"cluster.router.delivered", d(c0.router.delivered), "count"},
      {"cluster.router.stolen", d(c0.router.stolen), "count"},
      {"cluster.router.inject_retries", d(c0.router.inject_retries), "count"},
      {"cluster.cut_edges", d(c0.cut_edges), "count"},
      {"cluster.device_imbalance", c0.device_imbalance, "ratio"},
  };
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

bool write_artifacts(const Options& opt, const SpanLog& spans,
                     const std::vector<Metric>& metrics) {
  if (opt.out_dir.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string stem =
      opt.out_dir + "/" + opt.workload + ".seed" + std::to_string(opt.seed);
  const std::string layers = "{\"workload\": \"" + opt.workload +
                             "\", \"seed\": " + std::to_string(opt.seed) +
                             ", \"metrics\": " + metrics_json(metrics) + "}\n";
  return write_file(stem + ".spans.json", spans.to_json()) &&
         write_file(stem + ".layers.json", layers);
}

bool parse(int argc, char** argv, Options& opt) {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--corrupt-first-call") {
        opt.corrupt_first_call = true;
        continue;
      }
      if (i + 1 >= argc) throw std::invalid_argument(a);
      const std::string v = argv[++i];
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--out") opt.out_dir = v;
      else throw std::invalid_argument(a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument near '%s'\n", e.what());
    return false;
  }
  return opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  SpanLog spans;
  Runner runner(*w, opt, opt.trace ? &spans : nullptr);
  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = per_layer(*w, runner, opt, spans);
    if (!write_artifacts(opt, spans, metrics)) {
      std::fprintf(stderr, "perfbench: cannot write artifacts under '%s'\n",
                   opt.out_dir.c_str());
      return 1;
    }
  } else {
    metrics = end_to_end(*w, runner, opt);
  }
  const bool correct = runner.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(runner.attempted()),
              static_cast<unsigned long long>(runner.failed()),
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

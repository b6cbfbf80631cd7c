#include "sim/wave.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "sim/device.h"

namespace simt {

namespace detail {
void notify_wave_complete(Wave& wave) {
  wave.finished_ = true;
  wave.dev_->on_wave_complete(wave);
}
}  // namespace detail

Wave::~Wave() { release_kernel(); }

const DeviceConfig& Wave::config() const { return dev_->config(); }
DeviceStats& Wave::stats() { return dev_->stats(); }

void Wave::bump(unsigned user_counter, std::uint64_t n) {
  stats().user[user_counter] += n;
}

void Wave::release_kernel() {
  if (top_) {
    top_.destroy();
    top_ = {};
  }
}

void Wave::bind(std::uint32_t workgroup, Kernel<void> kernel, Cycle start) {
  release_kernel();
  workgroup_id_ = workgroup;
  finished_ = false;
  now_ = start;
  top_ = kernel.release();
  top_.promise().wave = this;
  dev_->schedule(start, top_);
}

Cycle Wave::issue() {
  const Cycle start = std::max(now_, cu_->port_free);
  cu_->port_free = start + config().issue_cost;
  return cu_->port_free;
}

void Wave::finish(Cycle completion, std::coroutine_handle<> h) {
  now_ = completion;
  dev_->schedule(completion, h);
}

void Wave::trace(Cycle begin, Cycle end, TraceOp op) {
  if (SimProfiler* p = dev_->profiler()) p->note_op(op);
  if (TraceRecorder* t = dev_->tracer()) {
    t->record({begin, end, cu_->id, slot_, workgroup_id_, op});
  }
}

void Wave::ComputeAwait::await_suspend(std::coroutine_handle<> h) {
  const Cycle trace_begin = w.now_;
  const DeviceConfig& cfg = w.config();
  Cycle end;
  if (occupies_port) {
    const Cycle start = std::max(w.now_, w.cu_->port_free);
    end = start + cycles;
    w.cu_->port_free = end;
    w.stats().compute_cycles += cycles;
  } else {
    end = w.now_ + cycles;
    w.stats().idle_cycles += cycles;
  }
  (void)cfg;
  w.trace(trace_begin, end, occupies_port ? TraceOp::kCompute : TraceOp::kIdle);
  w.finish(end, h);
}

void Wave::LoadAwait::await_suspend(std::coroutine_handle<> h) {
  const Cycle trace_begin = w.now_;
  value = w.dev_->mem().load(addr);
  DeviceStats& s = w.stats();
  s.global_loads += 1;
  s.lines_touched += 1;
  const Cycle depart = w.issue();
  const Cycle trace_end =
      depart + w.config().mem_latency + w.dev_->sched().mem_delay(addr);
  w.trace(trace_begin, trace_end, TraceOp::kLoad);
  w.finish(trace_end, h);
}

void Wave::StoreAwait::await_suspend(std::coroutine_handle<> h) {
  const Cycle trace_begin = w.now_;
  w.dev_->mem().store(addr, value);
  DeviceStats& s = w.stats();
  s.global_stores += 1;
  s.lines_touched += 1;
  // Stores retire through the write buffer; the wave only pays issue cost
  // plus a small handoff.
  const Cycle depart = w.issue();
  const Cycle trace_end =
      depart + w.config().line_extra + w.dev_->sched().mem_delay(addr);
  w.trace(trace_begin, trace_end, TraceOp::kStore);
  w.finish(trace_end, h);
}

namespace {

// Counts distinct 64B lines (coalescing) over a wave's active lanes.
// The common case — lanes walking consecutive addresses — arrives in
// non-decreasing line order, so add() counts line changes on the fly
// and stores nothing. A stream that steps backwards (a wave's monitored
// ring slots, scattered gathers) is recounted by count() with one pass
// through a small open-addressed set. Either way the count equals
// sort + unique over all active lanes exactly.
class LineCounter {
 public:
  void add(Addr addr) {
    const Addr line = addr >> 3;  // 8 words per 64B line
    if (n_ != 0) {
      if (line == last_) return;
      if (line < last_) sorted_ = false;
    }
    last_ = line;
    ++n_;
  }

  // `active` and `addrs` are the stream add() saw, in lane order.
  [[nodiscard]] unsigned count(LaneMask active,
                               std::span<const Addr> addrs) const {
    if (sorted_) return n_;
    // At most 64 lines in 128 buckets keeps the load at or below 1/2.
    // A bucket's key is read only once its `used` bit is set.
    constexpr unsigned kBuckets = 2 * kWaveWidth;
    std::array<Addr, kBuckets> keys;
    std::array<std::uint64_t, kBuckets / 64> used{};
    unsigned distinct = 0;
    for_lanes(active, [&](unsigned lane) {
      const Addr line = addrs[lane] >> 3;
      // Fibonacci hashing: the top 7 bits of line * 2^64/phi.
      unsigned b = static_cast<unsigned>((line * 0x9e3779b97f4a7c15ull) >> 57);
      for (;; b = (b + 1) % kBuckets) {
        const std::uint64_t flag = std::uint64_t{1} << (b % 64);
        if ((used[b / 64] & flag) == 0) {
          used[b / 64] |= flag;
          keys[b] = line;
          ++distinct;
          return;
        }
        if (keys[b] == line) return;
      }
    });
    return distinct;
  }

 private:
  Addr last_ = 0;
  unsigned n_ = 0;
  bool sorted_ = true;
};

// Highest set lane: the span bounds checks hoist to one test against it
// instead of branching per lane. Precondition: active != 0.
unsigned top_lane(LaneMask active) {
  return 63u - static_cast<unsigned>(std::countl_zero(active));
}

}  // namespace

void Wave::VecLoadAwait::await_suspend(std::coroutine_handle<> h) {
  const Cycle trace_begin = w.now_;
  const LaneMask active = mask & w.lanes_;
  GlobalMemory& mem = w.dev_->mem();
  unsigned lines = 0;
  if (active) {
    if (top_lane(active) >= addrs.size() || top_lane(active) >= out.size()) {
      throw SimError("load_lanes: lane index out of span");
    }
    const std::uint64_t* words = mem.data();
    const std::uint64_t bound = mem.size_words();
    LineCounter counter;
    LaneMask m = active;
    while (m) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
      m &= m - 1;
      const Addr a = addrs[lane];
      if (a >= bound) (void)mem.load(a);  // throws the uniform bounds error
      out[lane] = words[a];
      counter.add(a);
    }
    lines = counter.count(active, addrs);
  }
  DeviceStats& s = w.stats();
  s.global_loads += 1;
  s.lines_touched += lines;
  const DeviceConfig& cfg = w.config();
  const Cycle depart = w.issue();
  const Cycle extra = lines > 1 ? (lines - 1) * cfg.line_extra : 0;
  const Cycle trace_end = depart + cfg.mem_latency + extra +
                          w.dev_->sched().mem_delay(active ? addrs[0] : 0);
  w.trace(trace_begin, trace_end, TraceOp::kVecLoad);
  w.finish(trace_end, h);
}

void Wave::VecStoreAwait::await_suspend(std::coroutine_handle<> h) {
  const Cycle trace_begin = w.now_;
  const LaneMask active = mask & w.lanes_;
  GlobalMemory& mem = w.dev_->mem();
  unsigned lines = 0;
  if (active) {
    if (top_lane(active) >= addrs.size() || top_lane(active) >= values.size()) {
      throw SimError("store_lanes: lane index out of span");
    }
    std::uint64_t* words = mem.data();
    const std::uint64_t bound = mem.size_words();
    LineCounter counter;
    LaneMask m = active;
    while (m) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
      m &= m - 1;
      const Addr a = addrs[lane];
      if (a >= bound) mem.store(a, values[lane]);  // throws the bounds error
      words[a] = values[lane];
      counter.add(a);
    }
    lines = counter.count(active, addrs);
  }
  DeviceStats& s = w.stats();
  s.global_stores += 1;
  s.lines_touched += lines;
  const DeviceConfig& cfg = w.config();
  const Cycle depart = w.issue();
  const Cycle extra = lines > 1 ? lines * cfg.line_extra : cfg.line_extra;
  const Cycle trace_end =
      depart + extra + w.dev_->sched().mem_delay(active ? addrs[0] : 0);
  w.trace(trace_begin, trace_end, TraceOp::kVecStore);
  w.finish(trace_end, h);
}

namespace {

// Applies one atomic read-modify-write; returns {old, success}.
CasResult apply_atomic(GlobalMemory& mem, AtomicKind kind, Addr addr,
                       std::uint64_t operand, std::uint64_t expected) {
  const std::uint64_t old = mem.load(addr);
  switch (kind) {
    case AtomicKind::kAdd:
      mem.store(addr, old + operand);
      return {old, true};
    case AtomicKind::kCas:
      if (old == expected) {
        mem.store(addr, operand);
        return {old, true};
      }
      return {old, false};
    case AtomicKind::kXchg:
      mem.store(addr, operand);
      return {old, true};
    case AtomicKind::kOr:
      mem.store(addr, old | operand);
      return {old, true};
    case AtomicKind::kMin:
      mem.store(addr, std::min(old, operand));
      return {old, true};
    case AtomicKind::kBoundedAdd: {
      // `expected` carries the bound: claim min(operand, bound - old).
      const std::uint64_t avail = expected > old ? expected - old : 0;
      const std::uint64_t take = std::min(operand, avail);
      mem.store(addr, old + take);
      return {old, take > 0};
    }
    case AtomicKind::kBoundedSub: {
      // `expected` carries the floor: claim min(operand, old - floor).
      const std::uint64_t avail = old > expected ? old - expected : 0;
      const std::uint64_t take = std::min(operand, avail);
      mem.store(addr, old - take);
      return {old, take > 0};
    }
  }
  throw SimError("unknown atomic kind");
}

void count_atomic(DeviceStats& s, AtomicKind kind, const CasResult& r) {
  switch (kind) {
    case AtomicKind::kCas:
      s.cas_attempts += 1;
      if (!r.success) s.cas_failures += 1;
      break;
    case AtomicKind::kBoundedAdd:
    case AtomicKind::kBoundedSub:
      // One successful attempt plus the folded-in failures.
      s.cas_attempts += 1 + r.retries;
      s.cas_failures += r.retries;
      break;
    case AtomicKind::kXchg:
      s.xchg_ops += 1;
      break;
    default:
      s.afa_ops += 1;
      break;
  }
}

// Caps how many folded CAS retries one bounded-add can accumulate (and
// pay for) — the reissue latency of the wave limits how many attempts fit.
constexpr Cycle kMaxFoldedRetries = 8;

}  // namespace

void Wave::AtomicAwait::await_suspend(std::coroutine_handle<> h) {
  const Cycle trace_begin = w.now_;
  result = apply_atomic(w.dev_->mem(), kind, addr, operand, expected);
  const DeviceConfig& cfg = w.config();
  const Cycle depart = w.issue();
  // Seeded perturbation of the travel time reorders near-simultaneous
  // requests in the per-address service FIFO.
  const Cycle arrival =
      depart + cfg.atomic_latency + w.dev_->sched().atomic_delay(addr);
  Cycle done;
  if ((kind == AtomicKind::kBoundedAdd || kind == AtomicKind::kBoundedSub) &&
      result.success) {
    // A CAS loop's failed attempts occupy the unit once per operation
    // that slipped in ahead of it (each invalidated one expected value).
    const Cycle svc = cfg.atomic_service;
    const Cycle waited = w.dev_->atomic_unit().backlog(addr, arrival);
    const Cycle folded =
        std::min<Cycle>(waited / std::max<Cycle>(svc, 1), kMaxFoldedRetries);
    result.retries = folded;
    // Each folded retry both occupies the unit and costs the wave one
    // extra round trip to reissue the CAS.
    done = w.dev_->atomic_unit().reserve(addr, arrival, svc * (1 + folded)).done +
           folded * 2 * cfg.atomic_latency;
  } else {
    done = w.dev_->atomic_unit().reserve(addr, arrival, cfg.atomic_service).done;
  }
  count_atomic(w.stats(), kind, result);
  const Cycle trace_end = done + cfg.atomic_latency;
  w.trace(trace_begin, trace_end, TraceOp::kAtomic);
  w.finish(trace_end, h);
}

void Wave::VecAtomicAwait::await_suspend(std::coroutine_handle<> h) {
  const Cycle trace_begin = w.now_;
  const LaneMask active = mask & w.lanes_;
  GlobalMemory& mem = w.dev_->mem();
  DeviceStats& s = w.stats();
  const DeviceConfig& cfg = w.config();

  const Cycle depart = w.issue();
  const Cycle arrival = depart + cfg.atomic_latency;
  Cycle last = arrival;
  success = 0;
  if (active &&
      (top_lane(active) >= addrs.size() || top_lane(active) >= operands.size())) {
    throw SimError("atomic_lanes: lane index out of span");
  }
  const bool takes_bound = kind == AtomicKind::kCas ||
                           kind == AtomicKind::kBoundedAdd ||
                           kind == AtomicKind::kBoundedSub;
  const bool bounded =
      kind == AtomicKind::kBoundedAdd || kind == AtomicKind::kBoundedSub;
  AtomicUnit& unit = w.dev_->atomic_unit();
  SchedulePolicy& sched = w.dev_->sched();
  LaneMask pending = active;
  while (pending) {
    const unsigned lane = static_cast<unsigned>(std::countr_zero(pending));
    pending &= pending - 1;
    const std::uint64_t exp =
        (takes_bound && lane < expected.size()) ? expected[lane] : 0;
    CasResult r = apply_atomic(mem, kind, addrs[lane], operands[lane], exp);
    const Cycle lane_arrival = arrival + sched.atomic_delay(addrs[lane]);
    // Every lane's request occupies its address FIFO individually: this
    // is the lock-step amplification of per-lane atomics (§3.3).
    Cycle done;
    if (bounded && r.success) {
      const Cycle svc = cfg.atomic_service;
      const Cycle waited = unit.backlog(addrs[lane], lane_arrival);
      r.retries = std::min<Cycle>(waited / std::max<Cycle>(svc, 1),
                                  kMaxFoldedRetries);
      done = unit.reserve(addrs[lane], lane_arrival, svc * (1 + r.retries))
                 .done +
             r.retries * 2 * cfg.atomic_latency;
    } else {
      done = unit.reserve(addrs[lane], lane_arrival, cfg.atomic_service).done;
    }
    count_atomic(s, kind, r);
    if (r.success) success |= LaneMask{1} << lane;
    if (lane < old_out.size()) old_out[lane] = r.old_value;
    if (lane < retry_out.size()) retry_out[lane] = r.retries;
    if (done > last) last = done;
  }
  const Cycle trace_end = last + cfg.atomic_latency;
  w.trace(trace_begin, trace_end, TraceOp::kVecAtomic);
  w.finish(trace_end, h);
}

void Wave::LdsAwait::await_suspend(std::coroutine_handle<> h) {
  const Cycle trace_begin = w.now_;
  const DeviceConfig& cfg = w.config();
  const Cycle start = std::max(w.now_, w.cu_->port_free);
  w.cu_->port_free = start + cfg.issue_cost;
  w.stats().lds_ops += ops;
  // LDS atomics are serviced by the local data share: latency once, plus
  // one cycle per serialized lane op.
  const Cycle trace_end = start + cfg.lds_latency + ops;
  w.trace(trace_begin, trace_end, TraceOp::kLds);
  w.finish(trace_end, h);
}

void Wave::AbortAwait::await_suspend(std::coroutine_handle<> h) {
  (void)h;  // never resumed: the device stops dispatching events
  w.dev_->request_abort(reason);
}

}  // namespace simt

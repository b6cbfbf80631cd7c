// Device configuration for the SIMT discrete-event simulator.
//
// The simulator models the architectural features the paper's argument
// rests on (§3): lock-step SIMT execution, zero-cost wavefront switching,
// a serializing atomic unit where CAS can fail but AFA cannot, and
// kernel-launch overhead. Latency numbers are order-of-magnitude GPU
// values; EXPERIMENTS.md records the calibration used for each device.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace simt {

using Cycle = std::uint64_t;
using Addr = std::uint64_t;  // index of a 64-bit word in global memory

// Lanes per wavefront. The paper uses AMD wavefronts of 64 threads and a
// workgroup size of exactly one wavefront (§5.4), which is what we model:
// one workgroup == one wave. A LaneMask bit i == lane i active.
inline constexpr unsigned kWaveWidth = 64;
using LaneMask = std::uint64_t;
inline constexpr LaneMask kAllLanes = ~LaneMask{0};

[[nodiscard]] constexpr LaneMask bit(unsigned lane) {
  return LaneMask{1} << lane;
}

// Calls f(lane) for every set lane of `mask`, lowest first.
template <typename F>
void for_lanes(LaneMask mask, F&& f) {
  for (; mask != 0; mask &= mask - 1) {
    f(static_cast<unsigned>(std::countr_zero(mask)));
  }
}

struct DeviceConfig {
  std::string name = "device";

  // Topology.
  std::uint32_t num_cus = 8;       // compute units
  std::uint32_t waves_per_cu = 4;  // resident wavefronts per CU (zero-cost switch pool)

  // Clock, for converting cycles to seconds.
  double clock_ghz = 1.0;

  // Global memory.
  Cycle mem_latency = 400;    // load/store round trip
  Cycle line_extra = 4;       // extra cycles per additional 64B line touched
  // Atomic unit: requests travel to the unit, are serviced in FIFO order
  // per address, and travel back. Contended addresses back up the FIFO —
  // this is the paper's "contended hot spot" (§3.2).
  Cycle atomic_latency = 200;  // one-way travel to the atomic unit
  Cycle atomic_service = 2;    // per-op occupancy of one address's FIFO

  // Local data share (per-workgroup scratch; cheap aggregation medium for
  // the proxy-thread scheme, §4.1).
  Cycle lds_latency = 24;

  // Instruction issue: a wave occupies its CU's issue port while issuing.
  Cycle issue_cost = 4;

  // Host-side kernel launch overhead, charged once per launch(). This is
  // what makes per-level relaunch baselines (Rodinia, Table 6) expensive
  // on small, deep graphs.
  Cycle kernel_launch_overhead = 20'000;

  // Safety cap: launch() throws SimError if a kernel exceeds this many
  // cycles (guards against accidental livelock in kernels under test).
  Cycle max_cycles_per_launch = 50'000'000'000ull;

  // ---- Schedule fuzzing (see TESTING.md) ----
  // Seed for the schedule-perturbation policy. 0 (the default) keeps the
  // legacy deterministic order bit-exact: same-cycle events resume in
  // issue (FIFO) order and no latency jitter is applied. Any non-zero
  // seed permutes same-cycle tie-breaking — and enables the jitters
  // below — as a pure function of the seed, so a failing schedule
  // replays from the seed alone.
  std::uint64_t sched_seed = 0;
  // Bounded uniform extra latency (cycles) per memory / atomic operation
  // when sched_seed != 0. Keep well below mem_latency so perturbed
  // schedules stay causally plausible.
  Cycle sched_mem_jitter = 0;
  Cycle sched_atomic_jitter = 0;

  [[nodiscard]] std::uint32_t resident_waves() const {
    return num_cus * waves_per_cu;
  }
  [[nodiscard]] std::uint32_t max_threads() const {
    return resident_waves() * kWaveWidth;
  }
  [[nodiscard]] double seconds(Cycle cycles) const {
    return static_cast<double>(cycles) / (clock_ghz * 1e9);
  }
};

// Device presets mirroring the paper's two test platforms (§5.4).
//
// Fiji:    AMD Radeon R9 Fury, 56 CUs, discrete memory. 224 workgroups of
//          64 threads = 14,336 persistent threads.
// Spectre: AMD Radeon R7 APU, 8 CUs, memory shared with the CPU (higher
//          latency, lower clock). 32 workgroups = 2,048 threads.
DeviceConfig fiji_config();
DeviceConfig spectre_config();

}  // namespace simt

// Unit tests for the SIMT discrete-event simulator: event ordering,
// timing model, atomic-unit serialization, CAS failure semantics,
// divergence masks, workgroup dispatch, abort, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "sim/device.h"

namespace simt {
namespace {

DeviceConfig tiny_config() {
  DeviceConfig cfg;
  cfg.name = "tiny";
  cfg.num_cus = 2;
  cfg.waves_per_cu = 2;
  cfg.clock_ghz = 1.0;
  cfg.mem_latency = 100;
  cfg.line_extra = 4;
  cfg.atomic_latency = 50;
  cfg.atomic_service = 4;
  cfg.lds_latency = 10;
  cfg.issue_cost = 2;
  cfg.kernel_launch_overhead = 1000;
  return cfg;
}

TEST(Config, ResidentWaveMath) {
  const DeviceConfig fiji = fiji_config();
  EXPECT_EQ(fiji.num_cus, 56u);
  EXPECT_EQ(fiji.resident_waves(), 224u);
  EXPECT_EQ(fiji.max_threads(), 14336u);  // paper §5.4
  const DeviceConfig spectre = spectre_config();
  EXPECT_EQ(spectre.resident_waves(), 32u);
  EXPECT_EQ(spectre.max_threads(), 2048u);
}

TEST(Config, SecondsConversion) {
  DeviceConfig cfg = tiny_config();
  cfg.clock_ghz = 2.0;
  EXPECT_DOUBLE_EQ(cfg.seconds(2'000'000'000ull), 1.0);
}

TEST(Memory, AllocAndHostAccess) {
  GlobalMemory mem;
  const Buffer a = mem.alloc(8);
  const Buffer b = mem.alloc(4);
  EXPECT_EQ(a.base, 0u);
  EXPECT_EQ(b.base, 8u);
  mem.fill(a, 7);
  EXPECT_EQ(mem.load(a.at(3)), 7u);
  EXPECT_EQ(mem.load(b.at(0)), 0u);
  const std::vector<std::uint64_t> vals{1, 2, 3, 4};
  mem.write(b, vals);
  EXPECT_EQ(mem.read(b), vals);
}

TEST(Memory, OutOfBoundsThrows) {
  GlobalMemory mem;
  const Buffer a = mem.alloc(2);
  EXPECT_THROW((void)mem.load(a.base + 2), SimError);
  EXPECT_THROW(mem.store(1000, 1), SimError);
  EXPECT_THROW((void)a.at(2), SimError);
}

TEST(AtomicUnit, SerializesPerAddress) {
  AtomicUnit unit(10);
  // Three requests to the same address arriving together queue up.
  EXPECT_EQ(unit.service(5, 100), 110u);
  EXPECT_EQ(unit.service(5, 100), 120u);
  EXPECT_EQ(unit.service(5, 100), 130u);
  // A different address is independent.
  EXPECT_EQ(unit.service(6, 100), 110u);
  // A late arrival after the FIFO drained starts fresh.
  EXPECT_EQ(unit.service(5, 500), 510u);
}

TEST(AtomicUnit, PruneDropsDrainedEntries) {
  AtomicUnit unit(10);
  unit.service(1, 100);
  unit.prune(200);
  EXPECT_EQ(unit.free_at(1), 0u);
}

// ---- Kernel execution ----

TEST(Device, SingleWaveComputeTiming) {
  Device dev(tiny_config());
  const auto result = dev.launch(1, [](Wave& w) -> Kernel<void> {
    co_await w.compute(500);
  });
  // launch overhead (1000) + 500 compute.
  EXPECT_EQ(result.cycles, 1500u);
  EXPECT_EQ(result.stats.waves_completed, 1u);
  EXPECT_EQ(result.stats.compute_cycles, 500u);
  EXPECT_FALSE(result.aborted);
}

TEST(Device, LoadReturnsValueAndChargesLatency) {
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(4);
  dev.write_word(buf.at(2), 42);
  std::uint64_t seen = 0;
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    seen = co_await w.load(buf.at(2));
  });
  EXPECT_EQ(seen, 42u);
  // overhead 1000 + issue 2 + latency 100.
  EXPECT_EQ(result.cycles, 1102u);
  EXPECT_EQ(result.stats.global_loads, 1u);
}

TEST(Device, StoreVisibleToHost) {
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(1);
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    co_await w.store(buf.at(0), 99);
  });
  EXPECT_EQ(dev.read_word(buf.at(0)), 99u);
}

TEST(Device, AtomicAddReturnsOldValue) {
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(1);
  dev.write_word(buf.at(0), 10);
  CasResult r{};
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    r = co_await w.atomic_add(buf.at(0), 5);
  });
  EXPECT_EQ(r.old_value, 10u);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(dev.read_word(buf.at(0)), 15u);
  EXPECT_EQ(result.stats.afa_ops, 1u);
  // overhead 1000 + issue 2 + travel 50 + service 4 + travel 50.
  EXPECT_EQ(result.cycles, 1106u);
}

TEST(Device, CasSucceedsAndFails) {
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(1);
  dev.write_word(buf.at(0), 7);
  CasResult ok{}, stale{};
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    ok = co_await w.atomic_cas(buf.at(0), 7, 8);
    stale = co_await w.atomic_cas(buf.at(0), 7, 9);  // value is now 8
  });
  EXPECT_TRUE(ok.success);
  EXPECT_EQ(ok.old_value, 7u);
  EXPECT_FALSE(stale.success);
  EXPECT_EQ(stale.old_value, 8u);
  EXPECT_EQ(dev.read_word(buf.at(0)), 8u);
  EXPECT_EQ(result.stats.cas_attempts, 2u);
  EXPECT_EQ(result.stats.cas_failures, 1u);
}

TEST(Device, PerLaneAtomicsOnSharedAddressSerialize) {
  // 64 lanes fetch-add 1 to one address: value += 64, each lane sees a
  // distinct old value, and the FIFO stretches the completion time by
  // 64 * atomic_service.
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(1);
  std::array<Addr, kWaveWidth> addrs{};
  addrs.fill(buf.at(0));
  std::array<std::uint64_t, kWaveWidth> ones{};
  ones.fill(1);
  std::array<std::uint64_t, kWaveWidth> old{};
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    co_await w.atomic_lanes(AtomicKind::kAdd, kAllLanes, addrs, ones, {}, old);
  });
  EXPECT_EQ(dev.read_word(buf.at(0)), 64u);
  std::array<bool, kWaveWidth> seen{};
  for (auto v : old) {
    ASSERT_LT(v, kWaveWidth);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  EXPECT_EQ(result.stats.afa_ops, 64u);
  // overhead + issue 2 + travel 50 + 64*service(4) + travel 50.
  EXPECT_EQ(result.cycles, 1000u + 2 + 50 + 64 * 4 + 50);
}

TEST(Device, PerLaneCasSameExpectedOneWinner) {
  // The BASE-queue pathology: 64 lanes CAS the same counter with the same
  // expected value; exactly one wins per round.
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(1);
  std::array<Addr, kWaveWidth> addrs{};
  addrs.fill(buf.at(0));
  std::array<std::uint64_t, kWaveWidth> desired{};
  desired.fill(1);
  std::array<std::uint64_t, kWaveWidth> expected{};  // all expect 0
  LaneMask winners = 0;
  const auto result = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    winners = co_await w.atomic_lanes(AtomicKind::kCas, kAllLanes, addrs,
                                      desired, expected);
  });
  EXPECT_EQ(std::popcount(winners), 1);
  EXPECT_EQ(result.stats.cas_attempts, 64u);
  EXPECT_EQ(result.stats.cas_failures, 63u);
}

TEST(Device, VectorLoadGathersPerLane) {
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(kWaveWidth);
  for (unsigned i = 0; i < kWaveWidth; ++i) dev.write_word(buf.at(i), i * 3);
  std::array<Addr, kWaveWidth> addrs{};
  for (unsigned i = 0; i < kWaveWidth; ++i) addrs[i] = buf.at(i);
  std::array<std::uint64_t, kWaveWidth> out{};
  const LaneMask mask = 0x5555555555555555ull;  // even lanes only
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    co_await w.load_lanes(mask, addrs, out);
  });
  for (unsigned i = 0; i < kWaveWidth; ++i) {
    EXPECT_EQ(out[i], (i % 2 == 0) ? i * 3 : 0u) << "lane " << i;
  }
}

TEST(Device, CoalescingChargesDistinctLines) {
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(kWaveWidth * 8);
  std::array<Addr, kWaveWidth> coalesced{};
  std::array<Addr, kWaveWidth> scattered{};
  for (unsigned i = 0; i < kWaveWidth; ++i) {
    coalesced[i] = buf.at(i);       // 64 words = 8 lines
    scattered[i] = buf.at(i * 8);   // one line per lane = 64 lines
  }
  std::array<std::uint64_t, kWaveWidth> out{};
  const auto a = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    co_await w.load_lanes(kAllLanes, coalesced, out);
  });
  const auto b = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    co_await w.load_lanes(kAllLanes, scattered, out);
  });
  EXPECT_EQ(a.stats.lines_touched, 8u);
  EXPECT_EQ(b.stats.lines_touched, 64u);
  EXPECT_LT(a.cycles, b.cycles);

  // Streams that are not in address order (the fast path only counts
  // non-decreasing ones): each gather and each scatter must charge the
  // distinct lines of its active lanes, as sort + unique counts them.
  const auto reference = [](LaneMask mask,
                            const std::array<Addr, kWaveWidth>& addrs) {
    std::vector<Addr> lines;
    for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
      if (mask & (LaneMask{1} << lane)) lines.push_back(addrs[lane] >> 3);
    }
    std::sort(lines.begin(), lines.end());
    return static_cast<std::uint64_t>(
        std::unique(lines.begin(), lines.end()) - lines.begin());
  };
  struct Stream {
    const char* name;
    LaneMask mask;
    std::array<Addr, kWaveWidth> addrs;
  };
  Stream permuted{"permuted", kAllLanes, {}};
  Stream duplicate{"duplicate lines", kAllLanes, {}};
  Stream ring{"ring wrap", kAllLanes, {}};
  Stream sparse{"ring wrap, odd lanes", 0xaaaaaaaaaaaaaaaaull, {}};
  for (unsigned i = 0; i < kWaveWidth; ++i) {
    permuted.addrs[i] = buf.at((i * 37) % kWaveWidth);   // 8 lines, shuffled
    duplicate.addrs[i] = buf.at((i % 5) * 24 + i % 3);   // 5 lines, revisited
    ring.addrs[i] = buf.at((300 + i * 5) % 317);         // wraps past slot 316
    sparse.addrs[i] = buf.at((450 + i * 3) % 500);
  }
  for (const Stream& st : {permuted, duplicate, ring, sparse}) {
    const std::uint64_t want = reference(st.mask, st.addrs);
    const auto load = dev.launch(1, [&](Wave& w) -> Kernel<void> {
      co_await w.load_lanes(st.mask, st.addrs, out);
    });
    const auto store = dev.launch(1, [&](Wave& w) -> Kernel<void> {
      co_await w.store_lanes(st.mask, st.addrs, out);
    });
    EXPECT_EQ(load.stats.lines_touched, want) << st.name;
    EXPECT_EQ(store.stats.lines_touched, want) << st.name;
  }
  EXPECT_EQ(reference(kAllLanes, permuted.addrs), 8u);
  EXPECT_EQ(reference(kAllLanes, duplicate.addrs), 5u);
}

TEST(Device, NestedKernelsCompose) {
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(1);
  // Sub-kernel returning a value, awaited twice by the top kernel.
  auto sub = [&](Wave& w, std::uint64_t delta) -> Kernel<std::uint64_t> {
    const CasResult r = co_await w.atomic_add(buf.at(0), delta);
    co_return r.old_value + delta;
  };
  std::uint64_t total = 0;
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    const std::uint64_t a = co_await sub(w, 5);
    const std::uint64_t b = co_await sub(w, 7);
    total = a + b;
  });
  EXPECT_EQ(dev.read_word(buf.at(0)), 12u);
  EXPECT_EQ(total, 5u + 12u);
}

TEST(Device, MoreWorkgroupsThanResidentSlotsAllRun) {
  Device dev(tiny_config());  // 4 resident slots
  const Buffer buf = dev.alloc(1);
  const auto result = dev.launch(32, [&](Wave& w) -> Kernel<void> {
    co_await w.compute(10);
    co_await w.atomic_add(buf.at(0), w.workgroup_id());
  });
  EXPECT_EQ(result.stats.waves_completed, 32u);
  EXPECT_EQ(dev.read_word(buf.at(0)), 31u * 32u / 2u);
}

TEST(Device, AbortStopsTheMachine) {
  Device dev(tiny_config());
  const auto result = dev.launch(4, [&](Wave& w) -> Kernel<void> {
    if (w.workgroup_id() == 2) {
      co_await w.abort_kernel("queue full");
    }
    // Other waves spin forever; the abort must still terminate the run.
    for (;;) co_await w.idle(100);
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, "queue full");
}

TEST(Device, KernelExceptionPropagates) {
  Device dev(tiny_config());
  EXPECT_THROW(
      (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
        co_await w.load(123456789);  // out of bounds
      }),
      SimError);
}

TEST(Device, WavesOverlapAcrossCUs) {
  // Two waves on different CUs run concurrently: makespan ~= one wave.
  DeviceConfig cfg = tiny_config();
  Device dev(cfg);
  const auto one = dev.launch(1, [](Wave& w) -> Kernel<void> {
    co_await w.compute(1000);
  });
  dev.reset_clock_and_stats();
  const auto two = dev.launch(2, [](Wave& w) -> Kernel<void> {
    co_await w.compute(1000);
  });
  EXPECT_EQ(one.cycles, two.cycles);
}

TEST(Device, SameCUWavesShareIssuePort) {
  // tiny config: 2 CUs * 2 waves. 4 waves of pure compute: two per CU
  // serialize on the issue port.
  Device dev(tiny_config());
  const auto result = dev.launch(4, [](Wave& w) -> Kernel<void> {
    co_await w.compute(1000);
  });
  // Each CU runs two 1000-cycle bursts back to back.
  EXPECT_EQ(result.cycles, 1000u + 2000u);
}

TEST(Device, ZeroCostSwitchingHidesMemoryLatency) {
  // Waves alternating compute+load: while one waits on memory the other
  // issues, so 2 waves take much less than 2x one wave's time.
  DeviceConfig cfg = tiny_config();
  cfg.num_cus = 1;
  cfg.waves_per_cu = 2;
  Device dev(cfg);
  const Buffer buf = dev.alloc(2);
  auto body = [&](Wave& w) -> Kernel<void> {
    for (int i = 0; i < 50; ++i) {
      co_await w.compute(10);
      co_await w.load(buf.at(w.slot_id() % 2));
    }
  };
  const auto one = dev.launch(1, body);
  dev.reset_clock_and_stats();
  const auto two = dev.launch(2, body);
  EXPECT_LT(two.cycles, one.cycles + one.cycles / 2);
}

TEST(Device, DeterministicAcrossRuns) {
  auto run = [] {
    Device dev(tiny_config());
    const Buffer buf = dev.alloc(4);
    return dev.launch(8, [&](Wave& w) -> Kernel<void> {
      for (int i = 0; i < 10; ++i) {
        co_await w.atomic_add(buf.at(0), 1);
        co_await w.compute(5 + w.workgroup_id() % 3);
      }
    });
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stats.afa_ops, b.stats.afa_ops);
}

TEST(Device, LaunchOverheadChargedPerLaunch) {
  Device dev(tiny_config());
  const auto one = dev.launch(1, [](Wave& w) -> Kernel<void> {
    co_await w.compute(1);
  });
  const auto again = dev.launch(1, [](Wave& w) -> Kernel<void> {
    co_await w.compute(1);
  });
  EXPECT_EQ(one.cycles, again.cycles);
  EXPECT_EQ(dev.stats().kernel_launches, 2u);
}

TEST(Device, ClockAdvancesAcrossLaunches) {
  Device dev(tiny_config());
  (void)dev.launch(1, [](Wave& w) -> Kernel<void> { co_await w.compute(7); });
  const Cycle after_first = dev.now();
  (void)dev.launch(1, [](Wave& w) -> Kernel<void> { co_await w.compute(7); });
  EXPECT_GT(dev.now(), after_first);
}

TEST(Device, NarrowLaneMaskRestrictsVectorOps) {
  Device dev(tiny_config());
  const Buffer buf = dev.alloc(kWaveWidth);
  std::array<Addr, kWaveWidth> addrs{};
  std::array<std::uint64_t, kWaveWidth> vals{};
  for (unsigned i = 0; i < kWaveWidth; ++i) {
    addrs[i] = buf.at(i);
    vals[i] = i + 1;
  }
  (void)dev.launch(1, [&](Wave& w) -> Kernel<void> {
    w.set_lane_count(4);  // scalar-ish wave (CHAI CPU-side model)
    co_await w.store_lanes(kAllLanes, addrs, vals);
  });
  for (unsigned i = 0; i < kWaveWidth; ++i) {
    EXPECT_EQ(dev.read_word(buf.at(i)), i < 4 ? i + 1 : 0u);
  }
}

TEST(Device, UserCountersAccumulate) {
  Device dev(tiny_config());
  const auto result = dev.launch(3, [](Wave& w) -> Kernel<void> {
    w.bump(0);
    w.bump(1, 10);
    co_await w.compute(1);
  });
  EXPECT_EQ(result.stats.user[0], 3u);
  EXPECT_EQ(result.stats.user[1], 30u);
}

TEST(Device, StepUntilReportsTriState) {
  Device dev(tiny_config());
  dev.launch_begin(1, [](Wave& w) -> Kernel<void> {
    co_await w.compute(5000);
  });
  // Events remain past a near horizon; then a full drain empties the
  // queue with every wave complete.
  EXPECT_EQ(dev.step_until(10), StepStatus::kRanToHorizon);
  EXPECT_EQ(dev.step_until(~Cycle{0}), StepStatus::kDrained);
  const RunResult done = dev.launch_end();
  EXPECT_FALSE(done.aborted);

  // An aborting kernel reports kDead, not a drained queue.
  dev.reset_clock_and_stats();
  dev.launch_begin(1, [](Wave& w) -> Kernel<void> {
    co_await w.abort_kernel("tri-state");
  });
  EXPECT_EQ(dev.step_until(~Cycle{0}), StepStatus::kDead);
  const RunResult dead = dev.launch_end();
  EXPECT_TRUE(dead.aborted);
  EXPECT_EQ(dead.abort_reason, "tri-state");
}

TEST(Device, SeededRelaunchReplaysFreshSchedule) {
  // Regression: reset_clock_and_stats() must also rewind next_seq_ and
  // the seeded SchedulePolicy, or a relaunch on a reset device draws
  // different tie-break keys than a fresh device and the schedules
  // diverge under nonzero sched_seed.
  DeviceConfig cfg = tiny_config();
  cfg.sched_seed = 42;
  cfg.sched_mem_jitter = 8;
  cfg.sched_atomic_jitter = 8;
  const auto run_on = [](Device& dev, const Buffer& buf) {
    return dev.launch(8, [&buf](Wave& w) -> Kernel<void> {
      for (int i = 0; i < 10; ++i) {
        co_await w.atomic_add(buf.at(0), 1);
        co_await w.compute(5 + w.workgroup_id() % 3);
      }
    });
  };

  Device fresh(cfg);
  const Buffer fresh_buf = fresh.alloc(4);
  const RunResult first = run_on(fresh, fresh_buf);

  Device reused(cfg);
  const Buffer reused_buf = reused.alloc(4);
  (void)run_on(reused, reused_buf);
  reused.reset_clock_and_stats();
  const RunResult replay = run_on(reused, reused_buf);

  EXPECT_EQ(first.cycles, replay.cycles);
  EXPECT_EQ(first.stats.afa_ops, replay.stats.afa_ops);
  EXPECT_EQ(first.stats.compute_cycles, replay.stats.compute_cycles);
}

TEST(Stats, DeltaSubtraction) {
  DeviceStats a;
  a.afa_ops = 10;
  a.cas_attempts = 5;
  DeviceStats b;
  b.afa_ops = 4;
  b.cas_attempts = 2;
  const DeviceStats d = a - b;
  EXPECT_EQ(d.afa_ops, 6u);
  EXPECT_EQ(d.cas_attempts, 3u);
  EXPECT_EQ(a.total_global_atomics(), 15u);
}

}  // namespace
}  // namespace simt

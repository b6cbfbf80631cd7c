// Schedule-fuzzing harness tests (ctest label: fuzz).
//
// Three layers: the checker itself must catch injected mutations (both
// synthetic histories and tampered real ones), fuzz cases must be
// bit-exact replayable from their seed, and a sweep across queue
// variants x workloads x capacities x seeds must come back clean.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/queue.h"
#include "support/fuzz_harness.h"
#include "support/queue_checker.h"

namespace scq::fuzz {
namespace {

using simt::kHostActor;
using simt::OpRecord;
using simt::QueueOp;

OpRecord reserve(std::uint64_t ticket, std::uint64_t payload,
                 std::uint64_t capacity) {
  return {QueueOp::kEnqueueReserve, kHostActor, ticket, ticket % capacity,
          ticket / capacity, payload, 0};
}
OpRecord write(std::uint64_t ticket, std::uint64_t payload,
               std::uint64_t capacity) {
  return {QueueOp::kEnqueueWrite, kHostActor, ticket, ticket % capacity,
          ticket / capacity, payload, 0};
}
OpRecord claim(std::uint64_t ticket, std::uint64_t capacity) {
  return {QueueOp::kDequeueClaim, 0, ticket, ticket % capacity,
          ticket / capacity, 0, 0};
}
OpRecord deliver(std::uint64_t ticket, std::uint64_t payload,
                 std::uint64_t capacity) {
  return {QueueOp::kDequeueDeliver, 0, ticket, ticket % capacity,
          ticket / capacity, payload, 0};
}

// A clean two-ticket history: reserve/write/claim/deliver for 0 and 1.
std::vector<OpRecord> clean_history(std::uint64_t capacity) {
  return {reserve(0, 100, capacity), write(0, 100, capacity),
          reserve(1, 101, capacity), write(1, 101, capacity),
          claim(0, capacity),        deliver(0, 100, capacity),
          claim(1, capacity),        deliver(1, 101, capacity)};
}

bool same_record(const OpRecord& a, const OpRecord& b) {
  return a.op == b.op && a.actor == b.actor && a.ticket == b.ticket &&
         a.slot == b.slot && a.epoch == b.epoch && a.payload == b.payload &&
         a.cycle == b.cycle && a.band == b.band;
}

// Banded synthetic records: ticket = (band << 48) | local, mapping into
// band's ring segment (slot = band * capacity + local % capacity).
OpRecord banded(QueueOp op, std::uint64_t band, std::uint64_t local,
                std::uint64_t payload, std::uint64_t capacity) {
  const bool producer_side =
      op == QueueOp::kEnqueueReserve || op == QueueOp::kEnqueueWrite;
  return {op,
          producer_side ? kHostActor : 0,
          (band << kTokenBits) | local,
          band * capacity + local % capacity,
          local / capacity,
          payload,
          0,
          band};
}
OpRecord band_close(std::uint64_t band) {
  return {QueueOp::kBandClose, 0, 0, 0, 0, 0, 0, band};
}

// Clean two-band history: band 0 drains and closes, then band 1 drains.
std::vector<OpRecord> clean_banded_history(std::uint64_t capacity) {
  return {banded(QueueOp::kEnqueueReserve, 0, 0, 100, capacity),
          banded(QueueOp::kEnqueueWrite, 0, 0, 100, capacity),
          banded(QueueOp::kEnqueueReserve, 1, 0, 200, capacity),
          banded(QueueOp::kEnqueueWrite, 1, 0, 200, capacity),
          banded(QueueOp::kDequeueClaim, 0, 0, 0, capacity),
          banded(QueueOp::kDequeueDeliver, 0, 0, 100, capacity),
          band_close(0),
          banded(QueueOp::kDequeueClaim, 1, 0, 0, capacity),
          banded(QueueOp::kDequeueDeliver, 1, 0, 200, capacity)};
}

TEST(QueueChecker, AcceptsCleanHistory) {
  const CheckResult r = check_history(clean_history(4), {.capacity = 4});
  EXPECT_TRUE(r.ok()) << r.report();
  EXPECT_EQ(r.reserved, 2u);
  EXPECT_EQ(r.written, 2u);
  EXPECT_EQ(r.claimed, 2u);
  EXPECT_EQ(r.delivered, 2u);
}

TEST(QueueChecker, CatchesDoubleDelivery) {
  auto h = clean_history(4);
  h.push_back(deliver(0, 100, 4));  // exactly-once broken
  const CheckResult r = check_history(h, {.capacity = 4});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("delivered twice"), std::string::npos)
      << r.report();
  EXPECT_FALSE(r.counterexample.empty());
}

TEST(QueueChecker, CatchesFabricatedDelivery) {
  auto h = clean_history(4);
  h.push_back(claim(2, 4));
  h.push_back(deliver(2, 999, 4));  // ticket 2 was never written
  const CheckResult r = check_history(h, {.capacity = 4});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("never written"), std::string::npos) << r.report();
}

TEST(QueueChecker, CatchesPayloadCorruption) {
  auto h = clean_history(4);
  h[5].payload = 777;  // deliver(0) carries a payload nobody wrote
  const CheckResult r = check_history(h, {.capacity = 4});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("!= written payload"), std::string::npos)
      << r.report();
}

TEST(QueueChecker, CatchesLostToken) {
  auto h = clean_history(4);
  h.pop_back();  // ticket 1 claimed but its delivery vanished
  const CheckResult r =
      check_history(h, {.capacity = 4, .expect_drained = true});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("never delivered"), std::string::npos)
      << r.report();
  // The same history is legal when the run aborted mid-flight.
  EXPECT_TRUE(check_history(h, {.capacity = 4, .expect_drained = false}).ok());
}

TEST(QueueChecker, CatchesSlotEpochMismatch) {
  auto h = clean_history(4);
  h[1].slot = 3;  // write landed in the wrong ring slot
  const CheckResult r = check_history(h, {.capacity = 4});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("slot/epoch mapping broken"), std::string::npos)
      << r.report();
}

TEST(QueueChecker, CatchesWriteWithoutReservation) {
  std::vector<OpRecord> h = {write(0, 5, 4)};
  const CheckResult r =
      check_history(h, {.capacity = 4, .expect_drained = false});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("without a prior ticket reservation"),
            std::string::npos)
      << r.report();
}

TEST(QueueChecker, CatchesTicketGap) {
  // Tickets 0 and 2 reserved, 1 missing: fetch-add counters cannot skip.
  std::vector<OpRecord> h = {reserve(0, 1, 4), write(0, 1, 4),
                             reserve(2, 3, 4), write(2, 3, 4)};
  const CheckResult r =
      check_history(h, {.capacity = 4, .expect_drained = false});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("not contiguous"), std::string::npos)
      << r.report();
}

TEST(BandedChecker, AcceptsCleanBandedHistory) {
  const CheckResult r =
      check_history(clean_banded_history(4), {.capacity = 4, .num_bands = 2});
  EXPECT_TRUE(r.ok()) << r.report();
  EXPECT_EQ(r.delivered, 2u);
}

TEST(BandedChecker, CatchesBandFieldMismatch) {
  auto h = clean_banded_history(4);
  h[5].band = 1;  // deliver record's band disagrees with its ticket
  const CheckResult r = check_history(h, {.capacity = 4, .num_bands = 2});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("disagrees with the ticket's encoded band"),
            std::string::npos)
      << r.report();
}

TEST(BandedChecker, CatchesDeliveryAfterBandClose) {
  auto h = clean_banded_history(4);
  // A second band-0 token materializes entirely after the band closed.
  h.push_back(banded(QueueOp::kEnqueueReserve, 0, 1, 150, 4));
  h.push_back(banded(QueueOp::kEnqueueWrite, 0, 1, 150, 4));
  h.push_back(banded(QueueOp::kDequeueDeliver, 0, 1, 150, 4));
  const CheckResult r = check_history(h, {.capacity = 4, .num_bands = 2});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("after its closure"), std::string::npos)
      << r.report();
}

TEST(BandedChecker, ClaimAfterBandCloseIsLegal) {
  // Claim-ahead: a pre-closure counter snapshot may still target the
  // band; such a claim never delivers and must NOT trip the checker.
  auto h = clean_banded_history(4);
  h.push_back(banded(QueueOp::kDequeueClaim, 0, 1, 0, 4));
  const CheckResult r = check_history(h, {.capacity = 4, .num_bands = 2});
  EXPECT_TRUE(r.ok()) << r.report();
}

TEST(BandedChecker, CatchesBandSlotMappingBroken) {
  auto h = clean_banded_history(4);
  h[3].slot = 0;  // band-1 write landed in band 0's ring segment
  const CheckResult r = check_history(h, {.capacity = 4, .num_bands = 2});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("slot/epoch mapping broken"), std::string::npos)
      << r.report();
}

TEST(BandedChecker, CatchesBandCloseInSingleBandHistory) {
  auto h = clean_history(4);
  h.push_back(band_close(0));
  const CheckResult r = check_history(h, {.capacity = 4});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("single-band history"), std::string::npos)
      << r.report();
}

TEST(BandedChecker, CatchesPerBandTicketGap) {
  // Band 1 reserves locals 0 and 2: fetch-add counters cannot skip.
  std::vector<OpRecord> h = {banded(QueueOp::kEnqueueReserve, 1, 0, 5, 4),
                             banded(QueueOp::kEnqueueWrite, 1, 0, 5, 4),
                             banded(QueueOp::kEnqueueReserve, 1, 2, 7, 4),
                             banded(QueueOp::kEnqueueWrite, 1, 2, 7, 4)};
  const CheckResult r = check_history(
      h, {.capacity = 4, .expect_drained = false, .num_bands = 2});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.report().find("not contiguous in band 1"), std::string::npos)
      << r.report();
}

// Tamper with the history of a REAL multi-queue run: band closures must
// have been recorded, and the checker must notice a dropped delivery, a
// corrupted band field, and a resurrected post-closure operation.
TEST(BandedChecker, CatchesTamperedRealMqHistory) {
  SimFuzzCase c;
  c.seed = 17;
  c.variant = QueueVariant::kMq;
  c.workload = Workload::kRandom;
  c.capacity = 32;  // 4 bands x 8 slots (harness clamp leaves 4 bands)
  std::vector<OpRecord> records;
  const FuzzOutcome out = run_sim_fuzz_case(c, &records);
  ASSERT_TRUE(out.ok()) << out.describe(c);

  const CheckOptions opts{.capacity = 8, .num_bands = 4};
  std::size_t closes = 0, deliver_idx = records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].op == QueueOp::kBandClose) ++closes;
    if (records[i].op == QueueOp::kDequeueDeliver &&
        deliver_idx == records.size()) {
      deliver_idx = i;
    }
  }
  EXPECT_GT(closes, 0u) << "mq run recorded no band closures";
  ASSERT_LT(deliver_idx, records.size());
  ASSERT_TRUE(check_history(records, opts).ok());

  auto dropped = records;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(deliver_idx));
  EXPECT_FALSE(check_history(dropped, opts).ok());

  auto mislabeled = records;
  mislabeled[deliver_idx].band ^= 1;
  EXPECT_FALSE(check_history(mislabeled, opts).ok());

  // Replay the first delivery at the very end of the run: by then its
  // band has closed, so this trips closure monotonicity (and
  // exactly-once) rather than sneaking in as a legal late event.
  auto resurrected = records;
  resurrected.push_back(records[deliver_idx]);
  EXPECT_FALSE(check_history(resurrected, opts).ok());
}

// Tamper with the history of a REAL run: the checker must notice both a
// dropped and a duplicated delivery. This closes the loop between the
// instrumentation and the checker — if record points drifted, the clean
// run would fail instead.
TEST(QueueChecker, CatchesTamperedRealHistory) {
  SimFuzzCase c;
  c.seed = 7;
  std::vector<OpRecord> records;
  const FuzzOutcome out = run_sim_fuzz_case(c, &records);
  ASSERT_TRUE(out.ok()) << out.describe(c);
  ASSERT_GT(records.size(), 0u);

  std::size_t deliver_idx = records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].op == QueueOp::kDequeueDeliver) {
      deliver_idx = i;
      break;
    }
  }
  ASSERT_LT(deliver_idx, records.size());

  auto dropped = records;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(deliver_idx));
  EXPECT_FALSE(check_history(dropped, {.capacity = c.capacity}).ok());

  auto duplicated = records;
  duplicated.push_back(records[deliver_idx]);
  EXPECT_FALSE(check_history(duplicated, {.capacity = c.capacity}).ok());
}

TEST(ScheduleFuzz, SameSeedIsBitExact) {
  SimFuzzCase c;
  c.seed = 1234;
  c.variant = QueueVariant::kRfan;
  c.workload = Workload::kRandom;
  // An unrelated run between the two: the pooled coroutine frames the
  // second run reuses then hold other stale bytes than the first run's,
  // so a frame array read before it is written (e.g. a lane-0 address
  // salting the memory jitter) would diverge the schedule.
  SimFuzzCase other = c;
  other.seed = 99;
  other.workload = Workload::kTree;
  other.capacity = 56;
  std::vector<OpRecord> first_records, second_records;
  const FuzzOutcome a = run_sim_fuzz_case(c, &first_records);
  const FuzzOutcome between = run_sim_fuzz_case(other);
  EXPECT_TRUE(between.ok()) << between.describe(other);
  const FuzzOutcome b = run_sim_fuzz_case(c, &second_records);
  EXPECT_TRUE(a.ok()) << a.describe(c);
  EXPECT_EQ(a.run.cycles, b.run.cycles);
  ASSERT_EQ(first_records.size(), second_records.size());
  for (std::size_t i = 0; i < first_records.size(); ++i) {
    ASSERT_TRUE(same_record(first_records[i], second_records[i]))
        << "record " << i << " diverged between identical seeds:\n"
        << format_record(i, first_records[i]) << "\n"
        << format_record(i, second_records[i]);
  }
}

TEST(ScheduleFuzz, DifferentSeedsPerturbTheSchedule) {
  SimFuzzCase a;
  a.workload = Workload::kRandom;
  SimFuzzCase b = a;
  a.seed = 11;
  b.seed = 12;
  const FuzzOutcome ra = run_sim_fuzz_case(a);
  const FuzzOutcome rb = run_sim_fuzz_case(b);
  EXPECT_TRUE(ra.ok()) << ra.describe(a);
  EXPECT_TRUE(rb.ok()) << rb.describe(b);
  // Seeded jitter is on, so two different seeds virtually never produce
  // identical total cycle counts; both must still pass the checker.
  EXPECT_NE(ra.run.cycles, rb.run.cycles);
}

TEST(ScheduleFuzz, SeedZeroRunsLegacySchedule) {
  // seed 0 disables both tie-break permutation and jitter: the run must
  // behave exactly like the uninstrumented simulator (and still verify).
  SimFuzzCase c;
  c.seed = 0;
  const FuzzOutcome out = run_sim_fuzz_case(c);
  EXPECT_TRUE(out.ok()) << out.describe(c);
}

TEST(ScheduleFuzz, SimSweepAllVariants) {
  const QueueVariant variants[] = {QueueVariant::kBase, QueueVariant::kAn,
                                   QueueVariant::kRfan, QueueVariant::kMq};
  const Workload workloads[] = {Workload::kTree, Workload::kChain,
                                Workload::kRandom};
  // Capacities deliberately below the wave width force parked-enqueue
  // backpressure and multi-epoch slot reuse.
  const std::uint64_t capacities[] = {8, 24, 56};
  int ran = 0;
  for (QueueVariant v : variants) {
    for (Workload w : workloads) {
      for (std::uint64_t cap : capacities) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
          SimFuzzCase c;
          c.seed = seed * 0x9e3779b9u + static_cast<std::uint64_t>(v);
          c.variant = v;
          c.workload = w;
          c.capacity = cap;
          const FuzzOutcome out = run_sim_fuzz_case(c);
          EXPECT_TRUE(out.ok()) << out.describe(c);
          ++ran;
        }
      }
    }
  }
  EXPECT_EQ(ran, 216);
}

// Priority-sweep: >= 200 seeded multi-queue cases across every workload
// and capacity, each replayed through the banded checker (per-band
// exactly-once + slot mapping + band-monotone closure).
TEST(ScheduleFuzz, MqPrioritySweep) {
  const Workload workloads[] = {Workload::kTree, Workload::kChain,
                                Workload::kRandom};
  const std::uint64_t capacities[] = {8, 24, 56};
  int ran = 0;
  for (Workload w : workloads) {
    for (std::uint64_t cap : capacities) {
      for (std::uint64_t seed = 1; seed <= 23; ++seed) {
        SimFuzzCase c;
        c.seed = seed * 0x5ca1ab1eu + cap;
        c.variant = QueueVariant::kMq;
        c.workload = w;
        c.capacity = cap;
        const FuzzOutcome out = run_sim_fuzz_case(c);
        EXPECT_TRUE(out.ok()) << out.describe(c);
        ++ran;
      }
    }
  }
  EXPECT_EQ(ran, 207);
}

// Dynamic-task sweep: the framework path (spawn-from-delivery, seeded
// respawns, defer/credit shadow tasks) across every variant, so the
// exactly-once checker covers tickets that did not exist at seed time.
TEST(ScheduleFuzz, TaskFrameworkSweep) {
  const QueueVariant variants[] = {QueueVariant::kBase, QueueVariant::kAn,
                                   QueueVariant::kRfan, QueueVariant::kMq};
  const std::uint64_t capacities[] = {8, 24, 56};
  int ran = 0;
  for (QueueVariant v : variants) {
    for (std::uint64_t cap : capacities) {
      for (std::uint64_t seed = 1; seed <= 9; ++seed) {
        SimFuzzCase c;
        c.seed = seed * 0xf1ee7a5cu + cap + static_cast<std::uint64_t>(v);
        c.variant = v;
        c.workload = Workload::kTasks;
        c.capacity = cap;
        const FuzzOutcome out = run_sim_fuzz_case(c);
        EXPECT_TRUE(out.ok()) << out.describe(c);
        ++ran;
      }
    }
  }
  EXPECT_EQ(ran, 108);
}

TEST(ScheduleFuzz, HostSweep) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    HostFuzzCase c;
    c.seed = seed;
    c.capacity = 8 + (seed % 3) * 8;
    c.producers = 1 + static_cast<unsigned>(seed % 4);
    c.consumers = 1 + static_cast<unsigned>((seed / 4) % 4);
    c.items = 512;
    const FuzzOutcome out = run_host_fuzz_case(c);
    EXPECT_TRUE(out.ok()) << "host seed " << seed << "\n"
                          << out.check.report();
  }
}

}  // namespace
}  // namespace scq::fuzz

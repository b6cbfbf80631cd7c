// The queue-event stream's consumers: how OpHistory, TaskTrace and
// FlightRecorder each expand one QueueEvent (lane form and range form,
// waited lanes, host seeds, transfer-ring units, untraceable tickets).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/flight_recorder.h"
#include "sim/op_history.h"
#include "sim/queue_event.h"
#include "sim/task_trace.h"

namespace simt {
namespace {

// Two bands of 16-slot rings: band = ticket / 100.
class TwoBands final : public TicketSpace {
 public:
  explicit TwoBands(bool traceable = true) : traceable_(traceable) {}
  [[nodiscard]] SlotRef slot_of(std::uint64_t t) const override {
    return {t % 16, t / 16};
  }
  [[nodiscard]] std::uint64_t band_of(std::uint64_t t) const override {
    return t / 100;
  }
  [[nodiscard]] bool traceable_tickets() const override { return traceable_; }

 private:
  bool traceable_;
};

struct Lanes {
  std::array<std::uint64_t, kWaveWidth> ticket{};
  std::array<std::uint64_t, kWaveWidth> payload{};
};

// Lanes 1, 3 and 5 deliver tickets 101, 103, 105; lane 3 had waited.
QueueEvent deliver_event(const Lanes& l, const TicketSpace& space) {
  QueueEvent e{.step = QueueStep::kDeliver,
               .lanes = bit(1) | bit(3) | bit(5),
               .waited = bit(3) | bit(7),
               .tickets = l.ticket.data(),
               .payloads = l.payload.data(),
               .space = &space};
  e.actor = 9;
  e.cu = 2;
  e.cycle = 500;
  return e;
}

Lanes some_lanes() {
  Lanes l;
  for (unsigned lane = 0; lane < kWaveWidth; ++lane) {
    l.ticket[lane] = 100 + lane;
    l.payload[lane] = 1000 + lane;
  }
  return l;
}

TEST(QueueEventTest, HistoryExpandsLaneFormInLaneOrder) {
  const TwoBands space;
  const Lanes l = some_lanes();
  OpHistory h;
  h.consume(deliver_event(l, space));
  const std::vector<OpRecord> r = h.snapshot();
  ASSERT_EQ(r.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::uint64_t t = 101 + 2 * i;
    EXPECT_EQ(r[i].op, QueueOp::kDequeueDeliver);
    EXPECT_EQ(r[i].actor, 9u);
    EXPECT_EQ(r[i].ticket, t);
    EXPECT_EQ(r[i].slot, t % 16);
    EXPECT_EQ(r[i].epoch, t / 16);
    EXPECT_EQ(r[i].payload, 1000 + t - 100);
    EXPECT_EQ(r[i].band, 1u);
    EXPECT_EQ(r[i].cycle, 500u);
  }
}

TEST(QueueEventTest, HostSeedBecomesReserveWritePairsEverywhere) {
  const TwoBands space;
  const std::uint64_t tokens[] = {7, 8, 9};
  const QueueEvent seed{.step = QueueStep::kSeed,
                        .ticket = 4,
                        .count = 3,
                        .payloads = tokens,
                        .space = &space};
  OpHistory h;
  TaskTrace trace;
  FlightRecorder rec;
  h.consume(seed);
  trace.consume(seed);
  rec.consume(seed);
  const std::vector<OpRecord> r = h.snapshot();
  ASSERT_EQ(r.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r[2 * i].op, QueueOp::kEnqueueReserve);
    EXPECT_EQ(r[2 * i + 1].op, QueueOp::kEnqueueWrite);
    EXPECT_EQ(r[2 * i].ticket, 4 + i);
    EXPECT_EQ(r[2 * i + 1].payload, tokens[i]);
    EXPECT_EQ(r[2 * i].actor, kHostActor);
  }
  const std::vector<TaskEvent> t = trace.snapshot();
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t[0].phase, TaskPhase::kReserve);
  EXPECT_EQ(t[1].phase, TaskPhase::kPayloadWrite);
  EXPECT_EQ(t[0].parent, kNoTask);
  // The recorder logs each seed as a full write.
  const std::vector<FlightEvent> f = rec.snapshot();
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[2].kind, FlightKind::kWrite);
  EXPECT_EQ(f[2].ticket, 6u);
  EXPECT_EQ(f[2].payload, 9u);
}

TEST(QueueEventTest, RecorderBatchesHealthyLanesAndRetiresWaitedOnes) {
  const TwoBands space;
  const Lanes l = some_lanes();
  FlightRecorder rec;
  // Lane 3's claim missed a poll: the wait transition enters the
  // monitor table.
  QueueEvent wait{.step = QueueStep::kClaimWait,
                  .lanes = bit(3),
                  .tickets = l.ticket.data(),
                  .space = &space};
  wait.actor = 9;
  wait.cycle = 400;
  rec.consume(wait);
  ASSERT_EQ(rec.monitors().size(), 1u);

  rec.consume(deliver_event(l, space));
  EXPECT_TRUE(rec.monitors().empty());
  const std::vector<FlightEvent> f = rec.snapshot();
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0].kind, FlightKind::kClaim);
  // Healthy lanes 1 and 5: one coalesced event (payload = width)...
  EXPECT_EQ(f[1].kind, FlightKind::kDeliver);
  EXPECT_EQ(f[1].ticket, 101u);
  EXPECT_EQ(f[1].payload, 2u);
  EXPECT_EQ(f[1].band, 1u);
  // ...then the waited lane in full, carrying its token.
  EXPECT_EQ(f[2].ticket, 103u);
  EXPECT_EQ(f[2].payload, 1003u);
}

TEST(QueueEventTest, TransferRingUnitsReachOnlyTheRecorder) {
  const std::uint64_t tokens[] = {5, 6};
  QueueEvent xfer{.step = QueueStep::kReserve,
                  .unit = 3,
                  .ticket = 10,
                  .count = 2,
                  .payloads = tokens};
  OpHistory h;
  TaskTrace trace;
  FlightRecorder rec;
  h.consume(xfer);
  trace.consume(xfer);
  rec.consume(xfer);
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(trace.size(), 0u);
  const std::vector<FlightEvent> f = rec.snapshot();
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[1].kind, FlightKind::kXferReserve);
  EXPECT_EQ(f[1].unit, 3u);
  EXPECT_EQ(f[1].ticket, 11u);
  // Full records: the transfer reservations sit in the parked table.
  EXPECT_EQ(rec.parked().size(), 2u);
}

TEST(QueueEventTest, TaskTraceSkipsUntraceableQueuesAndKeepsParents) {
  const std::uint64_t tickets[] = {3, 4};
  const std::uint64_t parents[] = {kNoTask, 3};
  const TwoBands traceable;
  const TwoBands lifo(/*traceable=*/false);
  QueueEvent reserve{.step = QueueStep::kReserve,
                     .count = 2,
                     .tickets = tickets,
                     .parents = parents,
                     .space = &lifo};
  TaskTrace trace;
  trace.consume(reserve);
  EXPECT_EQ(trace.size(), 0u);
  reserve.space = &traceable;
  trace.consume(reserve);
  const std::vector<TaskEvent> t = trace.snapshot();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[1].ticket, 4u);
  EXPECT_EQ(t[1].parent, 3u);
  EXPECT_EQ(t[1].payload, 0u);  // no payload array
}

}  // namespace
}  // namespace simt

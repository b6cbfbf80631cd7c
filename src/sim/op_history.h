// Operation-history recording for queue correctness checking.
//
// OpHistory is the checker's consumer of the queue-event stream
// (sim/queue_event.h): an append-only, unbounded log of every queue
// operation that the schedule-fuzzing checker
// (tests/support/queue_checker.h) replays against the sequential FIFO
// spec. consume() appends one record per entry, in entry order (a host
// seed or router injection: a reserve record then a write record per
// ticket); transfer-ring events leave no record.
//
// Events are emitted at the instant the simulated memory effect is
// applied (for device queues: within the same event processing slice),
// so the append order is consistent with the happens-before order of
// the protocol. The checker relies on append indices, never on cycle
// comparisons — completion cycles can legally invert relative to
// effect order.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/config.h"
#include "sim/queue_event.h"

namespace simt {

enum class QueueOp : std::uint8_t {
  kEnqueueReserve,  // enqueue ticket claimed (Rear AFA / host fetch_add)
  kEnqueueWrite,    // payload written into the ring slot
  kDequeueClaim,    // dequeue ticket claimed (Front AFA / host fetch_add)
  kDequeueDeliver,  // payload observed and returned to a consumer
  kBandClose,       // priority band observed closed (no future publishes)
};

[[nodiscard]] constexpr const char* to_string(QueueOp op) {
  switch (op) {
    case QueueOp::kEnqueueReserve: return "enq-reserve";
    case QueueOp::kEnqueueWrite: return "enq-write";
    case QueueOp::kDequeueClaim: return "deq-claim";
    case QueueOp::kDequeueDeliver: return "deq-deliver";
    case QueueOp::kBandClose: return "band-close";
  }
  return "?";
}

struct OpRecord {
  QueueOp op = QueueOp::kEnqueueReserve;
  std::uint32_t actor = 0;     // wave slot id, or kHostActor
  std::uint64_t ticket = 0;
  std::uint64_t slot = 0;      // ring slot index the ticket maps to
  std::uint64_t epoch = 0;     // ring lap the ticket maps to
  std::uint64_t payload = 0;   // token (0 for claims)
  Cycle cycle = 0;             // device clock at record time (diagnostic only)
  // Priority band of the ticket (0 for single-band queues). For
  // kBandClose this is the band whose closure the record announces.
  std::uint64_t band = 0;
};

class OpHistory {
 public:
  void record(const OpRecord& r) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(r);
  }

  // Appends the event's records under one lock, so a batch stays
  // contiguous in the total order.
  void consume(const QueueEvent& e) {
    if (e.unit != 0) return;
    QueueOp op = QueueOp::kEnqueueReserve;
    bool with_write = false;  // host steps: reserve and write coincide
    switch (e.step) {
      case QueueStep::kSeed:
      case QueueStep::kInject:
        with_write = true;
        break;
      case QueueStep::kReserve:
        break;
      case QueueStep::kWrite:
        op = QueueOp::kEnqueueWrite;
        break;
      case QueueStep::kClaim:
        op = QueueOp::kDequeueClaim;
        break;
      case QueueStep::kDeliver:
        op = QueueOp::kDequeueDeliver;
        break;
      case QueueStep::kBandClose:
        record({QueueOp::kBandClose, e.actor, e.ticket, 0, 0, 0, e.cycle,
                e.band});
        return;
      default:
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    e.for_each([&](std::uint64_t i) {
      const TicketSpace::SlotRef ref = e.slot_at(i);
      OpRecord r{op,           e.actor,         e.ticket_at(i), ref.index,
                 ref.epoch,    e.payload_at(i), e.cycle,        e.band_at(i)};
      records_.push_back(r);
      if (with_write) {
        r.op = QueueOp::kEnqueueWrite;
        records_.push_back(r);
      }
    });
  }

  [[nodiscard]] std::vector<OpRecord> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
  }

 private:
  // The simulator is single-threaded, but HostBrokerQueue records from
  // real producer/consumer threads; the mutex makes the append order a
  // total order consistent with each thread's program order.
  mutable std::mutex mu_;
  std::vector<OpRecord> records_;
};

}  // namespace simt

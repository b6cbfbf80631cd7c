// One queue-event stream: every protocol step — reserve, payload write,
// claim, deliver, plus completions, band closes and the drivers'
// execution bracket — is announced once, as one QueueEvent, to the sink
// set of the device (or host queue) it happened on. The three event
// logs consume it, each expanding the event its own way: OpHistory
// (checker) and TaskTrace (critical path) one record per entry,
// FlightRecorder one coalesced ring event per healthy batch plus full
// records for the entries marked `waited`.
//
// An event covers one wave's batch, not one lane. Its entries are
// either the set lanes of `lanes` (lane form: arrays indexed by lane,
// `tickets` required) or, when lanes == 0, the indices 0..count-1
// (range form: a null `tickets` means ticket, ticket + 1, ...). A
// missing `payloads` reads as 0, a missing `parents` as kNoTask.
// `space` decodes tickets (ring slot, lap, band, traceability); null
// means one band and no ring geometry.
#pragma once

#include <cstdint>

#include "sim/config.h"

namespace simt {

// Actor id used for host-side steps (seeding, router, broker threads).
inline constexpr std::uint32_t kHostActor = 0xffffffffu;

// Sentinel for "no task": root tasks have no parent, and schedulers
// without stable tickets (the locked stack) deliver it as the ticket.
inline constexpr std::uint64_t kNoTask = ~std::uint64_t{0};

enum class QueueStep : std::uint8_t {
  kSeed,          // host wrote tokens into the ring (reserve + write)
  kInject,        // host router wrote a token into a running device
  kReserve,       // enqueue tickets reserved (tokens parked until written)
  kReserveStall,  // reservations whose first flush failed: a publish wait
  kWrite,         // payloads written into ring slots
  kClaim,         // dequeue tickets claimed (lanes monitor their slots)
  kClaimWait,     // claims whose first arrival poll missed: a monitor wait
  kClaimDrop,     // claims abandoned undelivered (closed-band rescue); the
                  // `waited` ones had monitor waits open
  kDeliver,       // payloads observed by their consumers
  kComplete,      // `count` tasks reported complete in `band`
  kBandClose,     // `band` observed closed; `ticket` is its final Rear
  kExecStart,     // drivers began executing the entries' tasks
  kExecEnd,       // ... and finished them
};

// How a queue lays out its tickets (ring slot and lap, priority band)
// and whether they are run-unique task-trace ids.
class TicketSpace {
 public:
  struct SlotRef {
    std::uint64_t index = 0;  // absolute ring slot
    std::uint64_t epoch = 0;  // ring lap (wrap count)
  };
  virtual ~TicketSpace() = default;
  [[nodiscard]] virtual SlotRef slot_of(std::uint64_t ticket) const = 0;
  [[nodiscard]] virtual std::uint64_t band_of(std::uint64_t /*ticket*/) const {
    return 0;
  }
  [[nodiscard]] virtual bool traceable_tickets() const { return true; }
};

// A single ring of `capacity` slots: ticket t lives in slot
// t % capacity during lap t / capacity.
class RingTickets final : public TicketSpace {
 public:
  explicit RingTickets(std::uint64_t capacity) : capacity_(capacity) {}
  [[nodiscard]] SlotRef slot_of(std::uint64_t ticket) const override {
    return {ticket % capacity_, ticket / capacity_};
  }

 private:
  std::uint64_t capacity_;
};

struct QueueEvent {
  QueueStep step = QueueStep::kReserve;
  std::uint32_t unit = 0;     // 0 = main queue; 1 + d = transfer ring to d
  std::uint64_t ticket = 0;   // see the header comment; kBandClose: Rear
  std::uint64_t count = 0;    // range form: entries; kComplete: tasks
  std::uint64_t band = 0;     // kComplete / kBandClose only
  LaneMask lanes = 0;         // lane form: the entries
  LaneMask waited = 0;        // lane form: entries that waited (a stalled
                              // write, a claim that missed a poll)
  const std::uint64_t* tickets = nullptr;
  const std::uint64_t* payloads = nullptr;
  const std::uint64_t* parents = nullptr;
  const TicketSpace* space = nullptr;
  // Stamped by the emitter.
  std::uint32_t actor = kHostActor;  // wave slot id, or kHostActor
  std::uint32_t cu = 0;              // compute unit (0 for host actors)
  Cycle cycle = 0;                   // device clock (host: see emitter)

  // Calls f(i) for every entry index i, in entry order.
  template <typename F>
  void for_each(F&& f) const {
    if (lanes != 0) {
      for_lanes(lanes, [&](unsigned lane) { f(std::uint64_t{lane}); });
    } else {
      for (std::uint64_t i = 0; i < count; ++i) f(i);
    }
  }
  [[nodiscard]] std::uint64_t ticket_at(std::uint64_t i) const {
    return tickets != nullptr ? tickets[i] : ticket + i;
  }
  [[nodiscard]] std::uint64_t payload_at(std::uint64_t i) const {
    return payloads != nullptr ? payloads[i] : 0;
  }
  [[nodiscard]] std::uint64_t parent_at(std::uint64_t i) const {
    return parents != nullptr ? parents[i] : kNoTask;
  }
  [[nodiscard]] std::uint64_t band_at(std::uint64_t i) const {
    return space != nullptr ? space->band_of(ticket_at(i)) : 0;
  }
  [[nodiscard]] TicketSpace::SlotRef slot_at(std::uint64_t i) const {
    const std::uint64_t t = ticket_at(i);
    return space != nullptr ? space->slot_of(t) : TicketSpace::SlotRef{t, 0};
  }
  [[nodiscard]] bool traceable() const {
    return space == nullptr || space->traceable_tickets();
  }
};

class OpHistory;
class TaskTrace;
class FlightRecorder;

// The consumers attached to one device or host queue (not owned; null
// members are detached).
struct QueueSinks {
  OpHistory* history = nullptr;
  TaskTrace* trace = nullptr;
  FlightRecorder* recorder = nullptr;

  [[nodiscard]] bool any() const {
    return history != nullptr || trace != nullptr || recorder != nullptr;
  }
  // Hands `e` to every attached consumer.
  void emit(const QueueEvent& e) const;
};

}  // namespace simt

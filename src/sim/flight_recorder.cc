#include "sim/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace simt {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void FlightRecorder::append_locked(FlightEvent e) const {
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    // Overwrite the oldest surviving entry and advance the ring start:
    // the recorder keeps the most recent `capacity_` events.
    ring_[first_] = e;
    first_ = (first_ + 1) % capacity_;
    ++dropped_;
  }
  ++recorded_;
}

void FlightRecorder::flush_step_locked() const {
  if (pending_.width == 0) return;
  FlightEvent e;
  e.kind = pending_.kind;
  e.actor = pending_.actor;
  e.unit = pending_.unit;
  e.ticket = pending_.ticket;
  e.payload = pending_.width;  // batch width, not a token value
  e.band = pending_.band;
  e.cycle = pending_.cycle;
  e.seq = recorded_;
  e.source = 0;
  append_locked(e);
  pending_.width = 0;
}

void FlightRecorder::begin_steps(FlightKind kind, std::uint32_t actor,
                                 std::uint32_t unit, std::uint64_t ticket,
                                 std::uint64_t band, Cycle cycle,
                                 std::uint32_t width) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  pending_ = {kind, actor, unit, ticket, band, cycle, width};
}

void FlightRecorder::apply_wait_locked(const FlightEvent& e) {
  const WaitKey key{e.source, e.unit, e.ticket};
  switch (e.kind) {
    case FlightKind::kClaim:
      monitors_[key] = {e.actor, e.band, e.cycle};
      break;
    case FlightKind::kDeliver:
      monitors_.erase(key);
      break;
    case FlightKind::kReserve:
    case FlightKind::kXferReserve:
      parked_[key] = {e.actor, e.band, e.payload, e.cycle};
      break;
    case FlightKind::kWrite:
    case FlightKind::kXferWrite:
      parked_.erase(key);
      break;
    default:
      break;
  }
}

void FlightRecorder::record(const FlightEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  FlightEvent stamped = e;
  stamped.seq = recorded_;
  stamped.source = 0;
  append_locked(stamped);
  apply_wait_locked(stamped);
}

void FlightRecorder::consume(const QueueEvent& e) {
  // Full records (the path that maintains the wait tables) of the
  // entries in `lanes`, or of every entry when lanes == 0.
  const auto full = [&](FlightKind kind, LaneMask lanes, bool payload) {
    const auto one = [&](std::uint64_t i) {
      record({kind, e.actor, e.unit, e.ticket_at(i),
              payload ? e.payload_at(i) : 0, e.band_at(i), e.cycle});
    };
    if (lanes != 0) {
      for_lanes(lanes, [&](unsigned lane) { one(lane); });
    } else {
      e.for_each(one);
    }
  };
  // One coalesced ring event for the entries that never waited.
  const auto batch = [&](FlightKind kind) {
    const LaneMask healthy = e.lanes & ~e.waited;
    const std::uint64_t width =
        e.lanes != 0 ? static_cast<std::uint64_t>(std::popcount(healthy))
                     : e.count;
    if (width == 0) return;
    const std::uint64_t first =
        e.lanes != 0 ? static_cast<std::uint64_t>(std::countr_zero(healthy))
                     : 0;
    log_steps(kind, e.actor, e.unit, e.ticket_at(first), e.band_at(first),
              e.cycle, static_cast<std::uint32_t>(width));
  };
  const LaneMask waited = e.lanes & e.waited;

  switch (e.step) {
    case QueueStep::kSeed:
      full(FlightKind::kWrite, 0, true);
      break;
    case QueueStep::kInject:
      full(FlightKind::kRouter, 0, true);
      break;
    case QueueStep::kReserve:
      // A fresh reservation is not yet a wait: ring log only.
      if (e.unit != 0) {
        full(FlightKind::kXferReserve, 0, true);
      } else {
        batch(FlightKind::kReserve);
      }
      break;
    case QueueStep::kReserveStall:
      full(FlightKind::kReserve, 0, true);
      break;
    case QueueStep::kWrite:
      // Waited writes retire their parked entries before the fresh batch
      // is logged; deliveries log the batch first (the ring order
      // black-box dumps have always had).
      if (e.unit != 0) {
        full(FlightKind::kXferWrite, 0, true);
      } else {
        if (waited != 0) full(FlightKind::kWrite, waited, true);
        batch(FlightKind::kWrite);
      }
      break;
    case QueueStep::kClaim:
      batch(FlightKind::kClaim);
      break;
    case QueueStep::kClaimWait:
      full(FlightKind::kClaim, 0, false);
      break;
    case QueueStep::kDeliver:
      batch(FlightKind::kDeliver);
      if (waited != 0) full(FlightKind::kDeliver, waited, true);
      break;
    case QueueStep::kClaimDrop:
      // No ring event: the claim simply stops being a wait.
      if (waited != 0) {
        std::lock_guard<std::mutex> lock(mu_);
        for_lanes(waited, [&](unsigned lane) {
          monitors_.erase({0, e.unit, e.ticket_at(lane)});
        });
      }
      break;
    case QueueStep::kComplete:
      record({FlightKind::kComplete, e.actor, e.unit, 0, e.count, e.band,
              e.cycle});
      break;
    case QueueStep::kBandClose:
      record({FlightKind::kBandClose, e.actor, e.unit, e.ticket, 0, e.band,
              e.cycle});
      break;
    case QueueStep::kExecStart:
    case QueueStep::kExecEnd:
      break;
  }
}

void FlightRecorder::set_source_label(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_[0] = std::move(label);
}

std::vector<std::string> FlightRecorder::sources() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sources_;
}

void FlightRecorder::merge_from(const FlightRecorder& other) {
  // Snapshot the source under its own lock first (never hold both).
  std::vector<std::string> their_sources;
  std::vector<FlightEvent> their_events;
  std::map<WaitKey, MonitorWait> their_monitors;
  std::map<WaitKey, ParkWait> their_parked;
  std::uint64_t their_drops = 0;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    other.flush_step_locked();
    their_sources = other.sources_;
    their_events.reserve(other.ring_.size());
    for (std::size_t i = 0; i < other.ring_.size(); ++i) {
      their_events.push_back(
          other.ring_[(other.first_ + i) % other.capacity_]);
    }
    their_monitors = other.monitors_;
    their_parked = other.parked_;
    their_drops = other.dropped_;
  }

  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  // Remap each of the other recorder's source indices into this one's
  // source list (dedup by label, append new labels).
  std::vector<std::uint16_t> remap(their_sources.size(), 0);
  for (std::size_t s = 0; s < their_sources.size(); ++s) {
    const auto it =
        std::find(sources_.begin(), sources_.end(), their_sources[s]);
    if (it != sources_.end()) {
      remap[s] = static_cast<std::uint16_t>(it - sources_.begin());
    } else {
      remap[s] = static_cast<std::uint16_t>(sources_.size());
      sources_.push_back(their_sources[s]);
    }
  }
  for (FlightEvent e : their_events) {
    e.source = remap[e.source];
    append_locked(e);  // keeps the original per-source seq
  }
  const auto remap_key = [&](const WaitKey& k) {
    return WaitKey{remap[std::get<0>(k)], std::get<1>(k), std::get<2>(k)};
  };
  for (const auto& [k, v] : their_monitors) monitors_[remap_key(k)] = v;
  for (const auto& [k, v] : their_parked) parked_[remap_key(k)] = v;
  dropped_ += their_drops;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(first_ + i) % capacity_]);
  }
  return out;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  return ring_.size();
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  return dropped_;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  return recorded_;
}

std::map<FlightRecorder::WaitKey, FlightRecorder::MonitorWait>
FlightRecorder::monitors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return monitors_;
}

std::map<FlightRecorder::WaitKey, FlightRecorder::ParkWait>
FlightRecorder::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.width = 0;
  ring_.clear();
  first_ = 0;
  recorded_ = 0;
  dropped_ = 0;
  monitors_.clear();
  parked_.clear();
}

std::string FlightRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  flush_step_locked();
  std::ostringstream os;
  os << "{\"flight_recorder\":1,\"capacity\":" << capacity_
     << ",\"recorded\":" << recorded_ << ",\"dropped\":" << dropped_
     << ",\"sources\":[";
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    if (s) os << ',';
    os << '"' << sources_[s] << '"';
  }
  os << "],\"events\":[";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const FlightEvent& e = ring_[(first_ + i) % capacity_];
    if (i) os << ',';
    os << "{\"seq\":" << e.seq << ",\"src\":" << e.source << ",\"kind\":\""
       << to_string(e.kind) << "\",\"actor\":" << e.actor
       << ",\"unit\":" << e.unit << ",\"ticket\":" << e.ticket
       << ",\"payload\":" << e.payload << ",\"band\":" << e.band
       << ",\"cycle\":" << e.cycle << '}';
  }
  os << "],\"monitors\":[";
  bool comma = false;
  for (const auto& [k, v] : monitors_) {
    if (comma) os << ',';
    comma = true;
    os << "{\"src\":" << std::get<0>(k) << ",\"unit\":" << std::get<1>(k)
       << ",\"ticket\":" << std::get<2>(k) << ",\"actor\":" << v.actor
       << ",\"band\":" << v.band << ",\"since\":" << v.since << '}';
  }
  os << "],\"parked\":[";
  comma = false;
  for (const auto& [k, v] : parked_) {
    if (comma) os << ',';
    comma = true;
    os << "{\"src\":" << std::get<0>(k) << ",\"unit\":" << std::get<1>(k)
       << ",\"ticket\":" << std::get<2>(k) << ",\"actor\":" << v.actor
       << ",\"band\":" << v.band << ",\"token\":" << v.token
       << ",\"since\":" << v.since << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace simt

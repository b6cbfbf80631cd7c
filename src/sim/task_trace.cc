#include "sim/task_trace.h"

#include <cstdio>

namespace simt {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

void TaskTrace::consume(const QueueEvent& e) {
  if (e.unit != 0 || !e.traceable()) return;
  TaskPhase phase = TaskPhase::kReserve;
  bool with_write = false;  // host seeds: reserve and write coincide
  switch (e.step) {
    case QueueStep::kSeed:
      with_write = true;
      break;
    case QueueStep::kReserve:
      break;
    case QueueStep::kWrite:
      phase = TaskPhase::kPayloadWrite;
      break;
    case QueueStep::kClaim:
      phase = TaskPhase::kClaim;
      break;
    case QueueStep::kDeliver:
      phase = TaskPhase::kArrival;
      break;
    case QueueStep::kExecStart:
      phase = TaskPhase::kExecStart;
      break;
    case QueueStep::kExecEnd:
      phase = TaskPhase::kExecEnd;
      break;
    default:
      return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  e.for_each([&](std::uint64_t i) {
    TaskEvent ev{phase,   e.ticket_at(i), e.parent_at(i), e.payload_at(i),
                 e.actor, e.cu,           e.cycle};
    if (ev.ticket == kNoTask) return;
    append_locked(ev);
    if (with_write) {
      ev.phase = TaskPhase::kPayloadWrite;
      append_locked(ev);
    }
  });
}

void TaskTrace::set_meta(std::string key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  meta_.emplace_back(std::move(key), std::move(value));
}

std::string TaskTrace::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : meta_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(key);
    out += "\":\"";
    out += json_escape(value);
    out += '"';
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf), "},\"dropped\":%llu,\"events\":[",
                static_cast<unsigned long long>(dropped_));
  out += buf;
  first = true;
  for (const TaskEvent& e : events_) {
    if (!first) out += ',';
    first = false;
    // kNoTask parents export as -1 so consumers need no sentinel lore.
    std::snprintf(buf, sizeof(buf),
                  "{\"phase\":\"%s\",\"ticket\":%llu,\"parent\":%lld,"
                  "\"payload\":%llu,\"actor\":%llu,\"cu\":%u,\"cycle\":%llu}",
                  to_string(e.phase),
                  static_cast<unsigned long long>(e.ticket),
                  e.parent == kNoTask
                      ? -1ll
                      : static_cast<long long>(e.parent),
                  static_cast<unsigned long long>(e.payload),
                  static_cast<unsigned long long>(e.actor), e.cu,
                  static_cast<unsigned long long>(e.cycle));
    out += buf;
  }
  out += "]}";
  return out;
}

bool TaskTrace::write_json(const std::string& path) const {
  if (const std::uint64_t n = dropped(); n > 0) {
    std::fprintf(stderr,
                 "task trace: %llu event(s) dropped past capacity — raise the "
                 "TaskTrace capacity for a complete causality DAG\n",
                 static_cast<unsigned long long>(n));
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string body = to_json();
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == body.size() && closed;
}

}  // namespace simt

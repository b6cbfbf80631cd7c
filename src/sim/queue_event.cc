#include "sim/queue_event.h"

#include "sim/flight_recorder.h"
#include "sim/op_history.h"
#include "sim/task_trace.h"

namespace simt {

void QueueSinks::emit(const QueueEvent& e) const {
  if (history != nullptr) history->consume(e);
  if (trace != nullptr) trace->consume(e);
  if (recorder != nullptr) recorder->consume(e);
}

}  // namespace simt

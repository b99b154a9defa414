// Deterministic discrete-event core for the fleet simulator.
//
// Each device posts its next interesting event — the next day it must touch
// the global timeline (daily write/AFR step due, power restored after an
// outage) — into a priority queue keyed by (day, device_id, event_kind).
// The simulation then advances time in jumps: days on which every device is
// dead or dark cost zero stepping work, and a batch of same-day events can
// execute on a worker pool because devices own disjoint state and forked RNG
// streams (the PR-1 discipline).
//
// Determinism contract: the queue's ordering is a *total* order over the
// event key, so the drain order never depends on insertion order, heap
// internals, or thread scheduling. Two runs that post the same event set —
// in any order, at any `--threads` — observe the same canonical sequence.
#ifndef SALAMANDER_FLEET_EVENT_SCHEDULER_H_
#define SALAMANDER_FLEET_EVENT_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

namespace salamander {

// Why a device wakes. The kind is the last tie-break key, so if a device
// ever held two events on one day the restart would fire after the step —
// in practice the fleet keeps at most one pending event per device.
enum class FleetEventKind : uint8_t {
  kStep = 0,     // daily stepping due (writes, AFR/power draws)
  kRestart = 1,  // power restored: attempt journal-replay restart
};

struct FleetEvent {
  uint32_t day = 0;     // simulated day the event fires on
  uint32_t device = 0;  // fleet slot index
  FleetEventKind kind = FleetEventKind::kStep;

  friend bool operator==(const FleetEvent&, const FleetEvent&) = default;
};

// Canonical event order: (day, device, kind), ascending.
inline bool EventBefore(const FleetEvent& a, const FleetEvent& b) {
  if (a.day != b.day) {
    return a.day < b.day;
  }
  if (a.device != b.device) {
    return a.device < b.device;
  }
  return static_cast<uint8_t>(a.kind) < static_cast<uint8_t>(b.kind);
}

// Min-heap of fleet events in canonical order. Single-threaded: only the
// owner thread posts and pops; workers hand their follow-up events back to
// the owner, which posts them in slot order at the batch barrier.
class FleetEventQueue {
 public:
  void Post(const FleetEvent& event) { heap_.push(event); }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Earliest pending event day; queue must be non-empty.
  uint32_t NextDay() const { return heap_.top().day; }

  // Removes and returns every event with day <= through, in canonical
  // (day, device, kind) order. Empty when nothing is due.
  std::vector<FleetEvent> PopThrough(uint32_t through);

 private:
  struct EventAfter {
    bool operator()(const FleetEvent& a, const FleetEvent& b) const {
      return EventBefore(b, a);
    }
  };
  std::priority_queue<FleetEvent, std::vector<FleetEvent>, EventAfter> heap_;
};

// Owner-side accounting of what the scheduler did with a run. Device-day
// savings (dead/dark days never stepped) are tracked per slot by the fleet
// sim; these are the queue-level totals.
struct FleetSchedulerStats {
  uint64_t batches = 0;          // parallel dispatch rounds executed
  uint64_t events = 0;           // events popped and executed
  uint64_t idle_windows = 0;     // sync windows with no event due (zero work)
  uint64_t days_stepped = 0;     // device-days actually simulated
  uint64_t dark_days_skipped = 0;  // device-days jumped over while dark
};

}  // namespace salamander

#endif  // SALAMANDER_FLEET_EVENT_SCHEDULER_H_

#include "src/common/clock.h"

#include <chrono>

namespace pileus {

MicrosecondCount RealClock::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RealClock* RealClock::Instance() {
  // Never destroyed, like the shared client event loops that read it: those
  // threads keep running through static destruction at process exit.
  static RealClock* clock = new RealClock();
  return clock;
}

}  // namespace pileus

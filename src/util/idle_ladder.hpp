// IdleLadder — the spin → yield → park policy shared by every thread that
// polls for work: the KV service workers (server::MpmcQueue::pop) and the
// TcpServer event loops (DESIGN.md §12.2, §13.2).
//
// A polling thread calls idle() after each pass that found nothing and
// reset() after each pass that found work. Empty passes numbered below
// kSpinPasses say "spin" (poll again at once), those below kParkAfter say
// "yield" (give the CPU away with sched_yield, then poll again), and from
// the kParkAfter-th on they say "park" — block in whatever way the caller
// blocks (the workers sleep 50 µs; the event loops block in epoll_wait).
// A thread that is kept busy therefore never pays a sleeping-thread
// wake-up, while an idle one stops burning its CPU within a few hundred
// passes; the yield band also hands the CPU over when the producer shares
// it.
#pragma once

namespace zstm::util {

class IdleLadder {
 public:
  static constexpr int kSpinPasses = 64;
  static constexpr int kParkAfter = 256;

  enum class Rung { kSpin, kYield, kPark };

  /// One more empty pass; says what to do before the next one.
  Rung idle() {
    if (passes_ < kParkAfter) ++passes_;
    if (passes_ < kSpinPasses) return Rung::kSpin;
    if (passes_ < kParkAfter) return Rung::kYield;
    return Rung::kPark;
  }

  /// The last pass found work: start again at the bottom rung.
  void reset() { passes_ = 0; }

 private:
  int passes_ = 0;
};

}  // namespace zstm::util

// SerialGate — a reader-writer gate whose shared side writes only the
// caller's own cache line. It is the façade's serial-irrevocable token
// (api::RetryPolicy rung 3, DESIGN.md §11.3) and the drain behind a forced
// maintain() (§12.4).
//
// Every transaction attempt enters the gate shared, so the shared side is
// on the hot path. A std::shared_mutex costs each shared acquire and each
// release an atomic read-modify-write on one word that all readers share:
// the line moves between cores on every attempt. Here each registry slot
// owns a padded flag instead:
//
//   lock_shared(slot):   flag[slot] = 1; if `writer` is set: flag[slot] = 0,
//                        wait until the exclusive holder leaves, retry.
//   unlock_shared(slot): flag[slot] = 0.
//   lock():              take the mutex (one exclusive holder at a time);
//                        writer = 1; wait until every flag reads 0.
//   unlock():            writer = 0; release the mutex.
//
// The Dekker pair: the shared side stores its flag, then loads `writer`;
// the exclusive side stores `writer`, then loads each flag. All four
// accesses are seq_cst, so they fall into one total order, and in it at
// least one side's store precedes the other side's load. Either the
// attempt sees `writer` set and backs out, or the exclusive taker sees the
// flag and waits for unlock_shared — they cannot both miss each other, so
// no shared holder is ever inside together with the exclusive holder.
//
// An attempt that finds the gate held blocks on the mutex, which the
// exclusive holder keeps until unlock(): it sleeps rather than spins while
// a serial transaction runs. The exclusive side spins, then yields, while
// in-flight attempts finish.
//
// `slot` is the caller's thread-registry slot in [0, slots); only the slot's
// owner thread passes it. lock()/unlock() meet the Lockable requirements,
// so std::unique_lock works for the exclusive side. Not re-entrant on
// either side.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "util/align.hpp"
#include "util/backoff.hpp"

namespace zstm::util {

class SerialGate {
 public:
  explicit SerialGate(int slots)
      : readers_(static_cast<std::size_t>(slots > 0 ? slots : 1)) {}

  SerialGate(const SerialGate&) = delete;
  SerialGate& operator=(const SerialGate&) = delete;

  void lock_shared(int slot) {
    std::atomic<bool>& mine = readers_[static_cast<std::size_t>(slot)].value;
    for (;;) {
      mine.store(true, std::memory_order_seq_cst);
      if (!writer_.value.load(std::memory_order_seq_cst)) return;
      mine.store(false, std::memory_order_release);
      // `writer` is only set under mu_, so this waits out that holder.
      std::lock_guard<std::mutex> wait(mu_);
    }
  }

  void unlock_shared(int slot) {
    readers_[static_cast<std::size_t>(slot)].value.store(
        false, std::memory_order_release);
  }

  void lock() {
    mu_.lock();
    writer_.value.store(true, std::memory_order_seq_cst);
    for (auto& r : readers_) {
      Backoff bo;
      while (r.value.load(std::memory_order_seq_cst)) bo.pause();
    }
  }

  void unlock() {
    writer_.value.store(false, std::memory_order_release);
    mu_.unlock();
  }

  /// RAII shared hold for one attempt.
  class SharedGuard {
   public:
    SharedGuard(SerialGate& gate, int slot) : gate_(gate), slot_(slot) {
      gate_.lock_shared(slot_);
    }
    ~SharedGuard() { gate_.unlock_shared(slot_); }
    SharedGuard(const SharedGuard&) = delete;
    SharedGuard& operator=(const SharedGuard&) = delete;

   private:
    SerialGate& gate_;
    int slot_;
  };

 private:
  std::vector<Padded<std::atomic<bool>>> readers_;
  /// Read by every attempt, written only by the exclusive side.
  Padded<std::atomic<bool>> writer_;
  /// Serializes exclusive holders; shared waiters block on it.
  std::mutex mu_;
};

}  // namespace zstm::util

// Bounded MPMC request queue for the KV service (DESIGN.md §12.2).
//
// Dmitry Vyukov's classic bounded MPMC ring: each cell carries a sequence
// number; producers and consumers claim cells with one CAS on their own
// cursor and synchronize through the cell's sequence (acquire on read,
// release on publish). No locks, no spurious blocking — a full queue fails
// try_push immediately, which is exactly what an open-loop load generator
// needs (a blocked producer would silently turn the workload closed-loop;
// shedding keeps the arrival process honest and is itself a measurement).
//
// Consumers use pop(): a bounded spin over try_pop that degrades to
// sched_yield and then to a short sleep (util::IdleLadder), so idle workers
// cost ~nothing at low arrival rates while a 1-CPU box still makes
// progress. close() makes pop() return false once the ring has drained —
// the service's clean shutdown: producers stop, workers finish every
// accepted request, then exit.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "util/align.hpp"
#include "util/idle_ladder.hpp"

namespace zstm::server {

template <typename T>
class MpmcQueue {
 public:
  /// Capacity is rounded up to a power of two (min 2).
  explicit MpmcQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// False when the ring is full or the queue is closed.
  bool try_push(T&& item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t pos = tail_.value.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.value.compare_exchange_weak(pos, pos + 1,
                                              std::memory_order_relaxed)) {
          cell.item = std::move(item);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // pos reloaded by the failed CAS; retry.
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.value.load(std::memory_order_relaxed);
      }
    }
  }

  /// False when the ring is empty right now (does not mean closed).
  bool try_pop(T& out) {
    std::size_t pos = head_.value.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.value.compare_exchange_weak(pos, pos + 1,
                                              std::memory_order_relaxed)) {
          out = std::move(cell.item);
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = head_.value.load(std::memory_order_relaxed);
      }
    }
  }

  /// Blocking pop for worker threads: spins briefly, then yields, then
  /// dozes in short sleeps. Returns false only when the queue is closed
  /// AND drained — every accepted item is popped exactly once.
  bool pop(T& out) {
    util::IdleLadder ladder;
    for (;;) {
      if (try_pop(out)) return true;
      if (closed_.load(std::memory_order_acquire)) {
        // Drain race: an in-flight push that won its cell before close()
        // may still be publishing; one more sweep after seeing closed.
        if (try_pop(out)) return true;
        return false;
      }
      switch (ladder.idle()) {
        case util::IdleLadder::Rung::kSpin:
          break;
        case util::IdleLadder::Rung::kYield:
          std::this_thread::yield();
          break;
        case util::IdleLadder::Rung::kPark:
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          break;
      }
    }
  }

  /// Stop accepting new items; pending ones remain poppable. Idempotent.
  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate occupancy (racy; monitoring only).
  std::size_t size_approx() const {
    const std::size_t t = tail_.value.load(std::memory_order_relaxed);
    const std::size_t h = head_.value.load(std::memory_order_relaxed);
    return t >= h ? t - h : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T item{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  util::Padded<std::atomic<std::size_t>> tail_{};  // producers
  util::Padded<std::atomic<std::size_t>> head_{};  // consumers
  std::atomic<bool> closed_{false};
};

}  // namespace zstm::server

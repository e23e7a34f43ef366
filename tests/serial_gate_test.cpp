// Tests for util::SerialGate, the façade's serial-irrevocable token: the
// exclusive side waits out attempts already inside, attempts wait while it
// is held, a forced maintain() from a thread without a registry slot
// drains running workers, and a mixed stress never lets a shared holder
// overlap the exclusive one (DESIGN.md §11.3, §12.4).
//
// The "still waiting" checks sleep and then assert that something has NOT
// happened yet; a correct gate can never make them fail, however the
// scheduler runs the threads.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "util/serial_gate.hpp"

namespace zstm {
namespace {

using namespace std::chrono_literals;

TEST(SerialGate, ExclusiveWaitsForAttemptAlreadyInside) {
  util::SerialGate gate(4);
  gate.lock_shared(2);
  std::atomic<bool> acquired{false};
  std::thread taker([&] {
    std::lock_guard<util::SerialGate> hold(gate);
    acquired.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(acquired.load()) << "exclusive side entered past a reader";
  gate.unlock_shared(2);
  taker.join();
  EXPECT_TRUE(acquired.load());
}

TEST(SerialGate, AttemptArrivingWhileHeldWaitsForRelease) {
  util::SerialGate gate(4);
  gate.lock();
  std::atomic<bool> entered{false};
  std::thread attempt([&] {
    util::SerialGate::SharedGuard g(gate, 1);
    entered.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(entered.load()) << "attempt entered a held gate";
  gate.unlock();
  attempt.join();
  EXPECT_TRUE(entered.load());
}

TEST(SerialGate, SharedHoldersDoNotExcludeEachOther) {
  util::SerialGate gate(4);
  gate.lock_shared(0);
  std::atomic<bool> entered{false};
  std::thread other([&] {
    util::SerialGate::SharedGuard g(gate, 3);
    entered.store(true);
  });
  other.join();  // would hang if shared holders excluded each other
  EXPECT_TRUE(entered.load());
  gate.unlock_shared(0);
}

// maintain(true) from a thread that never ran a transaction (a server's
// housekeeper has no registry slot) must still wait for every running
// attempt, and the sstm trim it runs then finds the quiescent window.
TEST(SerialGate, ForcedMaintainFromSlotlessThreadDrainsRunningWorkers) {
  api::CommonConfig cfg;
  cfg.max_threads = 8;
  cfg.retry.serial_after = 64;  // the gate is only active with rung 3 on
  api::SStm stm(cfg);
  auto x = stm.make_var<long>(0);

  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread parked([&] {
    stm.run(api::TxKind::kUpdate, [&](auto& tx) {
      tx.write(x) += 1;
      inside.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  std::atomic<bool> stop{false};
  std::vector<api::SStm::Var<long>> own{stm.make_var<long>(0),
                                        stm.make_var<long>(0)};
  std::vector<std::thread> busy;
  for (auto& v : own) {
    busy.emplace_back([&] {
      while (!stop.load()) {
        stm.run(api::TxKind::kUpdate, [&](auto& tx) { tx.write(v) += 1; });
      }
    });
  }
  while (!inside.load()) std::this_thread::yield();

  std::atomic<bool> returned{false};
  api::MaintainResult result;
  std::thread housekeeper([&] {
    result = stm.maintain(/*force=*/true);
    returned.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(returned.load()) << "forced maintain ran past an attempt";
  release.store(true);
  housekeeper.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(result.retained, 0u) << "the drained window was not quiescent";

  stop.store(true);
  parked.join();
  for (auto& t : busy) t.join();
}

// Every thread mixes shared sections with an occasional exclusive one. The
// counters are checked inside each section: a shared holder must never see
// the exclusive holder inside, and the exclusive holder must see no shared
// holder for its whole section.
TEST(SerialGate, StressNoSharedHolderOverlapsTheExclusiveOne) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  constexpr int kExclusiveEvery = 64;
  util::SerialGate gate(kThreads);
  std::atomic<int> shared_inside{0};
  std::atomic<int> exclusive_inside{0};
  std::atomic<int> violations{0};
  std::atomic<int> exclusive_sections{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 1; i <= kRounds; ++i) {
        if (i % kExclusiveEvery == t) {
          std::lock_guard<util::SerialGate> hold(gate);
          if (exclusive_inside.fetch_add(1) != 0) violations.fetch_add(1);
          for (int k = 0; k < 16; ++k) {
            if (shared_inside.load() != 0) violations.fetch_add(1);
            util::cpu_relax();
          }
          exclusive_inside.fetch_sub(1);
          exclusive_sections.fetch_add(1);
        } else {
          util::SerialGate::SharedGuard g(gate, t);
          shared_inside.fetch_add(1);
          if (exclusive_inside.load() != 0) violations.fetch_add(1);
          util::cpu_relax();
          shared_inside.fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(exclusive_sections.load(), 0);
}

}  // namespace
}  // namespace zstm

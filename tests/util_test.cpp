// Unit tests for the util substrate: RNG, backoff, spin lock, thread
// registry, padding, statistics, the idle ladder.
//
// CTest label: `smoke` — fast canary, gates CI before the stress suites
// (DESIGN.md §6).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <thread>
#include <vector>

#include "util/align.hpp"
#include "util/backoff.hpp"
#include "util/idle_ladder.hpp"
#include "util/rng.hpp"
#include "util/spin_lock.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::util {
namespace {

// --- alignment -------------------------------------------------------------

TEST(Align, PaddedValueIsCacheLineAligned) {
  EXPECT_EQ(alignof(Padded<int>), kCacheLine);
  EXPECT_GE(sizeof(Padded<int>), kCacheLine);
  EXPECT_EQ(alignof(PaddedCounter), kCacheLine);
}

TEST(Align, PaddedArrayElementsDoNotShareCacheLines) {
  std::array<PaddedCounter, 4> counters;
  for (std::size_t i = 1; i < counters.size(); ++i) {
    auto a = reinterpret_cast<std::uintptr_t>(&counters[i - 1]);
    auto b = reinterpret_cast<std::uintptr_t>(&counters[i]);
    EXPECT_GE(b - a, kCacheLine);
  }
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Xorshift a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xorshift a(1), b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowStaysInRange) {
  Xorshift rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Xorshift rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextUnitInHalfOpenInterval) {
  Xorshift rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Xorshift rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.2) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.02);
}

TEST(Rng, ZeroSeedIsNotAbsorbing) {
  Xorshift rng(0);
  EXPECT_NE(rng.next(), 0u);
  EXPECT_NE(rng.next(), rng.next());
}

TEST(Rng, SplitMix64ExpandsDistinctValues) {
  std::uint64_t s = 0;
  std::set<std::uint64_t> vals;
  for (int i = 0; i < 100; ++i) vals.insert(splitmix64(s));
  EXPECT_EQ(vals.size(), 100u);
}

// --- backoff -----------------------------------------------------------------

TEST(Backoff, LimitDoublesUpToCap) {
  Backoff bo(4, 64);
  EXPECT_EQ(bo.current_limit(), 4u);
  bo.pause();
  EXPECT_EQ(bo.current_limit(), 8u);
  bo.pause();
  EXPECT_EQ(bo.current_limit(), 16u);
  for (int i = 0; i < 10; ++i) bo.pause();
  EXPECT_LE(bo.current_limit(), 128u);  // saturates around the cap
}

TEST(Backoff, ResetRestoresMinimum) {
  Backoff bo(4, 64);
  for (int i = 0; i < 5; ++i) bo.pause();
  bo.reset();
  EXPECT_EQ(bo.current_limit(), 4u);
}

// --- idle ladder -------------------------------------------------------------

TEST(IdleLadder, SpinsThenYieldsThenParksUntilReset) {
  IdleLadder ladder;
  using Rung = IdleLadder::Rung;
  // Empty passes 1..63 spin, 64..255 yield, 256 on park (the pre-ladder
  // MpmcQueue::pop counts, kept exactly).
  for (int pass = 1; pass < IdleLadder::kSpinPasses; ++pass) {
    ASSERT_EQ(ladder.idle(), Rung::kSpin) << pass;
  }
  for (int pass = IdleLadder::kSpinPasses; pass < IdleLadder::kParkAfter;
       ++pass) {
    ASSERT_EQ(ladder.idle(), Rung::kYield) << pass;
  }
  for (int pass = 0; pass < 1000; ++pass) {
    ASSERT_EQ(ladder.idle(), Rung::kPark);
  }
  ladder.reset();
  EXPECT_EQ(ladder.idle(), Rung::kSpin);
}

// --- spin lock -----------------------------------------------------------------

TEST(SpinLock, MutualExclusionUnderContention) {
  SpinLock lock;
  long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<SpinLock> lk(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(SpinLock, TryLockFailsWhenHeld) {
  SpinLock lock;
  ASSERT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// --- thread registry --------------------------------------------------------------

TEST(ThreadRegistry, AssignsLowestFreeSlot) {
  ThreadRegistry reg(8);
  auto a = reg.attach();
  auto b = reg.attach();
  EXPECT_EQ(a.slot(), 0);
  EXPECT_EQ(b.slot(), 1);
}

TEST(ThreadRegistry, ReleasedSlotIsReused) {
  ThreadRegistry reg(8);
  auto a = reg.attach();
  auto b = reg.attach();
  const int freed = a.slot();
  {
    ThreadRegistry::Registration tmp = std::move(a);
  }  // releases slot 0
  auto c = reg.attach();
  EXPECT_EQ(c.slot(), freed);
}

TEST(ThreadRegistry, ThrowsWhenFull) {
  ThreadRegistry reg(2);
  auto a = reg.attach();
  auto b = reg.attach();
  EXPECT_THROW(reg.attach(), std::runtime_error);
}

TEST(ThreadRegistry, HighWaterTracksMaxSlot) {
  ThreadRegistry reg(8);
  EXPECT_EQ(reg.high_water(), 0);
  auto a = reg.attach();
  auto b = reg.attach();
  auto c = reg.attach();
  EXPECT_EQ(reg.high_water(), 3);
  { auto drop = std::move(c); }
  EXPECT_EQ(reg.high_water(), 3);  // high water never recedes
}

TEST(ThreadRegistry, ActiveReflectsRegistrationState) {
  ThreadRegistry reg(4);
  auto a = reg.attach();
  EXPECT_TRUE(reg.active(0));
  { auto drop = std::move(a); }
  EXPECT_FALSE(reg.active(0));
}

TEST(ThreadRegistry, MoveTransfersOwnership) {
  ThreadRegistry reg(4);
  auto a = reg.attach();
  ThreadRegistry::Registration b = std::move(a);
  EXPECT_FALSE(a.attached());
  EXPECT_TRUE(b.attached());
  EXPECT_EQ(b.slot(), 0);
}

TEST(ThreadRegistry, RejectsInvalidCapacity) {
  EXPECT_THROW(ThreadRegistry(0), std::invalid_argument);
  EXPECT_THROW(ThreadRegistry(ThreadRegistry::kMaxThreads + 1),
               std::invalid_argument);
}

TEST(ThreadRegistry, ConcurrentAttachYieldsUniqueSlots) {
  ThreadRegistry reg(32);
  std::vector<std::thread> threads;
  std::array<int, 16> slots{};
  std::array<ThreadRegistry::Registration, 16> regs;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&, t] {
      // Keep the registration alive past all attaches so no slot is reused.
      regs[static_cast<std::size_t>(t)] = reg.attach();
      slots[static_cast<std::size_t>(t)] =
          regs[static_cast<std::size_t>(t)].slot();
    });
  }
  for (auto& th : threads) th.join();
  std::set<int> unique(slots.begin(), slots.end());
  EXPECT_EQ(unique.size(), slots.size());
}

// --- stats -----------------------------------------------------------------------

TEST(Stats, AddAndSnapshotAggregateAcrossSlots) {
  ThreadRegistry reg(4);
  StatsDomain stats(reg);
  stats.add(0, Counter::kCommits, 3);
  stats.add(1, Counter::kCommits, 4);
  stats.add(2, Counter::kAborts);
  auto snap = stats.snapshot();
  EXPECT_EQ(snap[Counter::kCommits], 7u);
  EXPECT_EQ(snap[Counter::kAborts], 1u);
  EXPECT_EQ(snap[Counter::kReads], 0u);
}

TEST(Stats, ResetClearsAllCounters) {
  ThreadRegistry reg(2);
  StatsDomain stats(reg);
  stats.add(0, Counter::kReads, 10);
  stats.reset();
  EXPECT_EQ(stats.snapshot()[Counter::kReads], 0u);
}

TEST(Stats, CounterNamesAreDistinct) {
  std::set<std::string> names;
  for (int c = 0; c < static_cast<int>(Counter::kCount); ++c) {
    names.insert(counter_name(static_cast<Counter>(c)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(Counter::kCount));
}

TEST(Stats, SnapshotToStringListsNonZeroOnly) {
  ThreadRegistry reg(2);
  StatsDomain stats(reg);
  stats.add(0, Counter::kCommits, 2);
  const std::string s = stats.snapshot().to_string();
  EXPECT_NE(s.find("commits=2"), std::string::npos);
  EXPECT_EQ(s.find("aborts"), std::string::npos);
}

TEST(Stats, ConcurrentIncrementsAreNotLost) {
  ThreadRegistry reg(8);
  StatsDomain stats(reg);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10000; ++i) stats.add(t, Counter::kReads);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stats.snapshot()[Counter::kReads], 40000u);
}

}  // namespace
}  // namespace zstm::util

// Cross-runtime conformance suite for the unified façade (api/stm_api.hpp):
// one shared battery, TYPED_TEST'd across all six runtime variants through
// api::Stm<R>, plus AnyStm name-resolution coverage. Every variant must
// agree on the observable semantics the façade promises — atomic updates,
// consistent read-only snapshots, abort/retry visibility, budgeted-run
// failure reporting, long-transaction progress under writer churn, pool
// on/off equivalence — and on the implicit-attachment lifecycle (thread
// churn must reclaim registry slots; this extends tests/node_pool_test.cpp's
// slot-release pattern to the API layer).
//
// CTest label: `conformance` (DESIGN.md §6/§8); rounds scale with
// ZSTM_STRESS_ROUNDS and the suite runs under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "fault/failpoint.hpp"
#include "stress_env.hpp"
#include "util/rng.hpp"

namespace zstm {
namespace {

using api::CommonConfig;
using api::TxKind;

template <typename S>
class ApiConformance : public ::testing::Test {
 public:
  /// Small-footprint config shared by the battery; the plausible-clock
  /// variant runs with r = 2 entries so clock aliasing is actually
  /// exercised (false conflicts allowed, inconsistencies not).
  static CommonConfig config() {
    CommonConfig cfg;
    cfg.max_threads = 12;
    if constexpr (std::is_same_v<S, api::CsRevStm>) cfg.plausible_entries = 2;
    return cfg;
  }
  static S make(CommonConfig cfg = config()) { return S(cfg); }
};

using Variants = ::testing::Types<api::LsaStm, api::CsVcStm, api::CsRevStm,
                                  api::SStm, api::ZStm, api::Tl2Stm>;
TYPED_TEST_SUITE(ApiConformance, Variants);

// --- basic semantics --------------------------------------------------------

TYPED_TEST(ApiConformance, EveryKindCommitsAndReadsBack) {
  TypeParam stm = this->make();
  auto x = stm.make_var(1L);

  api::RunResult r =
      stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(x) += 1; });
  EXPECT_TRUE(r.committed);
  EXPECT_GE(r.attempts, 1u);
  stm.run(TxKind::kLongUpdate, [&](auto& tx) { tx.write(x) += 1; });
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 3); });
  stm.run(TxKind::kLong, [&](auto& tx) { EXPECT_EQ(tx.read(x), 3); });
}

TYPED_TEST(ApiConformance, CounterRaceLosesNoIncrements) {
  constexpr int kThreads = 4;
  const int rounds = test_env::stress_rounds(400);
  TypeParam stm = this->make();
  auto counter = stm.make_var(0L);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < rounds; ++i) {
        stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(counter) += 1; });
      }
    });
  }
  for (auto& w : workers) w.join();

  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(tx.read(counter), static_cast<long>(kThreads) * rounds);
  });
}

TYPED_TEST(ApiConformance, ReadOnlySnapshotsSeeConservedTotal) {
  constexpr int kVars = 16;
  constexpr long kInitial = 100;
  const int rounds = test_env::stress_rounds(600);
  TypeParam stm = this->make();
  std::vector<typename TypeParam::template Var<long>> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(stm.make_var(kInitial));

  std::atomic<bool> writers_done{false};
  std::atomic<bool> torn_snapshot{false};
  std::thread writer([&] {
    util::Xorshift rng(7);
    for (int i = 0; i < rounds; ++i) {
      const std::size_t a = rng.next_below(kVars);
      std::size_t b = rng.next_below(kVars);
      if (b == a) b = (b + 1) % kVars;
      stm.run(TxKind::kUpdate, [&](auto& tx) {
        tx.write(vars[a]) -= 3;
        tx.write(vars[b]) += 3;
      });
    }
    writers_done.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    while (!writers_done.load(std::memory_order_acquire)) {
      long total = 0;
      stm.run(TxKind::kReadOnly, [&](auto& tx) {
        total = 0;
        for (auto& v : vars) total += tx.read(v);
      });
      if (total != kInitial * kVars) torn_snapshot.store(true);
      long long_total = 0;
      stm.run(TxKind::kLong, [&](auto& tx) {
        long_total = 0;
        for (auto& v : vars) long_total += tx.read(v);
      });
      if (long_total != kInitial * kVars) torn_snapshot.store(true);
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(torn_snapshot.load());
}

TYPED_TEST(ApiConformance, AbortedAttemptLeavesNoTraceAndRetries) {
  TypeParam stm = this->make();
  auto x = stm.make_var(0L);

  // The attempt count is exact only without injected aborts; the CI chaos
  // rerun arms ambient failpoints.
  fault::SuppressGuard quiet;
  int tries = 0;
  const api::RunResult r = stm.run(TxKind::kUpdate, [&](auto& tx) {
    tx.write(x) = 99;  // visible only if this attempt commits
    if (++tries < 2) tx.abort();
    tx.write(x) = 1;
  });
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(r.attempts, 2u);
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 1); });
}

TYPED_TEST(ApiConformance, BudgetedRunReportsFailureWithoutSideEffects) {
  TypeParam stm = this->make();
  auto x = stm.make_var(42L);

  const api::RunResult r = stm.run(
      TxKind::kUpdate,
      [&](auto& tx) {
        tx.write(x) = -1;
        tx.abort();
      },
      /*max_attempts=*/3);
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.attempts, 3u);
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 42); });
}

TYPED_TEST(ApiConformance, ForeignExceptionAbandonsAttemptRecoverably) {
  // The stm_api.hpp contract: an exception other than the abort token
  // propagates to the caller, and the next run on the same thread aborts
  // the abandoned attempt first. Exercise both the short and long paths.
  TypeParam stm = this->make();
  auto x = stm.make_var(0L);

  for (const TxKind kind : {TxKind::kUpdate, TxKind::kLongUpdate}) {
    struct Boom {};
    EXPECT_THROW(stm.run(kind,
                         [&](auto& tx) {
                           tx.write(x) += 100;  // installs a locator
                           throw Boom{};
                         }),
                 Boom);
    // The abandoned write must not be visible, and the object must not be
    // wedged behind the abandoned attempt's descriptor.
    stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(x) += 1; });
  }
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 2); });
}

// --- long transactions vs writer churn -------------------------------------

TYPED_TEST(ApiConformance, LongUpdateMakesProgressUnderWriterChurn) {
  constexpr int kThreads = 3;
  constexpr int kVars = 24;
  const int rounds = test_env::stress_rounds(300);
  TypeParam stm = this->make();
  std::vector<typename TypeParam::template Var<long>> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(stm.make_var(10L));
  auto sink = stm.make_var(0L);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      util::Xorshift rng(static_cast<std::uint64_t>(t) * 13 + 5);
      for (int i = 0; i < rounds; ++i) {
        const std::size_t a = rng.next_below(kVars);
        std::size_t b = rng.next_below(kVars);
        if (b == a) b = (b + 1) % kVars;
        stm.run(TxKind::kUpdate, [&](auto& tx) {
          tx.write(vars[a]) -= 1;
          tx.write(vars[b]) += 1;
        });
      }
    });
  }

  // Unbounded long updates racing the (bounded) writer storm: they must
  // all commit — the writers quiesce, so even first-committer-wins
  // runtimes converge; Z-STM commits them *during* the storm.
  int long_commits = 0;
  for (int i = 0; i < 5; ++i) {
    const api::RunResult r = stm.run(TxKind::kLongUpdate, [&](auto& tx) {
      long total = 0;
      for (auto& v : vars) total += tx.read(v);
      tx.write(sink, total);
    });
    if (r.committed) ++long_commits;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(long_commits, 5);

  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(tx.read(sink), 10L * kVars);  // transfers conserve the total
    long total = 0;
    for (auto& v : vars) total += tx.read(v);
    EXPECT_EQ(total, 10L * kVars);
  });
}

// --- configuration lowering -------------------------------------------------

TYPED_TEST(ApiConformance, PoolDisabledVariantStillConforms) {
  CommonConfig cfg = this->config();
  cfg.use_node_pool = false;
  TypeParam stm = this->make(cfg);
  auto x = stm.make_var(0L);

  constexpr int kThreads = 2;
  const int rounds = test_env::stress_rounds(150);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < rounds; ++i) {
        stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(x) += 1; });
      }
    });
  }
  for (auto& w : workers) w.join();
  stm.run(TxKind::kLong, [&](auto& tx) {
    EXPECT_EQ(tx.read(x), static_cast<long>(kThreads) * rounds);
  });
}

// --- implicit attachment lifecycle ------------------------------------------

TYPED_TEST(ApiConformance, ThreadChurnReclaimsRegistrySlots) {
  // 8 waves x 4 short-lived threads = 32 attachments against a registry
  // with room for 6: unless each exiting thread's cached ctx releases its
  // slot (the TLS-destructor / ThreadRegistry release-listener path), a
  // later wave throws "thread registry full" and the test dies.
  CommonConfig cfg = this->config();
  cfg.max_threads = 6;
  TypeParam stm = this->make(cfg);
  auto counter = stm.make_var(0L);

  constexpr int kWaves = 8;
  constexpr int kPerWave = 4;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kPerWave; ++t) {
      workers.emplace_back([&] {
        stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(counter) += 1; });
      });
    }
    for (auto& w : workers) w.join();
  }

  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(tx.read(counter), static_cast<long>(kWaves) * kPerWave);
  });
}

TYPED_TEST(ApiConformance, DetachThreadReleasesAndReattaches) {
  CommonConfig cfg = this->config();
  cfg.max_threads = 2;  // this thread's slot + headroom of one
  TypeParam stm = this->make(cfg);
  auto x = stm.make_var(0L);

  for (int i = 0; i < 3; ++i) {
    stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(x) += 1; });
    stm.detach_thread();  // releases the slot; next run re-attaches
  }
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 3); });
}

TYPED_TEST(ApiConformance, TwoFacadeInstancesKeepSeparateState) {
  TypeParam a = this->make();
  TypeParam b = this->make();
  auto xa = a.make_var(1L);
  auto xb = b.make_var(10L);
  a.run(TxKind::kUpdate, [&](auto& tx) { tx.write(xa) += 1; });
  b.run(TxKind::kUpdate, [&](auto& tx) { tx.write(xb) += 1; });
  a.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(xa), 2); });
  b.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(xb), 11); });
  EXPECT_EQ(a.stats()[util::Counter::kCommits], 2u);
  EXPECT_EQ(b.stats()[util::Counter::kCommits], 2u);
}

// --- AnyStm: name resolution and erased-handle semantics --------------------

TEST(AnyStm, UnknownNameThrows) {
  EXPECT_THROW(api::AnyStm::make("tl3"), std::invalid_argument);
  EXPECT_THROW(api::AnyStm::make(""), std::invalid_argument);
}

TEST(AnyStm, Tl2NameResolves) {
  api::AnyStm stm = api::AnyStm::make("tl2");
  EXPECT_EQ(stm.name(), "tl2");
  auto x = stm.make_var(5L);
  stm.run(TxKind::kUpdate, [&](api::TxHandle& tx) { tx.write(x) += 1; });
  stm.run(TxKind::kReadOnly, [&](api::TxHandle& tx) { EXPECT_EQ(tx.read(x), 6); });
}

TEST(AnyStm, AliasNamesResolve) {
  api::AnyStm stm = api::AnyStm::make("lsa-no-readsets");
  EXPECT_EQ(stm.name(), "lsa-nors");
  EXPECT_FALSE(stm.config().track_readonly_readsets);
}

TEST(AnyStm, EveryVariantPassesTheErasedBattery) {
  const int rounds = test_env::stress_rounds(150);
  for (const std::string& name : api::AnyStm::variant_names()) {
    SCOPED_TRACE(name);
    CommonConfig cfg;
    cfg.max_threads = 8;
    api::AnyStm stm = api::AnyStm::make(name, cfg);
    auto counter = stm.make_var(0L);

    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < rounds; ++i) {
          stm.run(TxKind::kUpdate,
                  [&](api::TxHandle& tx) { tx.write(counter) += 1; });
        }
      });
    }
    for (auto& w : workers) w.join();

    stm.run(TxKind::kLong, [&](api::TxHandle& tx) {
      EXPECT_EQ(tx.read(counter), 2L * rounds);
    });

    const api::RunResult failed = stm.run(
        TxKind::kUpdate, [&](api::TxHandle& tx) { tx.abort(); },
        /*max_attempts=*/2);
    EXPECT_FALSE(failed.committed);
    EXPECT_EQ(failed.attempts, 2u);
  }
}

}  // namespace
}  // namespace zstm

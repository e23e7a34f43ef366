// Unit tests for the contention-manager policies (§4.1 / DSTM [4]), and
// for the start ticks the runtimes draw for them at begin.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cm/contention_manager.hpp"
#include "cs/cs.hpp"
#include "lsa/lsa.hpp"
#include "sstm/sstm.hpp"
#include "zstm/zstm.hpp"

namespace zstm::cm {
namespace {

using runtime::TxClass;
using runtime::TxDescBase;

class PlainDesc : public TxDescBase {
 public:
  using TxDescBase::TxDescBase;
};

std::unique_ptr<PlainDesc> make_desc(std::uint64_t id,
                                      std::uint64_t start = 0,
                                      std::uint64_t work = 0) {
  auto d = std::make_unique<PlainDesc>(id, 0, TxClass::kShort);
  d->set_start_ticks(start);
  d->add_work(work);
  return d;
}

TEST(Cm, FactoryProducesEveryPolicy) {
  for (Policy p : {Policy::kAggressive, Policy::kSuicide, Policy::kPolite,
                   Policy::kKarma, Policy::kTimestamp, Policy::kGreedy,
                   Policy::kPolka}) {
    auto mgr = make_manager(p);
    ASSERT_NE(mgr, nullptr);
    EXPECT_EQ(mgr->name(), policy_name(p));
  }
}

TEST(Cm, PolicyNamesAreDistinct) {
  EXPECT_STRNE(policy_name(Policy::kAggressive), policy_name(Policy::kSuicide));
  EXPECT_STRNE(policy_name(Policy::kKarma), policy_name(Policy::kTimestamp));
}

TEST(Cm, AggressiveAlwaysKillsOther) {
  auto mgr = make_manager(Policy::kAggressive);
  auto me = make_desc(1);
  auto other = make_desc(2);
  for (std::uint32_t a = 0; a < 5; ++a) {
    EXPECT_EQ(mgr->arbitrate(*me, *other, a), Decision::kAbortOther);
  }
}

TEST(Cm, SuicideAlwaysKillsSelf) {
  auto mgr = make_manager(Policy::kSuicide);
  auto me = make_desc(1);
  auto other = make_desc(2);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 0), Decision::kAbortSelf);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 100), Decision::kAbortSelf);
}

TEST(Cm, PoliteWaitsThenEscalates) {
  auto mgr = make_manager(Policy::kPolite);
  auto me = make_desc(1);
  auto other = make_desc(2);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 0), Decision::kWait);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 7), Decision::kWait);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 8), Decision::kAbortOther);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 100), Decision::kAbortOther);
}

TEST(Cm, KarmaRicherTransactionWinsImmediately) {
  auto mgr = make_manager(Policy::kKarma);
  auto me = make_desc(1, 0, /*work=*/50);
  auto other = make_desc(2, 0, /*work=*/10);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 0), Decision::kAbortOther);
}

TEST(Cm, KarmaPoorerTransactionWaitsOutTheGap) {
  auto mgr = make_manager(Policy::kKarma);
  auto me = make_desc(1, 0, /*work=*/10);
  auto other = make_desc(2, 0, /*work=*/15);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 0), Decision::kWait);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 4), Decision::kWait);
  // Patience accumulated ≥ work gap: now the requester may kill.
  EXPECT_EQ(mgr->arbitrate(*me, *other, 5), Decision::kAbortOther);
}

TEST(Cm, KarmaEqualWorkFavorsRequester) {
  auto mgr = make_manager(Policy::kKarma);
  auto me = make_desc(1, 0, 10);
  auto other = make_desc(2, 0, 10);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 0), Decision::kAbortOther);
}

TEST(Cm, TimestampOlderWins) {
  auto mgr = make_manager(Policy::kTimestamp);
  auto old_tx = make_desc(1, /*start=*/5);
  auto young_tx = make_desc(2, /*start=*/9);
  EXPECT_EQ(mgr->arbitrate(*old_tx, *young_tx, 0), Decision::kAbortOther);
}

TEST(Cm, TimestampYoungerWaitsThenSelfAborts) {
  auto mgr = make_manager(Policy::kTimestamp);
  auto old_tx = make_desc(1, 5);
  auto young_tx = make_desc(2, 9);
  EXPECT_EQ(mgr->arbitrate(*young_tx, *old_tx, 0), Decision::kWait);
  EXPECT_EQ(mgr->arbitrate(*young_tx, *old_tx, 15), Decision::kWait);
  EXPECT_EQ(mgr->arbitrate(*young_tx, *old_tx, 16), Decision::kAbortSelf);
}

TEST(Cm, GreedyOlderRequesterWins) {
  auto mgr = make_manager(Policy::kGreedy);
  auto old_tx = make_desc(1, /*start=*/3);
  auto young_tx = make_desc(2, /*start=*/8);
  EXPECT_EQ(mgr->arbitrate(*old_tx, *young_tx, 0), Decision::kAbortOther);
}

TEST(Cm, GreedyYoungerRequesterWaitsOnRunningOwner) {
  auto mgr = make_manager(Policy::kGreedy);
  auto old_tx = make_desc(1, 3);
  auto young_tx = make_desc(2, 8);
  // The elder is running (not waiting): the younger requester must wait,
  // however many times it re-examines the conflict.
  EXPECT_EQ(mgr->arbitrate(*young_tx, *old_tx, 0), Decision::kWait);
  EXPECT_EQ(mgr->arbitrate(*young_tx, *old_tx, 50), Decision::kWait);
}

TEST(Cm, GreedyWaitingOwnerForfeitsPriority) {
  auto mgr = make_manager(Policy::kGreedy);
  auto old_tx = make_desc(1, 3);
  auto young_tx = make_desc(2, 8);
  old_tx->set_waiting(true);  // the elder is blocked on somebody else
  EXPECT_EQ(mgr->arbitrate(*young_tx, *old_tx, 0), Decision::kAbortOther);
  old_tx->set_waiting(false);
  EXPECT_EQ(mgr->arbitrate(*young_tx, *old_tx, 0), Decision::kWait);
}

TEST(Cm, PolkaRicherTransactionWinsImmediately) {
  auto mgr = make_manager(Policy::kPolka);
  auto me = make_desc(1, 0, /*work=*/50);
  auto other = make_desc(2, 0, /*work=*/10);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 0), Decision::kAbortOther);
}

TEST(Cm, PolkaPatienceGrowsExponentially) {
  auto mgr = make_manager(Policy::kPolka);
  auto me = make_desc(1, 0, /*work=*/0);
  auto other = make_desc(2, 0, /*work=*/100);
  // Patience 2^attempt must *exceed* the work gap of 100: attempts 0..6
  // wait (1, 2, ..., 64), attempt 7 kills (128 > 100).
  EXPECT_EQ(mgr->arbitrate(*me, *other, 0), Decision::kWait);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 6), Decision::kWait);
  EXPECT_EQ(mgr->arbitrate(*me, *other, 7), Decision::kAbortOther);
}

TEST(Cm, DecisionNamesReadable) {
  EXPECT_STREQ(to_string(Decision::kAbortOther), "abort-other");
  EXPECT_STREQ(to_string(Decision::kAbortSelf), "abort-self");
  EXPECT_STREQ(to_string(Decision::kWait), "wait");
}

// Descriptor status-protocol tests (the commit CAS discipline every STM
// relies on).

TEST(TxDesc, EnemyAbortOnlyWhileActive) {
  PlainDesc d(1, 0, TxClass::kShort);
  EXPECT_EQ(d.status(), runtime::TxStatus::kActive);
  ASSERT_TRUE(d.begin_commit());
  EXPECT_EQ(d.status(), runtime::TxStatus::kCommitting);
  EXPECT_FALSE(d.abort_by_enemy());  // immune once committing
  d.finish_commit();
  EXPECT_EQ(d.status(), runtime::TxStatus::kCommitted);
  EXPECT_FALSE(d.abort_by_enemy());
}

TEST(TxDesc, EnemyAbortWinsOverLateCommit) {
  PlainDesc d(1, 0, TxClass::kShort);
  ASSERT_TRUE(d.abort_by_enemy());
  EXPECT_EQ(d.status(), runtime::TxStatus::kAborted);
  EXPECT_FALSE(d.begin_commit());  // victim discovers the abort
}

TEST(TxDesc, FinishAbortFromCommitting) {
  PlainDesc d(1, 0, TxClass::kShort);
  ASSERT_TRUE(d.begin_commit());
  d.finish_abort();
  EXPECT_EQ(d.status(), runtime::TxStatus::kAborted);
}

TEST(TxDesc, FinishAbortIdempotentOnFinalStates) {
  PlainDesc d(1, 0, TxClass::kShort);
  ASSERT_TRUE(d.begin_commit());
  d.finish_commit();
  d.finish_abort();  // must not demote a committed transaction
  EXPECT_EQ(d.status(), runtime::TxStatus::kCommitted);
}

TEST(TxDesc, StatusNamesReadable) {
  EXPECT_STREQ(runtime::to_string(runtime::TxStatus::kActive), "active");
  EXPECT_STREQ(runtime::to_string(runtime::TxStatus::kCommitted), "committed");
}

// --- start ticks ---------------------------------------------------------

TEST(Cm, OnlyStartOrderedPoliciesDrawTicks) {
  for (Policy p : {Policy::kAggressive, Policy::kSuicide, Policy::kPolite,
                   Policy::kKarma, Policy::kTimestamp, Policy::kGreedy,
                   Policy::kPolka}) {
    auto mgr = make_manager(p);
    const bool ordered = p == Policy::kTimestamp || p == Policy::kGreedy;
    EXPECT_EQ(mgr->orders_by_start(), ordered) << policy_name(p);
    const std::uint64_t first = mgr->start_tick();
    const std::uint64_t second = mgr->start_tick();
    if (ordered) {
      EXPECT_LT(first, second) << policy_name(p);
    } else {
      EXPECT_EQ(first, 0u) << policy_name(p);
      EXPECT_EQ(second, 0u) << policy_name(p);
    }
  }
}

/// Begins `n` successive transactions on one runtime and returns the
/// start ticks their descriptors carried. `begin_and_finish` runs one
/// empty transaction and reports its descriptor's start_ticks().
std::vector<std::uint64_t> ticks_of(
    int n, const std::function<std::uint64_t()>& begin_and_finish) {
  std::vector<std::uint64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(begin_and_finish());
  return out;
}

using RuntimeTicks =
    std::vector<std::pair<const char*, std::vector<std::uint64_t>>>;

/// Successive descriptors' start ticks of lsa, cs, sstm and zl-long
/// transactions under `policy`, keyed by runtime.
RuntimeTicks runtime_ticks(Policy policy) {
  constexpr int kTx = 4;
  RuntimeTicks all;
  {
    lsa::Config cfg;
    cfg.max_threads = 2;
    cfg.cm_policy = policy;
    lsa::Runtime rt(cfg);
    auto th = rt.attach();
    all.emplace_back("lsa", ticks_of(kTx, [&] {
      const std::uint64_t t = th->begin().descriptor()->start_ticks();
      th->commit();
      return t;
    }));
  }
  {
    cs::Config cfg;
    cfg.max_threads = 2;
    cfg.cm_policy = policy;
    auto rt = cs::make_vc_runtime(cfg);
    auto th = rt->attach();
    all.emplace_back("cs-vc", ticks_of(kTx, [&] {
      const std::uint64_t t = th->begin().descriptor()->start_ticks();
      th->commit();
      return t;
    }));
  }
  {
    sstm::Config cfg;
    cfg.max_threads = 2;
    cfg.cm_policy = policy;
    sstm::Runtime rt(cfg);
    auto th = rt.attach();
    all.emplace_back("sstm", ticks_of(kTx, [&] {
      const std::uint64_t t = th->begin().descriptor()->start_ticks();
      th->commit();
      return t;
    }));
  }
  {
    zl::Config cfg;
    cfg.lsa.max_threads = 2;
    cfg.lsa.cm_policy = policy;
    zl::Runtime rt(cfg);
    auto th = rt.attach();
    all.emplace_back("zl-long", ticks_of(kTx, [&] {
      const std::uint64_t t = th->begin_long().descriptor()->start_ticks();
      th->commit_long();
      return t;
    }));
  }
  return all;
}

TEST(Cm, StartOrderedPoliciesGiveIncreasingTicksOnEveryRuntime) {
  for (Policy p : {Policy::kTimestamp, Policy::kGreedy}) {
    for (const auto& [runtime, ticks] : runtime_ticks(p)) {
      ASSERT_EQ(ticks.size(), 4u);
      for (std::size_t i = 1; i < ticks.size(); ++i) {
        EXPECT_LT(ticks[i - 1], ticks[i]) << runtime << " " << policy_name(p);
      }
    }
  }
}

TEST(Cm, PoliteLeavesStartTicksAtZeroOnEveryRuntime) {
  for (const auto& [runtime, ticks] : runtime_ticks(Policy::kPolite)) {
    for (std::uint64_t t : ticks) EXPECT_EQ(t, 0u) << runtime;
  }
}

}  // namespace
}  // namespace zstm::cm

// Unit tests for the shared versioned-object substrate (src/object/):
// chain walking, locator settling, prune-vs-pinned-reader interaction
// through EBR, the adaptive-retention grow/decay transitions, and the
// open-for-write acquire loop against a scripted contention manager.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cm/contention_manager.hpp"
#include "fault/failpoint.hpp"
#include "object/object_store.hpp"
#include "runtime/payload.hpp"
#include "runtime/txdesc.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::object {
namespace {

class TestDesc final : public runtime::TxDescBase {
 public:
  using TxDescBase::TxDescBase;
};

struct TestVersionMeta {
  std::uint64_t ts = 0;
};

struct TestTraits {
  using Desc = TestDesc;
  using VersionMeta = TestVersionMeta;
  using ObjectMeta = NoMeta;
};

using Store = ObjectStore<TestTraits>;
using Version = Store::Version;
using Locator = Store::Locator;
using Object = Store::Object;

/// Test rig: registry + stats + pool + EBR + a store with the given policy
/// (same member order as the runtimes: the pool outlives the EpochManager,
/// whose drain returns nodes to it).
struct Rig {
  explicit Rig(RetentionPolicy policy)
      : registry(8), stats(registry), pool(registry, &stats), epochs(registry),
        store(pool, epochs, stats, policy) {}

  util::ThreadRegistry registry;
  util::StatsDomain stats;
  NodePool pool;
  util::EpochManager epochs;
  Store store;
};

/// Commit one new version of `o` through the full locator protocol:
/// install a writer locator, flip the descriptor to committed, settle.
/// Returns the newly committed version. The descriptor must outlive any
/// use of the locator, so the caller provides it.
Version* commit_version(Rig& rig, Object& o, TestDesc& d, std::uint64_t ts,
                        int slot, long value) {
  Locator* l = o.loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, nullptr);
  const runtime::TypedPayload<long> pv(value);
  Version* tent = rig.store.clone_version(slot, pv);
  tent->prev.store(l->committed, std::memory_order_relaxed);
  EXPECT_TRUE(rig.store.install(o, l, &d, tent, slot));
  tent->ts = ts;
  d.finish_commit();
  Locator* owned = o.loc.load(std::memory_order_acquire);
  rig.store.settle(o, owned, slot);
  return tent;
}

int chain_length(Object& o) {
  Version* v = o.loc.load(std::memory_order_acquire)->committed;
  int n = 0;
  while (v != nullptr) {
    ++n;
    v = v->prev.load(std::memory_order_acquire);
  }
  return n;
}

RetentionPolicy fixed_policy(int kept) {
  return RetentionPolicy{RetentionMode::kFixed, kept, 1, 64, 64};
}

TEST(ObjectStore, AllocateCreatesSettledInitialState) {
  Rig rig(fixed_policy(4));
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(7));
  Locator* l = o->loc.load(std::memory_order_acquire);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(l->tentative, nullptr);
  ASSERT_NE(l->committed, nullptr);
  EXPECT_EQ(runtime::payload_as<long>(*l->committed->data), 7);
  EXPECT_EQ(o->oid, 1u);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);
}

TEST(ObjectStore, SettleCommittedWriterPublishesTentative) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  TestDesc d(1, s, runtime::TxClass::kShort);
  Version* v1 = commit_version(rig, *o, d, 10, s, 42);

  Locator* l = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, nullptr);       // settled
  EXPECT_EQ(l->committed, v1);         // tentative became current
  EXPECT_EQ(runtime::payload_as<long>(*l->committed->data), 42);
  EXPECT_EQ(chain_length(*o), 2);      // v1 -> initial
}

TEST(ObjectStore, SettleAbortedWriterKeepsCommittedAndRetiresTentative) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(5));
  Locator* initial = o->loc.load(std::memory_order_acquire);
  Version* base = initial->committed;

  TestDesc d(1, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(6);
  Version* tent = rig.store.clone_version(s, pv);
  tent->prev.store(base, std::memory_order_relaxed);
  ASSERT_TRUE(rig.store.install(*o, initial, &d, tent, s));
  d.finish_abort();

  const std::uint64_t retired_before = rig.epochs.retired_count();
  rig.store.settle(*o, o->loc.load(std::memory_order_acquire), s);
  Locator* l = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(l->committed, base);  // the tentative version never published
  // Both the tentative version and the superseded locator were retired.
  EXPECT_GE(rig.epochs.retired_count(), retired_before + 2);
}

TEST(ObjectStore, InstallFailsOnStaleLocatorWithoutConsuming) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  Locator* stale = o->loc.load(std::memory_order_acquire);

  TestDesc d1(1, s, runtime::TxClass::kShort);
  commit_version(rig, *o, d1, 5, s, 1);  // moves the locator on

  TestDesc d2(2, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(2);
  Version* tent = rig.store.clone_version(s, pv);
  EXPECT_FALSE(rig.store.install(*o, stale, &d2, tent, s));
  rig.store.discard_version(s, tent);  // caller still owns it on failure
}

TEST(ObjectStore, ResolveSkipsOwnLocatorToPreWriteVersion) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(3));
  Locator* l = o->loc.load(std::memory_order_acquire);
  Version* base = l->committed;

  TestDesc d(1, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(4);
  Version* tent = rig.store.clone_version(s, pv);
  tent->prev.store(base, std::memory_order_relaxed);
  ASSERT_TRUE(rig.store.install(*o, l, &d, tent, s));

  // The owner resolves to its pre-write base; a stranger sees the same
  // because the writer is still active (invisible tentative state).
  EXPECT_EQ(rig.store.resolve(*o, &d, OnCommitting::kWait, s), base);
  EXPECT_EQ(rig.store.resolve(*o, nullptr, OnCommitting::kWait, s), base);

  d.finish_abort();
  rig.store.settle(*o, o->loc.load(std::memory_order_acquire), s);
}

TEST(ObjectStore, SuccessorOfWalksChain) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  Version* v0 = o->loc.load(std::memory_order_acquire)->committed;

  TestDesc d1(1, s, runtime::TxClass::kShort);
  Version* v1 = commit_version(rig, *o, d1, 10, s, 1);
  TestDesc d2(2, s, runtime::TxClass::kShort);
  Version* v2 = commit_version(rig, *o, d2, 20, s, 2);
  TestDesc d3(3, s, runtime::TxClass::kShort);
  Version* v3 = commit_version(rig, *o, d3, 30, s, 3);

  EXPECT_EQ(Store::successor_of(v3, v2), v3);
  EXPECT_EQ(Store::successor_of(v3, v1), v2);
  EXPECT_EQ(Store::successor_of(v3, v0), v1);
  // A version not on the chain (pruned) yields nullptr.
  Version detached(new runtime::TypedPayload<long>(99));
  EXPECT_EQ(Store::successor_of(v3, &detached), nullptr);
}

TEST(ObjectStore, PruneBoundsChainAtFixedDepth) {
  Rig rig(fixed_policy(3));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  std::vector<TestDesc*> descs;
  for (int i = 1; i <= 10; ++i) {
    auto* d = new TestDesc(static_cast<std::uint64_t>(i), s,
                           runtime::TxClass::kShort);
    descs.push_back(d);
    commit_version(rig, *o, *d, static_cast<std::uint64_t>(10 * i), s, i);
    EXPECT_LE(chain_length(*o), 3);
  }
  for (auto* d : descs) delete d;
}

TEST(ObjectStore, PrunedSuffixSurvivesWhileReaderIsPinned) {
  Rig rig(fixed_policy(1));  // aggressive pruning: single-version
  auto reader_reg = rig.registry.attach();
  auto writer_reg = rig.registry.attach();
  const int ws = writer_reg.slot();

  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(123));
  Version* old_version = o->loc.load(std::memory_order_acquire)->committed;

  // A reader pins (as every transaction attempt does) and holds a pointer
  // to the current version.
  auto guard = rig.epochs.pin_guard(reader_reg.slot());

  // A writer commits over it; prune severs the old version off the chain.
  TestDesc d(1, ws, runtime::TxClass::kShort);
  commit_version(rig, *o, d, 10, ws, 124);
  EXPECT_EQ(chain_length(*o), 1);

  // The severed version was retired but must not be freed while the reader
  // is pinned: its payload stays dereferenceable.
  for (int i = 0; i < 10; ++i) rig.epochs.collect(ws);
  EXPECT_EQ(runtime::payload_as<long>(*old_version->data), 123);
  EXPECT_LT(rig.epochs.freed_count(), rig.epochs.retired_count());

  // After the reader unpins, collection may reclaim everything retired.
  guard = util::EpochManager::Guard();
  for (int i = 0; i < 10; ++i) rig.epochs.collect(ws);
  EXPECT_EQ(rig.epochs.freed_count(), rig.epochs.retired_count());
}

TEST(ObjectStore, AdaptiveBoundDoublesOnTooOldAborts) {
  RetentionPolicy p{RetentionMode::kAdaptive, /*initial=*/1, /*min=*/1,
                    /*max=*/8, /*decay_period=*/1000};
  Rig rig(p);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  EXPECT_EQ(rig.store.kept_bound(*o), 1u);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 2u);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 8u);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 8u);  // capped at max_kept
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kRetentionGrows], 3u);
}

TEST(ObjectStore, AdaptiveBoundDecaysAfterQuiescentPrunes) {
  RetentionPolicy p{RetentionMode::kAdaptive, /*initial=*/1, /*min=*/1,
                    /*max=*/8, /*decay_period=*/3};
  Rig rig(p);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  rig.store.note_too_old(*o, s);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);

  // Each prune (triggered by every settle of a committed writer) counts
  // toward the quiescence streak; after decay_period of them the bound
  // shrinks by one.
  for (int i = 0; i < 3; ++i) rig.store.prune(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 3u);
  for (int i = 0; i < 3; ++i) rig.store.prune(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 2u);

  // A too-old abort resets the streak: two prunes, abort, two prunes — no
  // decay, and the abort doubled the bound again.
  for (int i = 0; i < 2; ++i) rig.store.prune(*o, s);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);
  for (int i = 0; i < 2; ++i) rig.store.prune(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);

  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kRetentionDecays], 2u);
}

TEST(ObjectStore, AdaptiveBoundNeverDecaysBelowFloor) {
  RetentionPolicy p{RetentionMode::kAdaptive, /*initial=*/2, /*min=*/2,
                    /*max=*/8, /*decay_period=*/1};
  Rig rig(p);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  for (int i = 0; i < 10; ++i) rig.store.prune(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 2u);
}

TEST(ObjectStore, FixedModeIgnoresTooOldFeedback) {
  Rig rig(fixed_policy(4));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  rig.store.note_too_old(*o, s);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kRetentionGrows], 0u);
}

// --- ObjectStore::acquire -------------------------------------------------

/// Replays a fixed list of decisions and records what each arbitrate call
/// saw. Running past the script throws, so a loop that arbitrates more often
/// than expected fails the test instead of hanging it.
class ScriptedCm final : public cm::ContentionManager {
 public:
  explicit ScriptedCm(std::vector<cm::Decision> script = {})
      : script_(std::move(script)) {}

  cm::Decision arbitrate(const runtime::TxDescBase& me,
                         const runtime::TxDescBase&,
                         std::uint32_t attempt) override {
    attempts.push_back(attempt);
    requester_waiting.push_back(me.waiting());
    if (attempts.size() > script_.size()) {
      throw std::logic_error("arbitrate called past the script");
    }
    return script_[attempts.size() - 1];
  }
  std::string name() const override { return "scripted"; }

  std::vector<std::uint32_t> attempts;
  std::vector<bool> requester_waiting;

 private:
  std::vector<cm::Decision> script_;
};

struct SelfAborted {};

/// Disarms every failpoint when a test that armed some ends.
struct FailpointReset {
  ~FailpointReset() { fault::registry().disarm_all(); }
};

constexpr fault::Site kSite = fault::Site::kCsAcquire;

Locator* acquire(Rig& rig, Object& o, TestDesc& self, ScriptedCm& cm,
                 int slot) {
  return rig.store.acquire(o, &self, cm, kSite, slot,
                           [] { throw SelfAborted{}; });
}

/// Installs an active writer `d` on `o` (a tentative copy of the current
/// version) and returns the base version under it.
Version* install_writer(Rig& rig, Object& o, TestDesc& d, int slot) {
  Locator* l = o.loc.load(std::memory_order_acquire);
  const runtime::TypedPayload<long> pv(99);
  Version* tent = rig.store.clone_version(slot, pv);
  tent->prev.store(l->committed, std::memory_order_relaxed);
  EXPECT_TRUE(rig.store.install(o, l, &d, tent, slot));
  return l->committed;
}

TEST(ObjectStoreAcquire, ReturnsAtOnceWithoutForeignWriter) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  TestDesc self(1, s, runtime::TxClass::kShort);
  ScriptedCm cm;

  Locator* settled = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(acquire(rig, *o, self, cm, s), settled);  // no writer

  install_writer(rig, *o, self, s);
  Locator* own = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(acquire(rig, *o, self, cm, s), own);  // our own writer
  EXPECT_TRUE(cm.attempts.empty());

  self.finish_abort();
  rig.store.release(*o, &self, s);
}

TEST(ObjectStoreAcquire, SettlesCommittedWriter) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  TestDesc other(1, s, runtime::TxClass::kShort);
  TestDesc self(2, s, runtime::TxClass::kShort);
  ScriptedCm cm;

  install_writer(rig, *o, other, s);
  Version* tent = o->loc.load(std::memory_order_acquire)->tentative;
  other.finish_commit();

  Locator* l = acquire(rig, *o, self, cm, s);
  EXPECT_EQ(l, o->loc.load(std::memory_order_acquire));  // the new locator
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(l->committed, tent);  // the writer's version became current
  EXPECT_TRUE(cm.attempts.empty());
}

TEST(ObjectStoreAcquire, SettlesAbortedWriter) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  TestDesc other(1, s, runtime::TxClass::kShort);
  TestDesc self(2, s, runtime::TxClass::kShort);
  ScriptedCm cm;

  Version* base = install_writer(rig, *o, other, s);
  other.finish_abort();

  Locator* l = acquire(rig, *o, self, cm, s);
  EXPECT_EQ(l, o->loc.load(std::memory_order_acquire));
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(l->committed, base);  // the tentative version never published
  EXPECT_TRUE(cm.attempts.empty());
}

TEST(ObjectStoreAcquire, AbortOtherKillsAndSettlesInTheSamePass) {
  FailpointReset reset;
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  TestDesc other(1, s, runtime::TxClass::kShort);
  TestDesc self(2, s, runtime::TxClass::kShort);
  ScriptedCm cm({cm::Decision::kAbortOther});

  Version* base = install_writer(rig, *o, other, s);
  // Armed at probability 0: never fires, but counts the loop's passes.
  ASSERT_TRUE(fault::registry().arm(kSite, 0.0));

  Locator* l = acquire(rig, *o, self, cm, s);
  EXPECT_EQ(other.status(), runtime::TxStatus::kAborted);
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(l->committed, base);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kCmKills], 1u);
  EXPECT_EQ(cm.attempts.size(), 1u);
  // The killer settles the victim's locator itself: arbitrate-and-kill,
  // then one more pass that finds the object free.
  EXPECT_EQ(fault::registry().hits(kSite), 2u);
}

TEST(ObjectStoreAcquire, AbortSelfInvokesTheAbortPath) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  TestDesc other(1, s, runtime::TxClass::kShort);
  TestDesc self(2, s, runtime::TxClass::kShort);
  ScriptedCm cm({cm::Decision::kAbortSelf});

  install_writer(rig, *o, other, s);
  EXPECT_THROW(acquire(rig, *o, self, cm, s), SelfAborted);
  EXPECT_EQ(other.status(), runtime::TxStatus::kActive);  // not killed
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kCmKills], 0u);

  other.finish_abort();
  rig.store.release(*o, &other, s);
}

TEST(ObjectStoreAcquire, WaitCountsAndClearsWaitingBeforeRetrying) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  TestDesc other(1, s, runtime::TxClass::kShort);
  TestDesc self(2, s, runtime::TxClass::kShort);
  ScriptedCm cm({cm::Decision::kWait, cm::Decision::kAbortOther});

  install_writer(rig, *o, other, s);
  Locator* l = acquire(rig, *o, self, cm, s);
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kCmWaits], 1u);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kCmKills], 1u);
  // The same conflict is re-examined with a growing attempt count, and the
  // requester is not left flagged as waiting at any arbitration or after.
  EXPECT_EQ(cm.attempts, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(cm.requester_waiting, (std::vector<bool>{false, false}));
  EXPECT_FALSE(self.waiting());
}

TEST(ObjectStoreAcquire, InjectedAbortFiresOnlyAtThePassedSite) {
  FailpointReset reset;
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  TestDesc self(1, s, runtime::TxClass::kShort);
  ScriptedCm cm;

  // Another runtime's acquire site, armed at probability 0, only counts.
  ASSERT_TRUE(fault::registry().arm(fault::Site::kLsaAcquire, 0.0));
  ASSERT_TRUE(fault::registry().arm(kSite, 1.0, 0, fault::Effect::kAbort));

  EXPECT_THROW(acquire(rig, *o, self, cm, s), SelfAborted);
  EXPECT_EQ(fault::registry().triggers(kSite), 1u);
  EXPECT_EQ(fault::registry().hits(fault::Site::kLsaAcquire), 0u);
  EXPECT_TRUE(cm.attempts.empty());
}

}  // namespace
}  // namespace zstm::object

// ObjectStore — ownership and protocol core of the versioned-object
// substrate (versioned.hpp), shared by the five object-based runtimes.
//
// One store per runtime owns every transactional object for the runtime's
// lifetime and centralizes the logic that used to be copy-pasted per
// runtime:
//
//   * allocate / make_var  — object + initial version + settled locator.
//   * resolve              — settle-on-open: find the logically current
//                            committed version, settling finished writers'
//                            locators along the way.
//   * settle               — replace a finished writer's locator with a
//                            settled one (CAS; loser frees its copy).
//   * acquire              — open-for-write: loop until the object has no
//                            foreign writer, settling finished writers and
//                            arbitrating active ones through the contention
//                            manager (CS-STM Algorithm 1 lines 10-12, Z-STM
//                            Openlong lines 8-11). The one copy of the
//                            writer-status/arbitrate switch.
//   * install              — CAS a fresh writer locator in (encounter-time
//                            ownership acquisition); memory order is a
//                            parameter because Z-STM's zone protocol needs
//                            the install globally ordered (seq_cst Dekker
//                            pair, DESIGN.md §5.1).
//   * prune                — bound the committed chain, retiring detached
//                            suffixes through EBR.
//   * successor_of         — chain walking: the immediate successor of a
//                            read version (validation / snapshot-extension
//                            helper).
//
// All version/locator retirement flows through the one EpochManager passed
// at construction — the single EBR integration point (DESIGN.md §3,
// substitutions table: EBR stands in for the paper's JVM garbage
// collector).
//
// Memory (DESIGN.md §7): every Version and Locator is carved from the
// NodePool passed at construction, and retirement returns nodes to the
// pool's per-slot free lists instead of the global heap. Speculative
// locators (settle/install CAS candidates) additionally bounce through a
// per-slot spare cache so a failed CAS costs a field rewrite, not a
// delete+new. With the pool disabled (ZSTM_POOL=0) everything degrades to
// plain new/delete.
//
// Version retention (paper §4.4) is a per-store policy. kFixed keeps the
// classic global bound (Config::versions_kept). kAdaptive replaces it with
// a *per-object* bound that doubles when a transaction aborts because the
// version it needed was already pruned (note_too_old) and decays by one
// after `decay_period` consecutive prunes without such an abort — objects
// that long transactions scan grow deep histories, write-only hot spots
// shrink to nearly single-version storage.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "cm/contention_manager.hpp"
#include "fault/failpoint.hpp"
#include "object/node_pool.hpp"
#include "object/versioned.hpp"
#include "runtime/payload.hpp"
#include "runtime/txdesc.hpp"
#include "util/backoff.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"

namespace zstm::object {

/// How to treat an object whose writer is mid-commit (kCommitting): reads
/// wait (the window is short and its stamp may already be drawn); commit
/// validation fails fast instead, which prevents two committing
/// transactions from waiting on each other.
enum class OnCommitting { kWait, kFail };

enum class RetentionMode {
  kFixed,     ///< global bound: Config::versions_kept
  kAdaptive,  ///< per-object bound; grows on too-old aborts, decays when quiet
};

struct RetentionPolicy {
  RetentionMode mode = RetentionMode::kFixed;
  /// Bound in kFixed mode; initial per-object bound in kAdaptive mode.
  int initial = 8;
  /// Adaptive floor/ceiling for the per-object bound.
  int min_kept = 1;
  int max_kept = 64;
  /// Adaptive decay: consecutive prunes without a too-old abort before the
  /// bound shrinks by one.
  int decay_period = 64;
};

/// Builds the store policy from the retention knobs every runtime Config in
/// this library shares (versions_kept, retention_mode, retention_min/max,
/// retention_decay_period).
template <typename Cfg>
RetentionPolicy retention_policy(const Cfg& cfg) {
  return RetentionPolicy{cfg.retention_mode, cfg.versions_kept,
                         cfg.retention_min, cfg.retention_max,
                         cfg.retention_decay_period};
}

/// Traits must provide:
///   Desc        — the runtime's transaction descriptor (derives
///                 runtime::TxDescBase; only status() is used here).
///   VersionMeta — per-version metadata (aggregate; brace-initialized from
///                 the trailing arguments of allocate/make_var).
///   ObjectMeta  — per-object metadata (default-constructed).
template <typename Traits>
class ObjectStore {
 public:
  using Desc = typename Traits::Desc;
  using Version = object::Version<typename Traits::VersionMeta>;
  using Locator = object::Locator<Desc, Version>;
  using Object = object::Object<typename Traits::ObjectMeta, Locator>;
  template <typename T>
  using Var = object::Var<T, Object>;

  ObjectStore(NodePool& pool, util::EpochManager& epochs,
              util::StatsDomain& stats, RetentionPolicy retention)
      : pool_(pool),
        epochs_(epochs),
        stats_(stats),
        retention_(retention),
        spare_(static_cast<std::size_t>(pool.capacity())) {
    // Normalize so the unsigned bound arithmetic below stays sane: at least
    // one version is always kept (matching the old per-runtime prune loops,
    // which degraded to single-version for versions_kept <= 0).
    if (retention_.min_kept < 1) retention_.min_kept = 1;
    if (retention_.initial < retention_.min_kept) {
      retention_.initial = retention_.min_kept;
    }
    if (retention_.max_kept < retention_.initial) {
      retention_.max_kept = retention_.initial;
    }
    if (retention_.decay_period < 1) retention_.decay_period = 1;
  }

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Single-threaded teardown: all worker threads must be detached. Retired
  /// locators/versions are freed by the EpochManager's destructor
  /// (drain_all) — disjoint from the live structures destroyed here. The
  /// NodePool outlives both (declared before the EpochManager in every
  /// runtime), so returning nodes here is safe.
  ~ObjectStore() {
    for (auto& padded : spare_) {
      if (padded.value != nullptr) pool_.destroy(-1, padded.value);
    }
    for (auto& obj : objects_) {
      Locator* l = obj->loc.load(std::memory_order_relaxed);
      if (l == nullptr) continue;
      if (l->writer != nullptr && l->tentative != nullptr) {
        if (l->writer->status(std::memory_order_relaxed) ==
            runtime::TxStatus::kCommitted) {
          // The tentative version heads the chain (its prev is `committed`).
          free_chain_now(l->tentative);
        } else {
          pool_.destroy(-1, l->tentative);
          free_chain_now(l->committed);
        }
      } else {
        free_chain_now(l->committed);
      }
      pool_.destroy(-1, l);
    }
  }

  /// Create an object whose initial version holds `initial` and whose
  /// version metadata is brace-initialized from `meta_args`. Callers are
  /// typically not attached to a slot, so the nodes are individually
  /// allocated (cold path) but still pool-tagged for uniform release.
  template <typename... MetaArgs>
  Object* allocate(runtime::Payload* initial, MetaArgs&&... meta_args) {
    // ts/ct = zero-state, vid = 0: the initial state.
    auto* version =
        pool_.create<Version>(-1, initial, std::forward<MetaArgs>(meta_args)...);
    auto* locator = pool_.create<Locator>(-1);
    locator->committed = version;
    auto obj = std::make_unique<Object>();
    obj->loc.store(locator, std::memory_order_release);
    obj->oid = object_ids_.value.fetch_add(1, std::memory_order_relaxed) + 1;
    obj->keep.store(static_cast<std::uint32_t>(retention_.initial),
                    std::memory_order_relaxed);
    Object* raw = obj.get();
    {
      std::lock_guard<std::mutex> lk(objects_mutex_);
      objects_.push_back(std::move(obj));
    }
    return raw;
  }

  /// Visit every object ever allocated by this store (quiescence hooks:
  /// S-STM's descriptor trim settles all locators through here). Holds the
  /// allocation mutex for the duration — callers must be off the hot path.
  template <typename F>
  void for_each_object(F&& fn) {
    std::lock_guard<std::mutex> lk(objects_mutex_);
    for (auto& obj : objects_) fn(*obj);
  }

  template <typename T, typename... MetaArgs>
  Var<T> make_var(T initial, MetaArgs&&... meta_args) {
    Object* o = allocate(new runtime::TypedPayload<T>(std::move(initial)),
                         std::forward<MetaArgs>(meta_args)...);
    return Var<T>(o);
  }

  /// Resolve the logically current committed version of `o`, settling
  /// finished writers' locators along the way. Returns nullptr only in
  /// OnCommitting::kFail mode when a foreign writer is mid-commit.
  /// `self` (may be null) marks the caller's descriptor: an object whose
  /// locator the caller owns resolves to its pre-write committed version.
  Version* resolve(Object& o, const Desc* self, OnCommitting mode, int slot) {
    util::Backoff bo;
    for (;;) {
      Locator* l = o.loc.load(std::memory_order_acquire);
      if (l->writer == nullptr || l->writer == self) return l->committed;
      switch (l->writer->status()) {
        case runtime::TxStatus::kActive:
          // Tentative writes are invisible until the writer commits.
          return l->committed;
        case runtime::TxStatus::kCommitting:
          // Its commit stamp may already be drawn; the pending version
          // could be valid at our snapshot time, so we cannot just take
          // l->committed. Wait out the short commit window (reads) or
          // report the hazard (commit-time validation).
          if (mode == OnCommitting::kFail) return nullptr;
          bo.pause();
          continue;
        case runtime::TxStatus::kCommitted:
        case runtime::TxStatus::kAborted:
          settle(o, l, slot);
          continue;
      }
    }
  }

  /// Open `o` for writing by `self`: returns a locator whose writer is null
  /// or `self`, so the caller may clone `committed` and install() over it.
  /// Every pass pokes `site` (the runtime's acquire failpoint); committed or
  /// aborted writers are settled, a committing writer is waited out, and an
  /// active writer is arbitrated through `cm` — a single writer per object,
  /// the contention manager deciding (CS-STM Algorithm 1 lines 10-12, Z-STM
  /// Openlong lines 8-11). `abort_self` must not return (it throws the
  /// runtime's abort); it runs on an injected abort and on kAbortSelf.
  /// `load_order` lets Z-STM's long transactions make the locator load
  /// seq_cst (second half of the Dekker pair with their zone claim,
  /// DESIGN.md §5.1).
  template <typename AbortSelf>
  Locator* acquire(Object& o, Desc* self, cm::ContentionManager& cm,
                   fault::Site site, int slot, AbortSelf&& abort_self,
                   std::memory_order load_order = std::memory_order_acquire) {
    util::Backoff bo;
    std::uint32_t attempt = 0;
    for (;;) {
      if (fault::poke(site) == fault::Effect::kAbort) abort_self();
      Locator* l = o.loc.load(load_order);
      if (l->writer == nullptr || l->writer == self) return l;
      switch (l->writer->status()) {
        case runtime::TxStatus::kCommitted:
        case runtime::TxStatus::kAborted:
          settle(o, l, slot);
          continue;
        case runtime::TxStatus::kCommitting:
          bo.pause();  // short window; its outcome decides our base version
          continue;
        case runtime::TxStatus::kActive: {
          const cm::Decision d = cm.arbitrate(*self, *l->writer, attempt++);
          if (d == cm::Decision::kAbortOther) {
            if (l->writer->abort_by_enemy()) {
              stats_.add(slot, util::Counter::kCmKills);
              settle(o, l, slot);
            }
            continue;
          }
          if (d == cm::Decision::kAbortSelf) abort_self();
          stats_.add(slot, util::Counter::kCmWaits);
          self->set_waiting(true);
          bo.pause();
          self->set_waiting(false);
          continue;
        }
      }
    }
  }

  /// Clone the current payload into a fresh pooled Version for slot's
  /// thread (the writer's private duplicate). Inline payload when it fits;
  /// type-erased heap clone as fallback.
  template <typename... MetaArgs>
  Version* clone_version(int slot, const runtime::Payload& src,
                         MetaArgs&&... meta_args) {
    return pool_.create<Version>(slot, runtime::ClonePayload{src},
                                 std::forward<MetaArgs>(meta_args)...);
  }

  /// Return a never-published version (failed install, aborted before
  /// install) straight to the pool — no grace period needed.
  void discard_version(int slot, Version* v) { pool_.destroy(slot, v); }

  /// Replace a finished (committed/aborted) writer's locator with a settled
  /// one. Safe to call concurrently; no-op if the locator moved on.
  void settle(Object& o, Locator* seen, int slot) {
    if (seen->writer == nullptr) return;
    const runtime::TxStatus st = seen->writer->status();
    if (st != runtime::TxStatus::kCommitted &&
        st != runtime::TxStatus::kAborted) {
      return;
    }
    Version* current = (st == runtime::TxStatus::kCommitted)
                           ? seen->tentative
                           : seen->committed;
    Locator* settled = take_spare_locator(slot);
    settled->writer = nullptr;
    settled->tentative = nullptr;
    settled->committed = current;
    if (fault::poke(fault::Site::kStoreSettleCas) ==
        fault::Effect::kCasFail) {
      put_spare_locator(slot, settled);  // behave exactly like a lost CAS
      return;
    }
    Locator* expected = seen;
    if (o.loc.compare_exchange_strong(expected, settled,
                                      std::memory_order_acq_rel)) {
      if (st == runtime::TxStatus::kAborted) {
        // The tentative version never became visible; only the settling
        // winner retires it, so it is retired exactly once.
        retire_version(slot, seen->tentative);
      }
      retire_locator(slot, seen);
      prune(o, slot);
    } else {
      put_spare_locator(slot, settled);
    }
  }

  /// Release an ownership at transaction finish: settle until the locator
  /// no longer references `writer`. One settle() suffices against real
  /// races (a lost CAS means another thread already replaced the locator),
  /// but the settle-CAS failpoint fails the CAS with the locator left in
  /// place — and the finishing transaction's descriptor is retired (and
  /// pool-reused) right after release, so a locator still pointing at it
  /// would let a later settler read the *reused* descriptor's status and
  /// resurrect a superseded version. The loop, not any single CAS attempt,
  /// is the invariant the retirement relies on.
  void release(Object& o, const Desc* writer, int slot) {
    for (;;) {
      Locator* l = o.loc.load(std::memory_order_acquire);
      if (l->writer != writer) return;
      settle(o, l, slot);
    }
  }

  /// Acquire write ownership: CAS `{writer, tentative, seen->committed}`
  /// over `seen`. On success the superseded locator is retired; on failure
  /// nothing is consumed (the caller still owns `tentative`, and the
  /// speculative locator goes back to the slot's spare cache for the next
  /// retry). `order` lets Z-STM make the install seq_cst (Dekker pair with
  /// zone claims).
  bool install(Object& o, Locator* seen, Desc* writer, Version* tentative,
               int slot, std::memory_order order = std::memory_order_acq_rel) {
    Locator* nl = take_spare_locator(slot);
    nl->writer = writer;
    nl->tentative = tentative;
    nl->committed = seen->committed;
    if (fault::poke(fault::Site::kStoreInstallCas) ==
        fault::Effect::kCasFail) {
      put_spare_locator(slot, nl);  // behave exactly like a lost CAS
      return false;
    }
    Locator* expected = seen;
    if (o.loc.compare_exchange_strong(expected, nl, order)) {
      retire_locator(slot, seen);
      return true;
    }
    put_spare_locator(slot, nl);
    return false;
  }

  /// Bound the committed chain at the object's current retention bound and
  /// retire any detached suffix. Concurrent pruners obtain disjoint
  /// suffixes because the severing exchange hands out each link exactly
  /// once.
  void prune(Object& o, int slot) {
    note_quiescent(o, slot);
    Locator* l = o.loc.load(std::memory_order_acquire);
    Version* v = l->committed;
    if (v == nullptr) return;
    const std::uint32_t bound = kept_bound(o);
    for (std::uint32_t depth = 1; depth < bound && v != nullptr; ++depth) {
      v = v->prev.load(std::memory_order_acquire);
    }
    if (v == nullptr) return;
    Version* suffix = v->prev.exchange(nullptr, std::memory_order_acq_rel);
    if (suffix == nullptr) return;
    // Retire the whole detached suffix as one unit.
    if (pool_.enabled()) {
      epochs_.retire_raw(slot, suffix, [](void* p, int s) {
        Version* v2 = static_cast<Version*>(p);
        while (v2 != nullptr) {
          Version* older = v2->prev.load(std::memory_order_relaxed);
          v2->~Version();
          NodePool::release_block(v2, s);
          v2 = older;
        }
      });
    } else {
      epochs_.retire_raw(slot, suffix, [](void* p, int) {
        destroy_chain(static_cast<Version*>(p));
      });
    }
  }

  /// Walk newest-first from `cur` to the immediate successor of `read`.
  /// Returns nullptr when `read` is no longer on the chain (pruned) — the
  /// caller cannot bound the read version's validity and must abort
  /// conservatively (and should report note_too_old).
  static Version* successor_of(Version* cur, const Version* read) {
    Version* succ = cur;
    Version* below = succ->prev.load(std::memory_order_acquire);
    while (below != nullptr && below != read) {
      succ = below;
      below = succ->prev.load(std::memory_order_acquire);
    }
    return below == nullptr ? nullptr : succ;
  }

  /// A transaction aborted because a version of `o` it needed was already
  /// pruned. Adaptive mode doubles the object's retention bound (up to
  /// max_kept) and resets its quiet streak; fixed mode is a no-op.
  void note_too_old(Object& o, int slot) {
    if (retention_.mode != RetentionMode::kAdaptive) return;
    o.quiet.store(0, std::memory_order_relaxed);
    const std::uint32_t k = o.keep.load(std::memory_order_relaxed);
    const std::uint32_t grown =
        std::min<std::uint32_t>(static_cast<std::uint32_t>(retention_.max_kept),
                                std::max<std::uint32_t>(k, 1) * 2);
    if (grown > k) {
      o.keep.store(grown, std::memory_order_relaxed);
      stats_.add(slot, util::Counter::kRetentionGrows);
    }
  }

  /// Current retention bound of `o` (fixed: the policy constant).
  std::uint32_t kept_bound(const Object& o) const {
    return retention_.mode == RetentionMode::kAdaptive
               ? o.keep.load(std::memory_order_relaxed)
               : static_cast<std::uint32_t>(retention_.initial);
  }

  const RetentionPolicy& retention() const { return retention_; }
  NodePool& pool() { return pool_; }

  static void destroy_chain(Version* v) {
    while (v != nullptr) {
      Version* p = v->prev.load(std::memory_order_relaxed);
      delete v;
      v = p;
    }
  }

  /// Retire a version/locator through EBR with the matching free path
  /// (pool return or delete). Exposed for runtimes retiring descriptors
  /// alongside (lsa/cs pool those through the same NodePool).
  void retire_version(int slot, Version* v) {
    if (pool_.enabled()) {
      epochs_.retire_raw(slot, v, &NodePool::ebr_destroy<Version>);
    } else {
      epochs_.retire(slot, v);
    }
  }
  void retire_locator(int slot, Locator* l) {
    if (pool_.enabled()) {
      epochs_.retire_raw(slot, l, &NodePool::ebr_destroy<Locator>);
    } else {
      epochs_.retire(slot, l);
    }
  }

 private:
  /// One more prune without a too-old abort; after decay_period of them the
  /// adaptive bound shrinks by one (floor min_kept). The counters race
  /// benignly: both are bounded and monotone between resets.
  void note_quiescent(Object& o, int slot) {
    if (retention_.mode != RetentionMode::kAdaptive) return;
    const std::uint32_t q = o.quiet.fetch_add(1, std::memory_order_relaxed) + 1;
    if (q < static_cast<std::uint32_t>(retention_.decay_period)) return;
    o.quiet.store(0, std::memory_order_relaxed);
    const std::uint32_t k = o.keep.load(std::memory_order_relaxed);
    if (k > static_cast<std::uint32_t>(retention_.min_kept)) {
      o.keep.store(k - 1, std::memory_order_relaxed);
      stats_.add(slot, util::Counter::kRetentionDecays);
    }
  }

  /// One cached speculative locator per slot: a failed settle/install CAS
  /// parks its locator here and the next attempt reuses it, so retry churn
  /// costs three field stores instead of an allocate/free round trip.
  Locator* take_spare_locator(int slot) {
    if (slot < 0) return pool_.create<Locator>(slot);
    Locator*& sp = spare_[static_cast<std::size_t>(slot)].value;
    if (sp != nullptr) {
      Locator* l = sp;
      sp = nullptr;
      return l;
    }
    return pool_.create<Locator>(slot);
  }
  void put_spare_locator(int slot, Locator* l) {
    if (slot >= 0) {
      Locator*& sp = spare_[static_cast<std::size_t>(slot)].value;
      if (sp == nullptr) {
        sp = l;
        return;
      }
    }
    pool_.destroy(slot, l);
  }

  void free_chain_now(Version* v) {
    while (v != nullptr) {
      Version* p = v->prev.load(std::memory_order_relaxed);
      pool_.destroy(-1, v);
      v = p;
    }
  }

  NodePool& pool_;
  util::EpochManager& epochs_;
  util::StatsDomain& stats_;
  RetentionPolicy retention_;
  std::vector<util::Padded<Locator*>> spare_;
  util::PaddedCounter object_ids_;
  std::mutex objects_mutex_;
  std::deque<std::unique_ptr<Object>> objects_;
};

}  // namespace zstm::object

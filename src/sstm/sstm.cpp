#include "sstm/sstm.hpp"

#include <algorithm>

#include "fault/failpoint.hpp"

namespace zstm::sstm {

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg)
    : cfg_(cfg),
      domain_(cfg.max_threads),
      registry_(cfg.max_threads),
      stats_(registry_),
      pool_(registry_, &stats_, cfg.use_node_pool),
      epochs_(registry_, cfg.ebr_collect_period),
      recorder_(cfg.record_history, cfg.max_threads),
      cm_(cm::make_manager(cfg.cm_policy)),
      id_clock_(cfg.max_threads, /*shards=*/cfg.max_threads),
      sharded_ids_(timebase::sharded_ids_enabled(cfg.sharded_tx_ids)),
      store_(pool_, epochs_, stats_, object::retention_policy(cfg)) {}

// The store tears down the live objects; runtime-retained descriptors are
// freed with descs_.
Runtime::~Runtime() = default;

TxDesc* Runtime::allocate_desc(int slot) {
  // Ids are identity only (ordering lives in the vector clocks), so the
  // topology-sharded clock may serve them.
  const std::uint64_t id =
      sharded_ids_ ? id_clock_.unique_id(slot)
                   : tx_ids_.value.fetch_add(1, std::memory_order_relaxed) + 1;
  TxDesc* raw = pool_.create<TxDesc>(slot, id, slot, domain_.zero());
  {
    std::lock_guard<std::mutex> lk(descs_mutex_);
    descs_.live.push_back(raw);
  }
  return raw;
}

std::size_t Runtime::descriptor_count() {
  std::lock_guard<std::mutex> lk(descs_mutex_);
  return descs_.live.size();
}

std::size_t Runtime::trim_descriptors() {
  std::scoped_lock lk(descs_mutex_, commit_mutex_);
  // Failpoints stay out of maintenance: an injected settle-CAS failure
  // here would leave a locator referencing a descriptor we free below.
  fault::SuppressGuard suppress;

  // Quiescence check. Every attempt holds an epoch pin from begin() to
  // finish_attempt(), and begin() allocates its descriptor (blocking on
  // descs_mutex_, which we hold) *before* pinning — so "nothing pinned and
  // every retained descriptor final" cannot be invalidated while we work.
  // The descriptor scan additionally covers a thread inside allocate_desc's
  // pre-pin window: its descriptor is already kActive.
  for (int s = 0; s < cfg_.max_threads; ++s) {
    if (epochs_.pinned(s)) return 0;
  }
  for (TxDesc* d : descs_.live) {
    const runtime::TxStatus st = d->status();
    if (st != runtime::TxStatus::kCommitted &&
        st != runtime::TxStatus::kAborted) {
      return 0;
    }
  }

  // Fold every reader-list reference into per-version stamps. At
  // quiescence a committed reader's predecessor closure is all-final, so
  // its whole constraint reduces to a stamp merge (exactly
  // note_predecessor's committed case); aborted readers carry none.
  // Folding readers and past readers into one stamp is conservative for
  // future *readers* of the version (they inherit reader-vs-reader
  // constraints that never existed), which can only inflate timestamps and
  // cause false aborts — never admit a non-serializable history.
  std::vector<TxDesc*> work;
  std::vector<TxDesc*> visited;
  auto fold_into = [&](timebase::VcStamp& folded, TxDesc* r) {
    work.clear();
    visited.clear();
    work.push_back(r);
    while (!work.empty()) {
      TxDesc* cur = work.back();
      work.pop_back();
      bool seen = false;
      for (TxDesc* q : visited) seen |= (q == cur);
      if (seen) continue;
      visited.push_back(cur);
      if (cur->status() != runtime::TxStatus::kCommitted) continue;
      if (folded.dimension() == 0) {
        folded = cur->ct;
      } else {
        folded.merge(cur->ct);
      }
      for (TxDesc* q : cur->preds_snapshot()) work.push_back(q);
    }
  };
  store_.for_each_object([&](Object& o) {
    // Settle any leftover locator first (a racing settle CAS may have been
    // lost — or failpoint-suppressed — on the final attempt touching o),
    // so no locator keeps a writer pointer into the freed descriptors.
    Locator* l = o.loc.load(std::memory_order_acquire);
    if (l->writer != nullptr) {
      store_.settle(o, l, /*slot=*/0);
      l = o.loc.load(std::memory_order_acquire);
    }
    for (Version* v = l->committed; v != nullptr;
         v = v->prev.load(std::memory_order_acquire)) {
      for (TxDesc* r : v->readers) fold_into(v->folded, r);
      for (TxDesc* pr : v->past_readers) fold_into(v->folded, pr);
      v->readers.clear();
      v->readers.shrink_to_fit();
      v->past_readers.clear();
      v->past_readers.shrink_to_fit();
    }
  });

  const std::size_t freed = descs_.live.size();
  for (TxDesc* d : descs_.live) pool_.destroy(-1, d);
  descs_.live.clear();
  return freed;
}

std::unique_ptr<ThreadCtx> Runtime::attach() {
  return std::unique_ptr<ThreadCtx>(new ThreadCtx(*this, registry_.attach()));
}

bool Runtime::reaches(TxDesc* from, const TxDesc* target, int max_nodes) {
  // Iterative search with an explicit visited set: predecessor graphs can
  // contain cycles (that is exactly what this function detects), and a
  // depth-bounded DFS without memoization goes exponential on them — while
  // holding the commit mutex. Linear-scan membership is fine: the live
  // transaction population is bounded by the thread count.
  std::vector<TxDesc*> work{from};
  std::vector<const TxDesc*> visited;
  while (!work.empty()) {
    TxDesc* cur = work.back();
    work.pop_back();
    if (cur == target) return true;
    bool seen = false;
    for (const TxDesc* q : visited) seen |= (q == cur);
    if (seen) continue;
    visited.push_back(cur);
    if (static_cast<int>(visited.size()) > max_nodes) return false;
    // Only live transactions are expanded: a committed predecessor's
    // ordering constraints were folded into timestamps by the merge rules.
    const runtime::TxStatus st = cur->status();
    if (st != runtime::TxStatus::kActive &&
        st != runtime::TxStatus::kCommitting) {
      continue;
    }
    for (TxDesc* p : cur->preds_snapshot()) work.push_back(p);
  }
  return false;
}

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

ThreadCtx::ThreadCtx(Runtime& rt, util::ThreadRegistry::Registration reg)
    : rt_(rt), reg_(std::move(reg)), tx_(*this), vcp_(rt.domain_.zero()) {}

ThreadCtx::~ThreadCtx() {
  if (in_transaction()) abort_attempt();
}

Tx& ThreadCtx::begin() {
  if (in_transaction()) abort_attempt();
  tx_.desc_ = rt_.allocate_desc(slot());
  tx_.desc_->ct = vcp_;  // T.ct starts from the thread's last committed stamp
  tx_.desc_->set_start_ticks(
      rt_.ticks_.value.fetch_add(1, std::memory_order_relaxed));
  epoch_guard_ = rt_.epochs_.pin_guard(slot());
  tx_.read_set_.clear();
  tx_.write_set_.clear();
  if (rt_.recorder_.enabled()) {
    tx_.rec_ = history::TxRecord{};
    tx_.rec_.tx_id = tx_.desc_->id();
    tx_.rec_.thread_slot = slot();
    tx_.rec_.begin_seq = rt_.recorder_.tick();
  }
  return tx_;
}

void ThreadCtx::release_ownerships() {
  for (auto& w : tx_.write_set_) {
    rt_.store_.release(*w.obj, tx_.desc_, slot());
  }
}

void ThreadCtx::finish_attempt(bool committed) {
  if (rt_.recorder_.enabled()) {
    tx_.rec_.committed = committed;
    tx_.rec_.end_seq = rt_.recorder_.tick();
    if (committed) {
      tx_.rec_.stamp.clear();
      for (int k = 0; k < tx_.desc_->ct.dimension(); ++k) {
        tx_.rec_.stamp.push_back(tx_.desc_->ct[k]);
      }
    }
    rt_.recorder_.record(slot(), std::move(tx_.rec_));
  }
  tx_.desc_ = nullptr;  // retained until a quiescent trim, not freed here
  epoch_guard_ = util::EpochManager::Guard();
}

void ThreadCtx::abort_attempt() {
  tx_.desc_->finish_abort();
  release_ownerships();
  rt_.stats_.add(slot(), util::Counter::kAborts);
  finish_attempt(false);
}

void ThreadCtx::commit() {
  Tx& tx = tx_;
  TxDesc* d = tx.desc_;
  const int s = slot();

  if (!d->begin_commit()) {
    abort_attempt();
    throw TxAborted{};
  }

  {
    std::lock_guard<std::mutex> commit_lock(rt_.commit_mutex_);

    // Anti-dependencies: scan the visible readers of every version we are
    // superseding. Committed readers order themselves before us via
    // timestamp merge; live readers become predecessor edges and are
    // carried on the new version as its past readers.
    for (auto& w : tx.write_set_) {
      Version* base = w.tentative->prev.load(std::memory_order_relaxed);
      std::vector<TxDesc*> snapshot;
      {
        std::lock_guard<util::SpinLock> lk(base->readers_lock);
        auto& rs = base->readers;
        snapshot.assign(rs.begin(), rs.end());
        // Drop only *aborted* readers here. Committed readers must stay on
        // the list until a successor commit actually captures their stamp:
        // if we compacted them now and then failed validation, the next
        // writer of this version would never merge their timestamps and
        // could commit a non-serializable anti-dependency cycle.
        rs.erase(std::remove_if(rs.begin(), rs.end(),
                                [](TxDesc* r) {
                                  return r->status() ==
                                         runtime::TxStatus::kAborted;
                                }),
                 rs.end());
      }
      // Readers of the superseded version must precede us; the version's
      // carried past readers too (§4.2: "information about past readers is
      // carried along causal chains"). note_predecessor folds committed
      // ones (and their pending constraints, transitively) into our stamp
      // and records live ones as predecessor edges.
      for (TxDesc* r : snapshot) tx.note_predecessor(r);
      for (TxDesc* pr : base->past_readers) tx.note_predecessor(pr);
      // Readers freed by a quiescent trim live on as the version's folded
      // stamp (see absorb_past_readers for the dimension guard).
      if (base->folded.dimension() != 0) d->ct.merge(base->folded);
    }

    // Re-process predecessors recorded earlier (at open time): any that
    // committed meanwhile fold into the timestamp now.
    for (TxDesc* p : d->preds_snapshot()) tx.note_predecessor(p);

    // CS-STM validation (Algorithm 1, lines 20-26) on the merged stamp.
    bool valid = true;
    for (const auto& r : tx.read_set_) {
      Version* cur = rt_.resolve(*r.obj, d, OnCommitting::kFail, s);
      if (cur == nullptr) {
        valid = false;
        break;
      }
      if (cur == r.version) continue;
      Version* succ = Store::successor_of(cur, r.version);
      if (succ == nullptr) {
        // Pruned: conservative abort.
        rt_.store_.note_too_old(*r.obj, s);
        valid = false;
        break;
      }
      // ≼, not ≺: see the matching comment in cs.hpp — equality means we
      // observed the successor's effects through another object.
      const timebase::Order ord = succ->ct.compare(d->ct);
      if (ord == timebase::Order::kBefore || ord == timebase::Order::kEqual) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      rt_.stats_.add(s, util::Counter::kValidationFails);
      abort_attempt();
      throw TxAborted{};
    }

    // Precedence-cycle check among live transactions: if any live
    // predecessor transitively requires *us* before *it*, the two orders
    // are contradictory — "a conflict occurs if we detect a cycle". The
    // first committer wins: kill the still-active cycle partner, falling
    // back to self-abort if it is already mid-commit.
    for (TxDesc* p : d->preds_snapshot()) {
      const auto st = p->status();
      if (st != runtime::TxStatus::kActive &&
          st != runtime::TxStatus::kCommitting) {
        continue;
      }
      if (p != d && Runtime::reaches(p, d, 4096)) {
        if (p->abort_by_enemy()) {
          rt_.stats_.add(s, util::Counter::kCmKills);
          continue;  // the edge through p is now dead
        }
        rt_.stats_.add(s, util::Counter::kValidationFails);
        abort_attempt();
        throw TxAborted{};
      }
    }

    if (rt_.recorder_.enabled()) {
      tx.rec_.vstamp.clear();
      for (int k = 0; k < d->ct.dimension(); ++k) {
        tx.rec_.vstamp.push_back(d->ct[k]);  // pre-bump stamp
      }
    }
    if (!tx.write_set_.empty()) {
      rt_.domain_.advance(s, d->ct);
      // Every ordering obligation we still carry against live transactions
      // travels on the published versions as their past-readers list, so
      // later accessors inherit it (whether those transactions end up
      // committing before or after us).
      std::vector<TxDesc*> live_preds;
      for (TxDesc* p : d->preds_snapshot()) {
        const auto st = p->status();
        if (st == runtime::TxStatus::kActive ||
            st == runtime::TxStatus::kCommitting) {
          live_preds.push_back(p);
        }
      }
      for (auto& w : tx.write_set_) {
        w.tentative->ct = d->ct;
        w.tentative->past_readers = live_preds;
        if (rt_.recorder_.enabled()) {
          const Version* base = w.tentative->prev.load(std::memory_order_relaxed);
          tx.rec_.writes.push_back({w.obj->oid, w.tentative->vid, base->vid});
        }
      }
      // The commit is now certain: every committed reader of the versions
      // we supersede has been folded into our stamp, so their list entries
      // are no longer needed (their constraint travels with the new
      // version's timestamp from here on).
      for (auto& w : tx.write_set_) {
        Version* base = w.tentative->prev.load(std::memory_order_relaxed);
        std::lock_guard<util::SpinLock> lk(base->readers_lock);
        auto& rs = base->readers;
        rs.erase(std::remove_if(rs.begin(), rs.end(),
                                [](TxDesc* r) {
                                  const auto st = r->status();
                                  return st == runtime::TxStatus::kCommitted ||
                                         st == runtime::TxStatus::kAborted;
                                }),
                 rs.end());
      }
    }
    d->finish_commit();
    for (auto& w : tx.write_set_) {
      rt_.store_.release(*w.obj, d, s);
    }
  }

  vcp_ = d->ct;
  rt_.stats_.add(s, util::Counter::kCommits);
  finish_attempt(true);
}

// ---------------------------------------------------------------------------
// Tx
// ---------------------------------------------------------------------------

void Tx::abort() {
  ctx_.abort_attempt();
  throw TxAborted{};
}

void Tx::fail(util::Counter reason) {
  ctx_.rt_.stats_.add(ctx_.slot(), reason);
  ctx_.abort_attempt();
  throw TxAborted{};
}

void Tx::note_predecessor(TxDesc* p) {
  if (p == desc_) return;
  // Worklist over committed transactions: absorbing a committed
  // predecessor means taking its stamp AND inheriting every ordering
  // constraint it was still carrying (predecessors that were live when it
  // committed). Without the transitive part, a chain
  //   R (live) ≺ W1 (committed) ≺ W2 (committed) ≺ us
  // would lose the "R before us" obligation and admit a cycle once R
  // commits.
  std::vector<TxDesc*> work;
  std::vector<TxDesc*> visited;
  work.push_back(p);
  while (!work.empty()) {
    TxDesc* cur = work.back();
    work.pop_back();
    if (cur == desc_) continue;
    bool seen = false;
    for (TxDesc* q : visited) seen |= (q == cur);
    if (seen) continue;
    visited.push_back(cur);
    switch (cur->status()) {
      case runtime::TxStatus::kAborted:
        break;
      case runtime::TxStatus::kCommitted:
        // "Make sure that the new version ... has a timestamp strictly
        // greater than that of the committed reading transaction."
        desc_->ct.merge(cur->ct);
        for (TxDesc* q : cur->preds_snapshot()) work.push_back(q);
        break;
      default:
        desc_->add_pred(cur);
        break;
    }
  }
}

void Tx::absorb_past_readers(Version* v) {
  // Stamps folded by a quiescent trim stand in for freed readers'
  // descriptors (dimension 0 = no trim has touched this version; merge
  // indexes `other` by our dimension, so the guard is load-bearing).
  if (v->folded.dimension() != 0) desc_->ct.merge(v->folded);
  for (TxDesc* pr : v->past_readers) note_predecessor(pr);
}

const runtime::Payload& Tx::read_object(Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return *w.tentative->data;
  }
  for (auto& r : read_set_) {
    if (r.obj == &o) return *r.version->data;  // repeat read: same version
  }
  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();
  desc_->add_work();
  rt.stats_.add(s, util::Counter::kReads);

  for (;;) {
    Version* v = rt.resolve(o, desc_, OnCommitting::kWait, s);
    desc_->ct.merge(v->ct);
    absorb_past_readers(v);
    {
      std::lock_guard<util::SpinLock> lk(v->readers_lock);
      v->readers.push_back(desc_);
    }
    // Visibility handshake: a writer that scanned v's readers before our
    // insertion must have published a successor by now; re-checking the
    // current version guarantees either the writer saw us or we see its
    // version and retry.
    Version* recheck = rt.resolve(o, desc_, OnCommitting::kWait, s);
    if (recheck == v) {
      read_set_.push_back({&o, v});
      if (rt.recorder_.enabled()) rec_.reads.push_back({o.oid, v->vid});
      return *v->data;
    }
    std::lock_guard<util::SpinLock> lk(v->readers_lock);
    auto& rs = v->readers;
    rs.erase(std::remove(rs.begin(), rs.end(), desc_), rs.end());
  }
}

runtime::Payload& Tx::write_object(Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return *w.tentative->data;
  }
  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();

  for (;;) {
    Locator* l = rt.store_.acquire(o, desc_, *rt.cm_,
                                   fault::Site::kSstmAcquire, s,
                                   [this] { fail(util::Counter::kAborts); });
    Version* base = l->committed;
    desc_->ct.merge(base->ct);
    absorb_past_readers(base);
    // Pool-backed stamp storage, mirroring cs.hpp: keeps the update path
    // free of hidden per-commit heap mallocs.
    Version* tent = rt.store_.clone_version(
        s, *base->data,
        rt.domain_.zero_in(rt.pool_.enabled() ? &rt.pool_ : nullptr, s));
    tent->prev.store(base, std::memory_order_relaxed);
    if (rt.recorder_.enabled()) tent->vid = rt.recorder_.new_version_id();
    if (rt.store_.install(o, l, desc_, tent, s)) {
      write_set_.push_back({&o, tent});
      desc_->add_work();
      rt.stats_.add(s, util::Counter::kWrites);
      return *tent->data;
    }
    rt.store_.discard_version(s, tent);
  }
}

}  // namespace zstm::sstm

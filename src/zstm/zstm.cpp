#include "zstm/zstm.hpp"

#include "fault/failpoint.hpp"

namespace zstm::zl {

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg)
    : cfg_(cfg),
      lsa_(cfg.lsa),
      lzc_(static_cast<std::size_t>(cfg.lsa.max_threads)) {}

std::unique_ptr<ThreadCtx> Runtime::attach() {
  return std::unique_ptr<ThreadCtx>(new ThreadCtx(*this, lsa_.attach()));
}

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

ThreadCtx::ThreadCtx(Runtime& rt, std::unique_ptr<lsa::ThreadCtx> inner)
    : rt_(rt), inner_(std::move(inner)), short_tx_(*this), long_tx_(*this) {}

ThreadCtx::~ThreadCtx() {
  if (long_tx_.desc_ != nullptr) abort_long_attempt();
}

std::uint64_t ThreadCtx::last_zone_committed() const {
  return rt_.lzc(inner_->slot());
}

// --- short transactions ----------------------------------------------------

ShortTx& ThreadCtx::begin_short(bool read_only) {
  short_tx_.inner_ = &inner_->begin(read_only);
  short_tx_.zc_ = 0;
  short_tx_.first_open_pending_ = true;  // Startshort: T.zc ← 0 (line 2)
  return short_tx_;
}

void ThreadCtx::commit_short() {
  // Record the zone before CommitLSA so the history carries it, and stamp
  // it onto published versions so long transactions can recognize commits
  // from their own zone (see LongTx::read_object).
  short_tx_.inner_->set_history_zone(short_tx_.zc_);
  short_tx_.inner_->set_publish_zone(short_tx_.zc_);
  inner_->commit();  // throws TxAborted on validation failure
  // Commitshort lines 27-28: remember the zone we committed in.
  if (!short_tx_.first_open_pending_) {
    rt_.set_lzc(inner_->slot(), short_tx_.zc_);
  }
}

void ShortTx::check_zone(lsa::Object& o) {
  Runtime& rt = ctx_.rt_;
  lsa::Runtime& sub = rt.lsa_;
  const int s = ctx_.slot();

  std::uint64_t ozc = o.zc.load(std::memory_order_acquire);
  if (first_open_pending_) {
    // Openshort lines 6-15: the first object determines the zone.
    const std::uint64_t lzc = rt.lzc(s);
    if (ozc < lzc) {
      // The object belongs to an older zone than the last one this thread
      // committed in.
      if (lzc > rt.commit_time()) {
        // That zone's long transaction may still be active: committing
        // here would cross it backwards (violates property 4) — abort.
        sub.stats_domain().add(s, util::Counter::kZoneConflicts);
        inner_->abort();
      }
      zc_ = rt.commit_time();  // line 11
    } else {
      zc_ = ozc;  // line 14
    }
    first_open_pending_ = false;
    return;
  }

  if (zc_ == ozc) return;  // same zone: proceed (line 16 false)

  // Lines 17-21: different zones.
  util::Backoff bo;
  std::uint32_t attempts = 0;
  for (;;) {
    const std::uint64_t ct = rt.commit_time();
    if (zc_ <= ct && ozc <= ct) {
      // Both zones are in the past; serialize at the current commit time
      // (line 20).
      zc_ = ct;
      return;
    }
    // conflict(T, oi.zc): the contention manager delays or aborts T.
    sub.stats_domain().add(s, util::Counter::kZoneConflicts);
    if (!rt.cfg_.wait_on_zone_conflict ||
        ++attempts > rt.cfg_.zone_wait_attempts) {
      inner_->abort();
    }
    bo.pause();
    ozc = o.zc.load(std::memory_order_acquire);
  }
}

const runtime::Payload& ShortTx::read_object(lsa::Object& o) {
  check_zone(o);
  return inner_->read_object(o);
}

runtime::Payload& ShortTx::write_object(lsa::Object& o) {
  check_zone(o);
  runtime::Payload& p = inner_->write_object(o);
  // Same zone-check/install race closure as the typed write() path.
  verify_zone_after_write(o);
  return p;
}

void ShortTx::verify_zone_after_write(lsa::Object& o) {
  Runtime& rt = ctx_.rt_;
  // seq_cst load after our seq_cst locator install (in lsa::Tx::
  // write_object): pairs with LongTx::claim_zone + the seq_cst locator load
  // in ObjectStore::acquire.
  const std::uint64_t ozc = o.zc.load(std::memory_order_seq_cst);
  if (ozc == zc_) return;
  // A long transaction claimed this object between our zone check and our
  // locator install. If every involved zone is already committed we can
  // slide to the current commit time (Algorithm 3 line 20 semantics);
  // otherwise we must not keep a write the long transaction may have
  // already read past — abort.
  const std::uint64_t ct = rt.commit_time();
  if (zc_ <= ct && ozc <= ct) {
    zc_ = ct;
    return;
  }
  rt.lsa_.stats_domain().add(ctx_.slot(), util::Counter::kZoneConflicts);
  inner_->abort();
}

// --- long transactions -------------------------------------------------------

LongTx& ThreadCtx::begin_long() {
  // A previous attempt abandoned mid-body (foreign exception escaping the
  // user code) must be aborted first, like every short-transaction begin()
  // does — otherwise its still-active descriptor and installed locators
  // leak (the run-entry-point contract in api/stm_api.hpp).
  if (long_tx_.desc_ != nullptr) abort_long_attempt();
  LongTx& tx = long_tx_;
  lsa::Runtime& sub = rt_.lsa_;
  const int s = slot();
  // Tick before the zone number is drawn, for the reason given in
  // lsa::ThreadCtx::begin: the recorded interval must cover the attempt.
  const std::uint64_t begin_seq =
      sub.recorder().enabled() ? sub.recorder().tick() : 0;
  const std::uint64_t id = sub.next_tx_id(s);
  tx.desc_ = sub.node_pool().create<lsa::TxDesc>(s, id, s,
                                                 runtime::TxClass::kLong);
  tx.desc_->set_start_ticks(sub.next_tick());
  long_epoch_guard_ = sub.epochs().pin_guard(s);
  // Startlong line 3: T.zc ← ++ZC — a fresh, unique zone number.
  tx.zc_ = rt_.zc_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
  tx.zone_claimed_ = false;
  tx.write_set_.clear();
  if (sub.recorder().enabled()) {
    tx.rec_ = history::TxRecord{};
    tx.rec_.tx_id = tx.desc_->id();
    tx.rec_.thread_slot = s;
    tx.rec_.tx_class = runtime::TxClass::kLong;
    tx.rec_.zone = tx.zc_;
    tx.rec_.begin_seq = begin_seq;
  }
  return tx;
}

void ThreadCtx::release_long_ownerships() {
  for (auto& w : long_tx_.write_set_) {
    rt_.lsa_.release(*w.obj, long_tx_.desc_, slot());
  }
}

void ThreadCtx::finish_long_attempt(bool committed) {
  lsa::Runtime& sub = rt_.lsa_;
  if (sub.recorder().enabled()) {
    long_tx_.rec_.committed = committed;
    long_tx_.rec_.end_seq = sub.recorder().tick();
    sub.recorder().record(slot(), std::move(long_tx_.rec_));
  }
  sub.retire_desc(slot(), long_tx_.desc_);
  long_tx_.desc_ = nullptr;
  long_epoch_guard_ = util::EpochManager::Guard();
}

void ThreadCtx::abort_long_attempt() {
  long_tx_.desc_->finish_abort();
  release_long_ownerships();
  if (long_tx_.zone_claimed_) {
    // Retire the claimed zone as a committed no-op. Objects we opened keep
    // o.zc = T.zc forever, and short transactions treat every zone in
    // (CT, ZC] as active — without this bump a dead long transaction's
    // zone stays active until some *other* long transaction commits past
    // it, livelocking any short transaction that crosses it. Aborting is
    // equivalent to committing the empty transaction at our slot in zone
    // order, and CT ← max(CT, T.zc) imposes on older in-flight long
    // transactions exactly the penalty an overtaking commit already does
    // (Commitlong's "the one whose zone number was overtaken aborts").
    std::uint64_t cur = rt_.ct_.value.load(std::memory_order_acquire);
    while (cur < long_tx_.zc_ &&
           !rt_.ct_.value.compare_exchange_weak(cur, long_tx_.zc_,
                                                std::memory_order_acq_rel)) {
    }
  }
  rt_.lsa_.stats_domain().add(slot(), util::Counter::kAborts);
  rt_.lsa_.stats_domain().add(slot(), util::Counter::kLongAborts);
  finish_long_attempt(false);
}

void ThreadCtx::commit_long() {
  LongTx& tx = long_tx_;
  lsa::TxDesc* d = tx.desc_;
  lsa::Runtime& sub = rt_.lsa_;
  const int s = slot();

  if (!d->begin_commit()) {  // an enemy aborted us (Commitlong line 24's state check)
    abort_long_attempt();
    throw TxAborted{};
  }

  // Commitlong lines 24-26: commit iff T.zc > CT, then CT ← T.zc. The
  // max-CAS makes check-and-set atomic, so two racing long transactions
  // resolve their order exactly once; the one whose zone number was
  // overtaken aborts ("long transactions need to commit in the order of
  // their unique timestamps").
  std::uint64_t cur = rt_.ct_.value.load(std::memory_order_acquire);
  for (;;) {
    if (cur >= tx.zc_) {
      rt_.lsa_.stats_domain().add(s, util::Counter::kZonePassed);
      abort_long_attempt();
      throw TxAborted{};
    }
    if (rt_.ct_.value.compare_exchange_weak(cur, tx.zc_,
                                            std::memory_order_acq_rel)) {
      break;
    }
  }

  // Give the published versions an LSA timestamp so short transactions'
  // snapshots order correctly against them. No validation happens here —
  // that is Z-STM's point: "long transactions can commit with a very
  // simple and efficient validation test".
  std::uint64_t floor = 0;
  for (const auto& w : tx.write_set_) {
    const lsa::Version* base = w.tentative->prev.load(std::memory_order_relaxed);
    if (base->ts > floor) floor = base->ts;
  }
  const std::uint64_t ct = sub.time_base().acquire_commit_stamp(s, floor);
  sub.time_base().wait_until_safe(s, ct);

  for (auto& w : tx.write_set_) {
    w.tentative->ts = ct;
    w.tentative->zone = tx.zc_;
    if (sub.recorder().enabled()) {
      const lsa::Version* base =
          w.tentative->prev.load(std::memory_order_relaxed);
      tx.rec_.writes.push_back({w.obj->oid, w.tentative->vid, base->vid});
    }
  }
  d->commit_ts = ct;
  d->finish_commit();  // the single CAS/store that publishes everything
  for (auto& w : tx.write_set_) {
    sub.release(*w.obj, d, s);
  }

  rt_.set_lzc(s, tx.zc_);  // line 27: LZCp ← T.zc
  sub.stats_domain().add(s, util::Counter::kCommits);
  sub.stats_domain().add(s, util::Counter::kLongCommits);
  finish_long_attempt(true);
}

// ---------------------------------------------------------------------------
// LongTx
// ---------------------------------------------------------------------------

void LongTx::abort() {
  ctx_.abort_long_attempt();
  throw TxAborted{};
}

void LongTx::claim_zone(lsa::Object& o) {
  // seq_cst: this store and the subsequent seq_cst locator load in
  // ObjectStore::acquire form one half of a Dekker pair with short
  // transactions' locator-install + zone-re-check (ShortTx::
  // verify_zone_after_write). At least one side must observe the other or
  // a short could commit writes that straddle our snapshot frontier.
  std::uint64_t cur = o.zc.load(std::memory_order_seq_cst);
  for (;;) {
    if (cur == zc_) return;  // we already claimed this object
    if (cur > zc_) {
      // Openlong lines 19-20: a long transaction with a higher zone number
      // beat us to the object — we were passed and must abort.
      ctx_.rt_.lsa_.stats_domain().add(ctx_.slot(),
                                       util::Counter::kZonePassed);
      abort();
    }
    if (o.zc.compare_exchange_weak(cur, zc_, std::memory_order_seq_cst)) {
      zone_claimed_ = true;
      return;  // line 7: oi.zc ← T.zc
    }
  }
}

lsa::WriteEntry* LongTx::find_write(const lsa::Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return &w;
  }
  return nullptr;
}

const runtime::Payload& LongTx::read_object(lsa::Object& o) {
  if (lsa::WriteEntry* we = find_write(o)) return *we->tentative->data;
  lsa::Runtime& sub = ctx_.rt_.lsa_;
  const int s = ctx_.slot();
  desc_->add_work();
  sub.stats_domain().add(s, util::Counter::kReads);

  claim_zone(o);
  // Openlong lines 8-11: arbitrate away any current writer. A long
  // transaction must not leave active writers behind on objects it reads —
  // a short transaction that already owns the object could otherwise commit
  // writes serialized both before and after us. seq_cst: second half of the
  // Dekker pair started in claim_zone.
  lsa::Locator* l = sub.store().acquire(
      o, desc_, sub.contention_manager(), fault::Site::kZlAcquire, s,
      [this] { abort(); }, std::memory_order_seq_cst);
  // The paper's Openlong is one atomic step; in our implementation a short
  // transaction can adopt our zone (it read o.zc after our claim), commit
  // a write to o, and only then do we load the version — returning state
  // that is serialized *after* us. Versions carry their writer's zone, so
  // the pre-claim state is the newest version not from our own zone.
  lsa::Version* v = l->committed;
  while (v != nullptr && v->zone == zc_) {
    v = v->prev.load(std::memory_order_acquire);
  }
  if (v == nullptr || v->zone > zc_) {
    // Pruned underneath us, or a later long transaction's write is already
    // current: we cannot recover a consistent pre-claim state.
    if (v == nullptr) sub.store().note_too_old(o, s);
    sub.stats_domain().add(s, util::Counter::kZonePassed);
    abort();
  }
  if (sub.recorder().enabled()) rec_.reads.push_back({o.oid, v->vid});
  return *v->data;
}

runtime::Payload& LongTx::write_object(lsa::Object& o) {
  if (lsa::WriteEntry* we = find_write(o)) return *we->tentative->data;
  lsa::Runtime& sub = ctx_.rt_.lsa_;
  const int s = ctx_.slot();

  claim_zone(o);
  for (;;) {
    lsa::Locator* l = sub.store().acquire(
        o, desc_, sub.contention_manager(), fault::Site::kZlAcquire, s,
        [this] { abort(); }, std::memory_order_seq_cst);
    lsa::Version* base = l->committed;
    if (base->zone >= zc_) {
      // A commit from our own zone (serialized after us) or a later long
      // is already current: our write can no longer be inserted before it.
      sub.stats_domain().add(s, util::Counter::kZoneConflicts);
      abort();
    }
    lsa::Version* tent = sub.store().clone_version(s, *base->data);
    tent->prev.store(base, std::memory_order_relaxed);
    if (sub.recorder().enabled()) tent->vid = sub.recorder().new_version_id();
    if (sub.store().install(o, l, desc_, tent, s)) {
      write_set_.push_back({&o, tent});
      desc_->add_work();
      sub.stats_domain().add(s, util::Counter::kWrites);
      return *tent->data;
    }
    sub.store().discard_version(s, tent);
  }
}

}  // namespace zstm::zl

#include "lsa/lsa.hpp"

#include <cstdlib>
#include <string_view>

#include "fault/failpoint.hpp"

namespace zstm::lsa {

namespace {

timebase::ScalarTimeBase make_time_base(const Config& cfg) {
  timebase::TimeBaseKind kind = cfg.time_base;
  // Experiment escape hatch: override the configured timebase globally
  // without touching call sites (same spirit as ZSTM_POOL=0).
  if (const char* e = std::getenv("ZSTM_TIMEBASE")) {
    const std::string_view v(e);
    if (v == "global") {
      kind = timebase::TimeBaseKind::kCounter;
    } else if (v == "sync") {
      kind = timebase::TimeBaseKind::kSyncClock;
    } else if (v == "batched") {
      kind = timebase::TimeBaseKind::kBatchedCounter;
    }
  }
  switch (kind) {
    case timebase::TimeBaseKind::kSyncClock:
      return timebase::ScalarTimeBase(cfg.max_threads, cfg.clock_deviation,
                                      cfg.seed);
    case timebase::TimeBaseKind::kBatchedCounter:
      return timebase::ScalarTimeBase(cfg.max_threads, cfg.timebase_batch);
    case timebase::TimeBaseKind::kCounter:
      break;
  }
  return timebase::ScalarTimeBase();
}

}  // namespace

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg)
    : cfg_(cfg),
      registry_(cfg.max_threads),
      stats_(registry_),
      pool_(registry_, &stats_, cfg.use_node_pool),
      epochs_(registry_, cfg.ebr_collect_period),
      recorder_(cfg.record_history, cfg.max_threads),
      timebase_(make_time_base(cfg)),
      cm_(cm::make_manager(cfg.cm_policy)),
      id_clock_(cfg.max_threads, /*shards=*/cfg.max_threads),
      sharded_ids_(timebase::sharded_ids_enabled(cfg.sharded_tx_ids)),
      store_(pool_, epochs_, stats_, object::retention_policy(cfg)) {
  // A detaching thread abandons its timebase lease (batched counter);
  // otherwise a dead slot's low lease would pin now_floor() forever.
  timebase_listener_ = registry_.add_release_listener(
      [this](int slot) { timebase_.release_slot(slot); });
}

// All worker threads must be detached by now; the store tears down the live
// objects single-threaded, and the EpochManager's destructor (drain_all)
// frees retired locators/versions/descriptors — disjoint sets.
Runtime::~Runtime() {
  if (timebase_listener_ >= 0) {
    registry_.remove_release_listener(timebase_listener_);
  }
}

std::unique_ptr<ThreadCtx> Runtime::attach() {
  return std::unique_ptr<ThreadCtx>(new ThreadCtx(*this, registry_.attach()));
}

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

ThreadCtx::ThreadCtx(Runtime& rt, util::ThreadRegistry::Registration reg)
    : rt_(rt), reg_(std::move(reg)), tx_(*this), next_tx_id_(0) {}

ThreadCtx::~ThreadCtx() {
  if (in_transaction()) abort_attempt();
}

Tx& ThreadCtx::begin(bool read_only) {
  if (in_transaction()) abort_attempt();  // defensive: drop a leaked attempt
  Tx& tx = tx_;
  // The recorded real-time interval must cover the whole attempt, snapshot
  // included: ticking begin_seq after now_snapshot() lets a writer that
  // commits in between look as if it preceded this transaction in real
  // time, although the snapshot predates it — a false real-time edge the
  // strict and z-linearizability checkers then report as a cycle.
  const std::uint64_t begin_seq =
      rt_.recorder_.enabled() ? rt_.recorder_.tick() : 0;
  next_tx_id_ = rt_.next_tx_id(slot());
  tx.desc_ = rt_.pool_.create<TxDesc>(slot(), next_tx_id_, slot(),
                                      runtime::TxClass::kShort);
  tx.desc_->set_start_ticks(rt_.next_tick());
  epoch_guard_ = rt_.epochs_.pin_guard(slot());
  tx.lb_ = 0;
  tx.ub_ = rt_.timebase_.now_snapshot(slot());
  // Program order: never snapshot before this thread's last serialization
  // point (safe: both bounds are ones no future commit stamp can undercut).
  if (last_serialization_ > tx.ub_) tx.ub_ = last_serialization_;
  tx.publish_zone_ = 0;
  tx.declared_read_only_ = read_only;
  tx.track_reads_ = rt_.cfg_.track_readonly_readsets || !read_only ||
                    force_track_reads_once_;
  force_track_reads_once_ = false;
  tx.read_set_.clear();
  tx.write_set_.clear();
  if (rt_.recorder_.enabled()) {
    tx.rec_ = history::TxRecord{};
    tx.rec_.tx_id = next_tx_id_;
    tx.rec_.thread_slot = slot();
    tx.rec_.tx_class = runtime::TxClass::kShort;
    tx.rec_.begin_seq = begin_seq;
  }
  return tx;
}

void ThreadCtx::release_ownerships() {
  for (auto& w : tx_.write_set_) {
    rt_.release(*w.obj, tx_.desc_, slot());
  }
}

void ThreadCtx::finish_attempt(bool committed) {
  if (rt_.recorder_.enabled()) {
    tx_.rec_.committed = committed;
    tx_.rec_.end_seq = rt_.recorder_.tick();
    rt_.recorder_.record(slot(), std::move(tx_.rec_));
  }
  // Nothing references the descriptor through a live locator any more
  // (committed/aborted locators were settled above); stale readers may
  // still hold the pointer, so retire through EBR rather than free.
  rt_.retire_desc(slot(), tx_.desc_);
  tx_.desc_ = nullptr;
  epoch_guard_ = util::EpochManager::Guard();
}

void ThreadCtx::abort_attempt() {
  tx_.desc_->finish_abort();
  release_ownerships();
  rt_.stats_.add(slot(), util::Counter::kAborts);
  rt_.stats_.add(slot(), util::Counter::kShortAborts);
  finish_attempt(false);
}

void ThreadCtx::commit() {
  Tx& tx = tx_;
  TxDesc* d = tx.desc_;
  Runtime& rt = rt_;
  const int s = slot();

  if (!d->begin_commit()) {
    // An enemy aborted us between the last open and the commit.
    abort_attempt();
    throw TxAborted{};
  }

  if (!tx.write_set_.empty()) {
    // Commit stamp strictly above every version we are superseding, so the
    // per-object chains stay monotone even under clock skew.
    std::uint64_t floor = 0;
    for (const auto& w : tx.write_set_) {
      const Version* base = w.tentative->prev.load(std::memory_order_relaxed);
      if (base->ts > floor) floor = base->ts;
    }
    const std::uint64_t ct = rt.timebase_.acquire_commit_stamp(s, floor);
    // Sync-clock mode: wait out the deviation window so no later stamp
    // anywhere can undercut ct ("wait one clock tick", §2).
    rt.timebase_.wait_until_safe(s, ct);

    // Validate the read set: every version read must still be current.
    for (const auto& r : tx.read_set_) {
      if (r.valid_until != kOpenEnded) {
        // We read in the past; an update transaction serializes at ct and
        // its snapshot cannot be valid there any more.
        rt.stats_.add(s, util::Counter::kValidationFails);
        abort_attempt();
        throw TxAborted{};
      }
      Version* cur = rt.resolve(*r.obj, d, OnCommitting::kFail, s);
      if (cur != r.version) {
        rt.stats_.add(s, util::Counter::kValidationFails);
        abort_attempt();
        throw TxAborted{};
      }
    }

    // Publish: stamp the tentative versions, then flip the status word —
    // the single CAS that makes every write visible at once.
    for (auto& w : tx.write_set_) {
      w.tentative->ts = ct;
      w.tentative->zone = tx.publish_zone_;
      if (rt.recorder_.enabled()) {
        const Version* base = w.tentative->prev.load(std::memory_order_relaxed);
        tx.rec_.writes.push_back({w.obj->oid, w.tentative->vid, base->vid});
      }
    }
    d->commit_ts = ct;
    d->finish_commit();
    // Eagerly settle our own locators to shorten other threads' waits.
    for (auto& w : tx.write_set_) {
      rt.release(*w.obj, d, s);
    }
    if (ct > last_serialization_) last_serialization_ = ct;
  } else {
    // Read-only: the snapshot was kept consistent at every step (each read
    // version valid throughout [lb, ub]); commit in the past at ub.
    d->finish_commit();
    if (tx.ub_ > last_serialization_) last_serialization_ = tx.ub_;
  }

  rt.stats_.add(s, util::Counter::kCommits);
  rt.stats_.add(s, util::Counter::kShortCommits);
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

WriteEntry* Tx::find_write(const Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return &w;
  }
  return nullptr;
}

const runtime::Payload& Tx::read_object(Object& o) {
  if (WriteEntry* we = find_write(o)) return *we->tentative->data;

  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();
  desc_->add_work();
  rt.stats_.add(s, util::Counter::kReads);

  Version* v = rt.resolve(o, desc_, OnCommitting::kWait, s);
  if (v->ts > ub_ && track_reads_ && try_extend()) {
    v = rt.resolve(o, desc_, OnCommitting::kWait, s);
  }
  std::uint64_t valid_until = kOpenEnded;
  if (v->ts > ub_) {
    // The newest version postdates our snapshot and the snapshot cannot be
    // extended over it: fall back to an older version valid at ub. Update
    // transactions cannot use the past (they serialize at commit time).
    if (!write_set_.empty()) fail(util::Counter::kValidationFails);
    while (v != nullptr && v->ts > ub_) {
      valid_until = v->ts;
      v = v->prev.load(std::memory_order_acquire);
    }
    if (v == nullptr) {
      // The version valid at ub was pruned (retention bound exceeded).
      rt.store().note_too_old(o, s);
      fail(util::Counter::kValidationFails);
    }
  }
  if (v->ts > lb_) lb_ = v->ts;
  if (track_reads_) read_set_.push_back({&o, v, valid_until});
  if (rt.recorder_.enabled()) rec_.reads.push_back({o.oid, v->vid});
  return *v->data;
}

runtime::Payload& Tx::write_object(Object& o) {
  if (WriteEntry* we = find_write(o)) return *we->tentative->data;

  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();

  if (declared_read_only_ && !track_reads_) {
    // A declared read-only transaction took the no-readsets fast path but
    // turned out to write: retry once with read tracking enabled.
    ctx_.force_track_reads_once_ = true;
    fail(util::Counter::kAborts);
  }

  for (;;) {
    Locator* l = rt.store_.acquire(o, desc_, *rt.cm_, fault::Site::kLsaAcquire,
                                   s, [this] { fail(util::Counter::kAborts); });
    Version* base = l->committed;
    if (base->ts > ub_) {
      if (!(track_reads_ && try_extend())) fail(util::Counter::kValidationFails);
      continue;  // re-resolve after extension
    }
    Version* tent = rt.store_.clone_version(s, *base->data);
    tent->prev.store(base, std::memory_order_relaxed);
    if (rt.recorder_.enabled()) tent->vid = rt.recorder_.new_version_id();
    // seq_cst: Z-STM's zone protocol requires this install to be globally
    // ordered against long transactions' zone-stamp writes (Dekker pair
    // with zl::LongTx::claim_zone; see zl::ShortTx::verify_zone_after_write).
    if (rt.store_.install(o, l, desc_, tent, s, std::memory_order_seq_cst)) {
      write_set_.push_back({&o, tent});
      if (base->ts > lb_) lb_ = base->ts;
      desc_->add_work();
      rt.stats_.add(s, util::Counter::kWrites);
      return *tent->data;
    }
    rt.store_.discard_version(s, tent);
  }
}

bool Tx::try_extend() {
  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();
  std::uint64_t new_ub = rt.timebase_.now_snapshot(s);
  for (const auto& r : read_set_) {
    if (r.valid_until != kOpenEnded && r.valid_until - 1 < new_ub) {
      new_ub = r.valid_until - 1;
    }
  }
  if (new_ub <= ub_) {
    rt.stats_.add(s, util::Counter::kExtensionFails);
    return false;
  }
  for (auto& r : read_set_) {
    if (r.valid_until != kOpenEnded) continue;
    Version* cur = rt.resolve(*r.obj, desc_, OnCommitting::kWait, s);
    if (cur == r.version) continue;
    // Find the direct successor of the version we read to learn when its
    // validity ended.
    Version* succ = Store::successor_of(cur, r.version);
    if (succ == nullptr) {
      // Chain pruned past our version; cannot bound its validity.
      rt.store().note_too_old(*r.obj, s);
      rt.stats_.add(s, util::Counter::kExtensionFails);
      return false;
    }
    r.valid_until = succ->ts;
    if (succ->ts - 1 < new_ub) new_ub = succ->ts - 1;
    if (new_ub <= ub_) {
      rt.stats_.add(s, util::Counter::kExtensionFails);
      return false;
    }
  }
  ub_ = new_ub;
  rt.stats_.add(s, util::Counter::kExtensions);
  return true;
}

}  // namespace zstm::lsa

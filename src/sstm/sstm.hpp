// S-STM — the serializable STM of §4.2.
//
// S-STM extends CS-STM so that *all* update transactions are perceived in
// the same order by all processors, not only those updating the same
// object. The paper specifies the ingredients but omits its implementation
// details ("quite intricate"); we implement the stated specification:
//
//  * Visible reads: a reading transaction atomically inserts itself into a
//    reader list attached to the version it read.
//  * When an update transaction commits, it scans the reader lists of the
//    versions it supersedes: committed readers' final timestamps are merged
//    into its own (the new version's timestamp becomes strictly greater
//    than that of any committed past reader); still-active readers are
//    recorded as predecessor edges and carried on the new version as its
//    "past readers" list, propagating anti-dependency information along
//    causal chains.
//  * A transaction that reads (or overwrites) a version merges the final
//    timestamps of that version's committed past readers and records
//    still-active ones as predecessors.
//  * At commit, after merging, CS-STM's validation runs (a read version
//    with a committed successor whose stamp strictly precedes T.ct ⇒
//    abort), plus a cycle check over the active-transaction precedence
//    graph: two active transactions that must each precede the other
//    conflict, and one aborts.
//
// Deviations from the paper's (unpublished) implementation, recorded in
// DESIGN.md §4: update-commit validation+publication runs under a global
// commit mutex instead of a CAS+helping protocol (publication itself is
// still the single status CAS), reader lists are guarded by per-version
// spin locks, and transaction descriptors are retained until a quiescent
// trim (Runtime::trim_descriptors) folds every reader-list reference into
// per-version stamps, so the lists never dangle. These are exactly the
// kind of costs the paper attributes to S-STM ("the runtime overhead ...
// can be deemed prohibitive"), which bench_cs_overhead quantifies.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "cm/contention_manager.hpp"
#include "history/recorder.hpp"
#include "object/object_store.hpp"
#include "runtime/payload.hpp"
#include "runtime/run_result.hpp"
#include "runtime/txdesc.hpp"
#include "timebase/sharded_clock.hpp"
#include "timebase/vector_clock.hpp"
#include "util/backoff.hpp"
#include "util/ebr.hpp"
#include "util/spin_lock.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::sstm {

struct TxAborted {};

struct Config {
  int max_threads = 36;
  /// Committed versions retained per object (starting bound in adaptive
  /// mode).
  int versions_kept = 4;
  /// Version retention (paper §4.4); see lsa::Config for the semantics.
  object::RetentionMode retention_mode = object::RetentionMode::kFixed;
  int retention_min = 1;
  int retention_max = 64;
  int retention_decay_period = 64;
  cm::Policy cm_policy = cm::Policy::kPolite;
  /// Slab-pool node allocation (DESIGN.md §7); ZSTM_POOL=0 overrides.
  /// Descriptors are pool-backed and retained until a quiescent
  /// Runtime::trim_descriptors() proves no reader list references them.
  bool use_node_pool = true;
  bool record_history = false;
  /// Topology-sharded transaction ids (identity only; serializability
  /// order lives in the vector clocks). ZSTM_SHARDED_IDS=0 overrides.
  bool sharded_tx_ids = true;
  /// EBR: a slot attempts a global epoch advance every Nth retire.
  int ebr_collect_period = 64;
};

class Runtime;
class ThreadCtx;
class Tx;

class TxDesc final : public runtime::TxDescBase {
 public:
  TxDesc(std::uint64_t id, int slot, timebase::VcStamp initial)
      : TxDescBase(id, slot, runtime::TxClass::kShort), ct(std::move(initial)) {}

  /// Tentative commit timestamp; immutable once status() == kCommitted.
  timebase::VcStamp ct;

  /// Transactions that must serialize before this one (recorded while they
  /// were active). Guarded by `preds_lock`.
  util::SpinLock preds_lock;
  std::vector<TxDesc*> preds;

  void add_pred(TxDesc* p) {
    std::lock_guard<util::SpinLock> lk(preds_lock);
    for (TxDesc* q : preds) {
      if (q == p) return;
    }
    preds.push_back(p);
  }
  std::vector<TxDesc*> preds_snapshot() {
    std::lock_guard<util::SpinLock> lk(preds_lock);
    return preds;
  }
};

/// Per-version metadata on the shared substrate: the vector-clock commit
/// stamp plus S-STM's visible-reader machinery.
struct VersionMeta {
  explicit VersionMeta(timebase::VcStamp stamp) : ct(std::move(stamp)) {}

  timebase::VcStamp ct;  // written pre-publication by the committing writer

  /// Active transactions that had read the *previous* version(s) when this
  /// version's writer committed (§4.2). Written pre-publication; immutable
  /// afterwards.
  std::vector<TxDesc*> past_readers;

  /// Visible readers of this version. Guarded by `readers_lock`.
  util::SpinLock readers_lock;
  std::vector<TxDesc*> readers;

  /// Ordering constraints of finished readers, folded into a single stamp
  /// by Runtime::trim_descriptors() before their descriptors are freed.
  /// Dimension 0 until the first trim touches this version (VcStamp::merge
  /// indexes `other` by *this* stamp's dimension, so consumers must guard
  /// on dimension() != 0). Written only at quiescence; read without
  /// locking by transactions, which is safe because trims only run when no
  /// transaction is in flight.
  timebase::VcStamp folded;
};

struct StoreTraits {
  using Desc = TxDesc;
  using VersionMeta = sstm::VersionMeta;
  using ObjectMeta = object::NoMeta;
};

using Store = object::ObjectStore<StoreTraits>;
using Version = Store::Version;
using Locator = Store::Locator;
using Object = Store::Object;
using object::OnCommitting;

template <typename T>
using Var = Store::Var<T>;

struct ReadEntry {
  Object* obj;
  Version* version;
};
struct WriteEntry {
  Object* obj;
  Version* tentative;
};

class Tx {
 public:
  template <typename T>
  const T& read(const Var<T>& var) {
    return runtime::payload_as<T>(read_object(*var.object()));
  }
  template <typename T>
  T& write(Var<T>& var) {
    return runtime::payload_as<T>(write_object(*var.object()));
  }
  template <typename T>
  void write(Var<T>& var, T value) {
    write(var) = std::move(value);
  }

  [[noreturn]] void abort();

  TxDesc* descriptor() const { return desc_; }
  const timebase::VcStamp& tentative_ct() const { return desc_->ct; }

  const runtime::Payload& read_object(Object& o);
  runtime::Payload& write_object(Object& o);

 private:
  friend class ThreadCtx;
  friend class Runtime;
  explicit Tx(ThreadCtx& ctx) : ctx_(ctx) {}

  [[noreturn]] void fail(util::Counter reason);
  /// Merge committed past readers of `v`, record active ones as preds.
  void absorb_past_readers(Version* v);
  /// Record that `p` must serialize before this transaction: live `p`
  /// becomes a predecessor edge; committed `p` is absorbed transitively
  /// (its stamp, plus the pending constraints of every committed
  /// transaction reachable through its predecessor edges — a committed
  /// transaction's order may hinge on predecessors that were still active
  /// when it committed, so its stamp alone does not carry them).
  void note_predecessor(TxDesc* p);

  ThreadCtx& ctx_;
  TxDesc* desc_ = nullptr;
  std::vector<ReadEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  history::TxRecord rec_;
};

class ThreadCtx {
 public:
  ~ThreadCtx();
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  Tx& begin();
  void commit();
  void abort_attempt();

  bool in_transaction() const { return tx_.desc_ != nullptr; }
  int slot() const { return reg_.slot(); }
  const timebase::VcStamp& last_committed() const { return vcp_; }

 private:
  friend class Runtime;
  friend class Tx;
  ThreadCtx(Runtime& rt, util::ThreadRegistry::Registration reg);

  void release_ownerships();
  void finish_attempt(bool committed);

  Runtime& rt_;
  util::ThreadRegistry::Registration reg_;
  util::EpochManager::Guard epoch_guard_;
  Tx tx_;
  timebase::VcStamp vcp_;
};

class Runtime {
 public:
  explicit Runtime(Config cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  template <typename T>
  Var<T> make_var(T initial) {
    return store_.template make_var<T>(std::move(initial), domain_.zero());
  }

  std::unique_ptr<ThreadCtx> attach();

  /// Retry loop; returns {attempts, committed = true} (see
  /// runtime/run_result.hpp for the convention).
  template <typename F>
  runtime::RunResult run(ThreadCtx& ctx, F&& body) {
    util::Backoff bo;
    for (std::uint32_t attempt = 1;; ++attempt) {
      Tx& tx = ctx.begin();
      try {
        body(tx);
        ctx.commit();
        return {attempt, true};
      } catch (const TxAborted&) {
        bo.pause();
      } catch (...) {
        // Foreign exception out of the body: release every ownership the
        // attempt holds before letting it propagate.
        if (ctx.in_transaction()) ctx.abort_attempt();
        throw;
      }
    }
  }

  /// Type-erased variable creation hook for the zstm::api façade.
  Object* allocate_object(runtime::Payload* initial) {
    return store_.allocate(initial, domain_.zero());
  }

  const Config& config() const { return cfg_; }
  util::StatsSnapshot stats() const { return stats_.snapshot(); }
  void reset_stats() { stats_.reset(); }
  history::History collect_history() const { return recorder_.collect(); }

  /// Quiescence-based descriptor trim (the carried-over S-STM leak,
  /// DESIGN.md §11): when no transaction is in flight, fold every finished
  /// reader's ordering constraint into its version's `folded` stamp, clear
  /// the reader/past-reader lists, settle any leftover locators, and
  /// return the descriptors to the node pool. Returns the number of
  /// descriptors freed; 0 if the runtime was not quiescent (an attempt was
  /// live — the call is then a safe no-op and may be retried later).
  std::size_t trim_descriptors();
  /// Retained (not yet trimmed) descriptor count — test introspection.
  std::size_t descriptor_count();

 private:
  friend class ThreadCtx;
  friend class Tx;

  Version* resolve(Object& o, const TxDesc* self, OnCommitting mode,
                   int slot) {
    return store_.resolve(o, self, mode, slot);
  }

  TxDesc* allocate_desc(int slot);

  /// True if `target` is reachable from `from` along predecessor edges of
  /// live (active/committing) transactions.
  static bool reaches(TxDesc* from, const TxDesc* target, int max_nodes);

  Config cfg_;
  timebase::VcDomain domain_;
  util::ThreadRegistry registry_;
  util::StatsDomain stats_;
  // Before the EpochManager: its drain returns nodes to the pool.
  object::NodePool pool_;
  util::EpochManager epochs_;
  history::Recorder recorder_;
  std::unique_ptr<cm::ContentionManager> cm_;
  util::PaddedCounter tx_ids_;
  util::PaddedCounter ticks_;
  timebase::ShardedClock id_clock_;
  bool sharded_ids_;

  /// Pool-backed descriptor storage. Reader and past-reader lists may
  /// reference a descriptor long after its transaction finished, so
  /// descriptors are retained until a quiescent trim_descriptors() folds
  /// every such reference into per-version stamps (or until teardown).
  struct DescArena {
    explicit DescArena(object::NodePool& p) : pool(&p) {}
    ~DescArena() {
      for (TxDesc* d : live) pool->destroy(-1, d);
    }
    object::NodePool* pool;
    std::deque<TxDesc*> live;
  };

  std::mutex descs_mutex_;
  /// Declared after pool_ (frees into it) and before store_ (the store's
  /// destructor reads locator writers' status, so the descriptors must
  /// still be alive when it runs).
  DescArena descs_{pool_};

  /// Serializes update-commit validation + publication (see header).
  std::mutex commit_mutex_;

  Store store_;
};

}  // namespace zstm::sstm

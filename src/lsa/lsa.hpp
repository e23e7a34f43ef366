// LSA-STM — the Lazy Snapshot Algorithm ([8]), the paper's baseline TBTM and
// the substrate for Z-STM's short transactions (§2, §3, §5).
//
// Model (object-based, DSTM-style [4], as the paper prescribes):
//  * Every transactional object points to an immutable Locator
//    {writer, tentative, committed}: the logically current version is
//    `tentative` iff the writer's status is kCommitted, else `committed`.
//    Installing a locator is a single CAS, and a transaction's whole write
//    set becomes visible atomically when its status word flips to
//    kCommitted — the single-CAS commit.
//  * Committed versions form a chain (newest first), each stamped with the
//    scalar commit time at which it became visible. Up to
//    Config::versions_kept versions are retained ("a TBTM typically needs
//    old object versions to construct a consistent snapshot", §4.4).
//  * Writers acquire objects at open time (encounter-time write/write
//    detection, single writer per object; conflicts go to the contention
//    manager) and prepare a private duplicate of the current version.
//  * Reads are invisible. A transaction maintains a snapshot validity
//    interval [lb, ub]; reading a version narrows it, and when the newest
//    version lies beyond ub the snapshot is *extended* (re-validated at the
//    current time) or an older version inside the interval is returned, so
//    read-only transactions can commit "in the past".
//  * Update transactions validate at commit that every read version is
//    still current, acquire a commit stamp from the scalar time base
//    (shared counter, or simulated synchronized real-time clocks), and
//    publish. This is the "first committer wins" rule whose effect on long
//    transactions motivates the whole paper.
//
// The "LSA-STM (no readsets)" variant of Figure 6 is selected with
// Config::track_readonly_readsets = false: declared read-only transactions
// then fix their snapshot time up front, never validate or extend, and pay
// no read-set maintenance cost.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "cm/contention_manager.hpp"
#include "history/recorder.hpp"
#include "object/object_store.hpp"
#include "runtime/payload.hpp"
#include "runtime/run_result.hpp"
#include "runtime/txdesc.hpp"
#include "timebase/scalar_timebase.hpp"
#include "timebase/sharded_clock.hpp"
#include "util/backoff.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::lsa {

/// Thrown internally when a transaction attempt must be retried. User code
/// inside Runtime::run must let it propagate.
struct TxAborted {};

struct Config {
  int max_threads = 36;
  /// Committed versions retained per object (K). 1 = single-version (TL2
  /// style); larger values let read-only transactions commit in the past.
  /// In adaptive retention mode this is the per-object starting bound.
  int versions_kept = 8;
  /// Version retention (paper §4.4): kFixed keeps versions_kept everywhere;
  /// kAdaptive gives each object its own bound that doubles on too-old-
  /// version aborts and decays while quiescent.
  object::RetentionMode retention_mode = object::RetentionMode::kFixed;
  int retention_min = 1;
  int retention_max = 64;
  int retention_decay_period = 64;
  /// Commit timebase (DESIGN.md §10). kCounter is the paper's shared
  /// counter; kBatchedCounter leases blocks of `timebase_batch` ticks per
  /// thread (same serializability guarantees — commit pays a lease fence
  /// instead of a wait). The ZSTM_TIMEBASE environment variable
  /// (global|sync|batched) overrides this for experiments.
  timebase::TimeBaseKind time_base = timebase::TimeBaseKind::kCounter;
  std::chrono::nanoseconds clock_deviation{0};
  /// Ticks per lease when time_base == kBatchedCounter (k: the contended
  /// fetch_add is amortized k×).
  int timebase_batch = 64;
  cm::Policy cm_policy = cm::Policy::kPolite;
  /// false ⇒ the Figure 6 "LSA-STM (no readsets)" variant for transactions
  /// declared read-only.
  bool track_readonly_readsets = true;
  /// Slab-pool node allocation (DESIGN.md §7). The ZSTM_POOL=0 environment
  /// escape hatch overrides this to false (debugging/ASan).
  bool use_node_pool = true;
  bool record_history = false;
  /// Draw transaction/object ids from a topology-sharded clock instead of
  /// one global counter. Ids are identity-only (no code orders by them),
  /// so this is safe under every criterion; ZSTM_SHARDED_IDS=0 overrides
  /// to false (debugging: densely ordered ids).
  bool sharded_tx_ids = true;
  /// EBR: a slot attempts a global epoch advance every Nth retire.
  int ebr_collect_period = 64;
  std::uint64_t seed = 1;
};

class Runtime;
class ThreadCtx;
class Tx;

class TxDesc final : public runtime::TxDescBase {
 public:
  using TxDescBase::TxDescBase;
  /// Scalar commit stamp; meaningful once status() == kCommitted.
  std::uint64_t commit_ts = 0;
};

/// Per-version metadata on the shared substrate (object/versioned.hpp):
/// the scalar commit stamp and the publishing transaction's zone.
struct VersionMeta {
  /// Commit time at which this version became visible; written by the
  /// owning transaction before its commit CAS and read by others only
  /// after they observe kCommitted.
  std::uint64_t ts = 0;
  /// Zone (T.zc) of the transaction that published this version; 0 for
  /// plain LSA. Z-STM long transactions use it to recover the pre-claim
  /// state of an object: versions carrying the long transaction's own zone
  /// were committed by shorts serialized *after* it (they adopted its zone
  /// between the zone claim and the version read) and must be skipped.
  std::uint64_t zone = 0;
};

/// Per-object metadata: the zone stamp `zc` used by Z-STM (§5.1; plain LSA
/// ignores it).
struct ObjectMeta {
  std::atomic<std::uint64_t> zc{0};
};

struct StoreTraits {
  using Desc = TxDesc;
  using VersionMeta = lsa::VersionMeta;
  using ObjectMeta = lsa::ObjectMeta;
};

using Store = object::ObjectStore<StoreTraits>;
using Version = Store::Version;
using Locator = Store::Locator;
using Object = Store::Object;
using object::OnCommitting;

/// Typed handle to a transactional object (shared substrate Var).
template <typename T>
using Var = Store::Var<T>;

inline constexpr std::uint64_t kOpenEnded = ~std::uint64_t{0};

struct ReadEntry {
  Object* obj;
  Version* version;
  /// Commit stamp of the version's known successor (exclusive validity
  /// bound) or kOpenEnded while it was the newest when read.
  std::uint64_t valid_until;
};

struct WriteEntry {
  Object* obj;
  Version* tentative;
};

/// One in-flight transaction attempt. Obtained from ThreadCtx::begin();
/// reads/writes throw TxAborted on conflict, ThreadCtx::commit() throws on
/// validation failure. Runtime::run wraps this in a retry loop.
class Tx {
 public:
  template <typename T>
  const T& read(const Var<T>& var) {
    return runtime::payload_as<T>(read_object(*var.object()));
  }

  /// Open for writing and return the mutable private copy.
  template <typename T>
  T& write(Var<T>& var) {
    return runtime::payload_as<T>(write_object(*var.object()));
  }

  template <typename T>
  void write(Var<T>& var, T value) {
    write(var) = std::move(value);
  }

  /// Abort this attempt and throw TxAborted (retried by Runtime::run).
  [[noreturn]] void abort();

  /// Tag the history record with a Z-STM zone (set by zl::ShortTx).
  void set_history_zone(std::uint64_t zone) { rec_.zone = zone; }

  /// Zone stamped onto every version this transaction publishes (set by
  /// zl::ShortTx just before commit; stays 0 for plain LSA).
  void set_publish_zone(std::uint64_t zone) { publish_zone_ = zone; }

  bool read_only_declared() const { return declared_read_only_; }
  std::uint64_t snapshot_lb() const { return lb_; }
  std::uint64_t snapshot_ub() const { return ub_; }
  TxDesc* descriptor() const { return desc_; }
  std::size_t read_set_size() const { return read_set_.size(); }
  std::size_t write_set_size() const { return write_set_.size(); }

  // Object-level API (used by Z-STM's wrappers and by tests).
  const runtime::Payload& read_object(Object& o);
  runtime::Payload& write_object(Object& o);

 private:
  friend class ThreadCtx;
  friend class Runtime;
  explicit Tx(ThreadCtx& ctx) : ctx_(ctx) {}

  [[noreturn]] void fail(util::Counter reason);
  bool try_extend();
  WriteEntry* find_write(const Object& o);

  ThreadCtx& ctx_;
  TxDesc* desc_ = nullptr;
  std::uint64_t lb_ = 0;
  std::uint64_t ub_ = 0;
  std::uint64_t publish_zone_ = 0;
  bool declared_read_only_ = false;
  bool track_reads_ = true;
  std::vector<ReadEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  history::TxRecord rec_;
};

/// Per-thread attachment to a Runtime. Create one per worker thread via
/// Runtime::attach(); it claims a registry slot for its lifetime.
class ThreadCtx {
 public:
  ~ThreadCtx();
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  /// Start a transaction attempt. `read_only` enables the no-readsets fast
  /// path when the runtime is configured for it.
  Tx& begin(bool read_only = false);

  /// Commit the current attempt; throws TxAborted on validation failure
  /// (the attempt is already cleaned up when it throws).
  void commit();

  /// Abort the current attempt without throwing (for explicit control in
  /// tests and schedulers).
  void abort_attempt();

  bool in_transaction() const { return tx_.desc_ != nullptr; }
  int slot() const { return reg_.slot(); }
  Runtime& runtime() { return rt_; }
  Tx& current() { return tx_; }

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
  std::uint64_t next_tx_id_;
  /// Serialization point of this thread's last committed transaction.
  /// Snapshots never anchor below it, so a thread always reads its own
  /// writes and its transactions serialize in program order even when the
  /// sync-clock snapshot margin would otherwise anchor in the past.
  std::uint64_t last_serialization_ = 0;
  bool force_track_reads_once_ = false;
};

class Runtime {
 public:
  explicit Runtime(Config cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Create a transactional variable with the given initial value. The
  /// runtime owns the underlying object for its whole lifetime.
  template <typename T>
  Var<T> make_var(T initial) {
    return store_.template make_var<T>(std::move(initial));
  }

  std::unique_ptr<ThreadCtx> attach();

  /// Run `body` (callable taking Tx&) as a transaction, retrying with
  /// backoff until it commits. Returns {attempts used, committed = true}
  /// (the retry-loop convention of runtime/run_result.hpp).
  template <typename F>
  runtime::RunResult run(ThreadCtx& ctx, F&& body, bool read_only = false) {
    util::Backoff bo;
    for (std::uint32_t attempt = 1;; ++attempt) {
      Tx& tx = ctx.begin(read_only);
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

  const Config& config() const { return cfg_; }
  util::StatsSnapshot stats() const { return stats_.snapshot(); }
  void reset_stats() { stats_.reset(); }
  history::History collect_history() const { return recorder_.collect(); }

  // --- internals shared with Z-STM (stable within this library) ---------

  /// Resolve the logically current committed version of `o`, settling
  /// finished writers' locators along the way. Returns nullptr only in
  /// OnCommitting::kFail mode when a foreign writer is mid-commit.
  /// `self` (may be null) marks the caller's descriptor: an object whose
  /// locator the caller owns resolves to its pre-write committed version.
  Version* resolve(Object& o, const TxDesc* self, OnCommitting mode,
                   int slot) {
    return store_.resolve(o, self, mode, slot);
  }

  /// Ownership release at transaction finish: settles until the locator no
  /// longer references `writer` (see ObjectStore::release for why a single
  /// settle is not enough under the settle-CAS failpoint).
  void release(Object& o, const TxDesc* writer, int slot) {
    store_.release(o, writer, slot);
  }

  Object* allocate_object(runtime::Payload* initial) {
    return store_.allocate(initial);
  }

  /// The shared versioned-object substrate (object/object_store.hpp).
  Store& store() { return store_; }

  util::ThreadRegistry& registry() { return registry_; }
  util::EpochManager& epochs() { return epochs_; }
  util::StatsDomain& stats_domain() { return stats_; }
  object::NodePool& node_pool() { return pool_; }
  /// Retire a transaction descriptor through EBR, returning it to the pool
  /// once the grace period passes (shared with Z-STM's long transactions).
  void retire_desc(int slot, TxDesc* d) {
    if (pool_.enabled()) {
      epochs_.retire_raw(slot, d, &object::NodePool::ebr_destroy<TxDesc>);
    } else {
      epochs_.retire(slot, d);
    }
  }
  history::Recorder& recorder() { return recorder_; }
  timebase::ScalarTimeBase& time_base() { return timebase_; }
  cm::ContentionManager& contention_manager() { return *cm_; }
  std::uint64_t next_tick() {
    return ticks_.value.fetch_add(1, std::memory_order_relaxed);
  }
  /// Globally unique transaction id (shared with Z-STM's long transactions
  /// so ids never collide across transaction classes). Ids are identity
  /// only — nothing orders by them — so under Config::sharded_tx_ids they
  /// come from the slot's shard of a topology-sharded clock instead of one
  /// globally contended counter.
  std::uint64_t next_tx_id(int slot) {
    if (sharded_ids_) return id_clock_.unique_id(slot);
    return tx_ids_.value.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  bool sharded_ids() const { return sharded_ids_; }

 private:
  friend class ThreadCtx;
  friend class Tx;

  Config cfg_;
  util::ThreadRegistry registry_;
  util::StatsDomain stats_;
  // Declared before the EpochManager: EBR's destructor drains deleters
  // that return nodes to the pool, so the pool must be destroyed after it.
  object::NodePool pool_;
  util::EpochManager epochs_;
  history::Recorder recorder_;
  timebase::ScalarTimeBase timebase_;
  std::unique_ptr<cm::ContentionManager> cm_;
  util::PaddedCounter ticks_;  // CM start-time ordering
  util::PaddedCounter tx_ids_;
  timebase::ShardedClock id_clock_;
  bool sharded_ids_;
  /// Registry release-listener id for the timebase slot-teardown hook
  /// (batched leases must not pin now_floor() after a thread detaches).
  int timebase_listener_ = -1;
  Store store_;
};

}  // namespace zstm::lsa

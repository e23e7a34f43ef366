// TL2-style word-granularity STM (Dice, Shalev & Shavit, DISC 2006) — the
// sixth backend, and the repo's only one that is *not* object-based.
//
// Everything the paper's five runtimes do with DSTM locators this runtime
// does with raw memory words and a striped array of versioned spin-locks:
//
//  * Each transactional object is a fixed run of `std::atomic<uint64_t>`
//    master words holding the committed value's bytes. There is no locator,
//    no version chain and no per-access heap allocation.
//  * A global table of 2^lock_table_bits versioned lock words covers all
//    words by address hash ("lock striping"). A lock word encodes
//    `version << 1 | locked`; version is the commit time (from the shared
//    `timebase::GlobalCounter`) of the last transaction that wrote any word
//    in the stripe.
//  * Reads are invisible AND allocation-free: at begin the transaction
//    samples the global clock (`rv`) and every read runs a seqlock-style
//    consistent copy — pre-check the covering lock words (unlocked,
//    version <= rv), copy the master words straight into caller storage
//    (a stack value for the typed fast path), post-check the lock words
//    are unchanged. The read set records only {object, version-id} for
//    commit-time revalidation; repeated reads of an object re-run the
//    seqlock and are forced consistent by the rv bound, so no lookup or
//    caching happens on the read path at all. (The type-erased façade
//    path still materializes pooled snapshot payloads for reference
//    stability; those ride in a separate cleanup list.)
//  * Writes go to a private redo log (one pooled buffer per object, seeded
//    from a validated snapshot, so read-modify-write patterns are protected
//    against lost updates by commit-time revalidation).
//  * Commit: acquire the write set's stripes in sorted order (bounded spin,
//    abort on contention — no deadlock, no contention manager needed),
//    fetch a commit time `wv`, revalidate the read set (skipped when
//    wv == rv + 1: nothing committed in between), write the redo log back
//    to the master words and release every stripe at version wv.
//
// The published algorithm's guarantee is strict serializability (opacity,
// even: the per-read post-check keeps doomed transactions from seeing
// inconsistent snapshots). tests/history_conformance_test.cpp checks the
// recorded histories with history::check_strictly_serializable.
//
// Memory-order contract (the part ThreadSanitizer holds us to): master
// words are written with release stores (under the stripe lock) and read
// with acquire loads. A reader that observes a writer's new word value
// therefore synchronizes with that writer, so the reader's program-order-
// later post-check load is forced (write-read coherence) to see at least
// the writer's lock acquisition — and aborts. Stale data with a clean
// post-check is thus impossible, which is the whole seqlock argument.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "history/recorder.hpp"
#include "object/node_pool.hpp"
#include "runtime/payload.hpp"
#include "runtime/run_result.hpp"
#include "runtime/txdesc.hpp"
#include "timebase/global_counter.hpp"
#include "timebase/sharded_clock.hpp"
#include "util/backoff.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::tl2 {

/// Thrown internally when a transaction attempt must be retried. User code
/// inside Runtime::run must let it propagate (the façade contract).
struct TxAborted {};

struct Config {
  int max_threads = 36;
  /// log2 of the versioned-lock table size. 2^16 * 8 bytes = 512 KiB.
  int lock_table_bits = 16;
  /// Bounded spin on a locked stripe during commit-time acquisition before
  /// the transaction gives up and retries (requester-aborts: no deadlock,
  /// no contention manager).
  int commit_spin = 64;
  /// Pooled log-node (snapshot/redo buffer) allocation; ZSTM_POOL=0
  /// overrides to false.
  bool use_node_pool = true;
  bool record_history = false;
  /// Draw history transaction ids from a topology-sharded clock (identity
  /// only — nothing orders by tx id). ZSTM_SHARDED_IDS=0 overrides.
  bool sharded_tx_ids = true;
};

class Runtime;
class ThreadCtx;
class Tx;

/// A transactional object: a fixed run of atomic master words plus the
/// immutable prototype payload that donates the value's type/layout when
/// snapshots are materialized. Values must be trivially copyable and at
/// most kMaxBytes bytes.
struct Object {
  std::uint64_t oid = 0;
  /// The initial payload; used only via clone_into (layout donor for
  /// snapshot/redo buffers), never mutated after construction.
  std::unique_ptr<runtime::Payload> prototype;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  std::uint32_t word_count = 0;
  std::uint32_t bytes = 0;
  /// History only: id of the currently committed version (0 = initial).
  /// Written under the stripe locks, sampled inside readers' seqlock
  /// windows, so it is always consistent with the value read.
  std::atomic<std::uint64_t> vid{0};
};

template <typename T>
class Var {
 public:
  Var() = default;
  Object* object() const { return obj_; }

 private:
  friend class Runtime;
  explicit Var(Object* o) : obj_(o) {}
  Object* obj_ = nullptr;
};

struct ReadEntry {
  Object* obj;
  std::uint64_t vid;  // version id sampled inside the seqlock window
};

struct WriteEntry {
  Object* obj;
  runtime::Payload* redo;  // pooled redo buffer (placement-constructed)
};

/// One in-flight transaction attempt. Obtained from ThreadCtx::begin();
/// reads throw TxAborted on a failed consistent snapshot,
/// ThreadCtx::commit() throws on validation failure. Runtime::run wraps
/// this in a retry loop.
class Tx {
 public:
  /// Value read — no allocation, no read-set lookup. Repeated reads re-run
  /// the seqlock copy; the rv anchoring makes them return identical values
  /// or abort, so opacity holds without caching.
  template <typename T>
  T read(const Var<T>& var) {
    Object& o = *var.object();
    if (const runtime::Payload* redo = find_redo(o)) {
      return runtime::payload_as<T>(*redo);  // read-own-writes
    }
    T out;
    read_into(o, &out);
    return out;
  }

  /// Open for writing and return the mutable private redo copy.
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

  std::uint64_t read_version() const { return rv_; }
  std::size_t read_set_size() const { return read_set_.size(); }
  std::size_t write_set_size() const { return write_set_.size(); }

  // Object-level API (the type-erased AnyStm handle calls these; the
  // payload-returning read materializes a pooled snapshot for reference
  // stability, unlike the typed value read above).
  const runtime::Payload& read_object(Object& o);
  runtime::Payload& write_object(Object& o);

 private:
  friend class ThreadCtx;
  friend class Runtime;
  explicit Tx(ThreadCtx& ctx) : ctx_(ctx) {}

  /// Redo-log hit for read-own-writes; null when `o` is unwritten.
  const runtime::Payload* find_redo(const Object& o) const {
    for (const auto& w : write_set_) {
      if (w.obj == &o) return w.redo;
    }
    return nullptr;
  }

  /// Seqlock-copy `o`'s committed value into `dst` (o.bytes bytes) and
  /// append the read to the read set. Throws TxAborted when the copy
  /// cannot be anchored at rv.
  void read_into(Object& o, void* dst);

  ThreadCtx& ctx_;
  std::uint64_t rv_ = 0;  // clock sample at begin; snapshot validity bound
  bool read_only_ = false;
  std::vector<ReadEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  std::vector<runtime::Payload*> snaps_;  // AnyStm-path snapshot buffers
  history::TxRecord rec_;
};

/// Per-thread attachment to a Runtime (Runtime::attach()); claims a
/// registry slot for its lifetime.
class ThreadCtx {
 public:
  ~ThreadCtx();
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  /// Start a transaction attempt (aborting a leaked previous one first).
  /// `read_only` is advisory: tl2 treats every commit with an empty write
  /// set as read-only automatically.
  Tx& begin(bool read_only = false);

  /// Commit the current attempt; throws TxAborted on lock contention or
  /// read-set revalidation failure (the attempt is already cleaned up).
  void commit();

  /// Abort the current attempt without throwing.
  void abort_attempt();

  bool in_transaction() const { return active_; }
  int slot() const { return reg_.slot(); }
  Runtime& runtime() { return rt_; }
  Tx& current() { return tx_; }

 private:
  friend class Runtime;
  friend class Tx;
  ThreadCtx(Runtime& rt, util::ThreadRegistry::Registration reg);

  /// Seqlock-consistent copy of `o`'s master words into `dst` (o.bytes
  /// bytes), sampling `o.vid` inside the window. Returns false when the
  /// copy cannot be anchored at `rv` (caller cleans up and aborts).
  bool try_read_words(Object& o, std::uint64_t rv, void* dst,
                      std::uint64_t* vid_out);

  /// try_read_words into a fresh pooled snapshot payload (the AnyStm
  /// path). Throws TxAborted (after cleanup) on validation failure.
  runtime::Payload* snapshot_object(Object& o, std::uint64_t rv,
                                    std::uint64_t* vid_out);

  void finish_attempt(bool committed);
  void drop_logs();
  [[noreturn]] void fail(util::Counter reason);
  void release_acquired(std::size_t count);

  Runtime& rt_;
  util::ThreadRegistry::Registration reg_;
  Tx tx_;
  bool active_ = false;
  // Commit scratch (capacity reused across attempts): the sorted, deduped
  // stripe indices of the write set and the lock words they held before
  // acquisition (restored on abort).
  std::vector<std::uint32_t> stripes_;
  std::vector<std::uint64_t> stripe_old_;
};

class Runtime {
 public:
  /// Largest value size (bytes) a tl2 object supports: one NodePool class-3
  /// block holds the snapshot payload (16-byte TypedPayload header + value).
  static constexpr std::size_t kBufBytes = 240;
  static constexpr std::size_t kMaxBytes =
      kBufBytes - runtime::Payload::kInlineAlign;
  static constexpr std::size_t kMaxWords = kBufBytes / 8;

  explicit Runtime(Config cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Create a transactional variable. The runtime owns the underlying
  /// object for its whole lifetime.
  template <typename T>
  Var<T> make_var(T initial) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "tl2 stores values as raw words; T must be trivially "
                  "copyable (use an object-based runtime otherwise)");
    return Var<T>(
        allocate_object(new runtime::TypedPayload<T>(std::move(initial))));
  }

  std::unique_ptr<ThreadCtx> attach();

  /// Run `body` (callable taking Tx&) as a transaction, retrying with
  /// backoff until it commits (runtime/run_result.hpp convention).
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

  /// Validates that `initial` supports the raw-word representation
  /// (trivially copyable, <= kMaxBytes); throws std::invalid_argument
  /// otherwise. Takes ownership either way.
  Object* allocate_object(runtime::Payload* initial);

  const Config& config() const { return cfg_; }
  util::StatsSnapshot stats() const { return stats_.snapshot(); }
  void reset_stats() { stats_.reset(); }
  history::History collect_history() const { return recorder_.collect(); }

  util::ThreadRegistry& registry() { return registry_; }
  object::NodePool& node_pool() { return pool_; }
  history::Recorder& recorder() { return recorder_; }
  timebase::GlobalCounter& clock() { return clock_; }
  int lock_table_size() const { return static_cast<int>(stripe_mask_) + 1; }

 private:
  friend class ThreadCtx;
  friend class Tx;

  /// Stripe index covering the master word at `addr` (Fibonacci hash of
  /// the word address — adjacent objects land on unrelated stripes).
  std::uint32_t stripe_of(const void* addr) const {
    const auto a = reinterpret_cast<std::uintptr_t>(addr) >> 3;
    const std::uint64_t h =
        static_cast<std::uint64_t>(a) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::uint32_t>(h >> 32) & stripe_mask_;
  }

  std::atomic<std::uint64_t>& lockword(std::uint32_t stripe) {
    return locks_[stripe];
  }

  /// Log-node (snapshot/redo buffer) storage: pooled when enabled, plain
  /// aligned heap otherwise (ZSTM_POOL=0 keeps ASan's heap poisoning).
  void* acquire_buf(int slot);
  void release_buf(int slot, void* p);

  std::uint64_t next_tx_id(int slot) {
    if (sharded_ids_) return id_clock_.unique_id(slot);
    return tx_ids_.value.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Config cfg_;
  util::ThreadRegistry registry_;
  util::StatsDomain stats_;
  object::NodePool pool_;
  history::Recorder recorder_;
  timebase::GlobalCounter clock_;
  util::PaddedCounter tx_ids_;
  timebase::ShardedClock id_clock_;
  bool sharded_ids_;
  util::PaddedCounter oids_;
  std::uint32_t stripe_mask_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> locks_;
  std::mutex objects_mu_;
  std::vector<std::unique_ptr<Object>> objects_;
};

}  // namespace zstm::tl2

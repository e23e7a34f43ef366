// Z-STM — the z-linearizable STM of §5, Algorithms 2 and 3.
//
// Z-STM classifies transactions as *long* or *short* at start (§5.3). Long
// transactions are ordered by an optimistic timestamp-ordering scheme [11]
// over a logical *zone counter*; short transactions run on LSA and are
// partitioned into zones by the long transactions. The result is
// z-linearizability: (1) the long transactions are linearizable, (2) the
// short transactions of each zone are linearizable, (3) everything is
// serializable, (4) the serialization respects each thread's order.
//
// Long transactions (Algorithm 2):
//  * Startlong:  T.zc ← ++ZC — a unique logical time (line 3).
//  * Openlong:   the object's zone stamp o.zc is raised to T.zc; if a long
//    transaction with a higher zc already touched the object, we were
//    "passed" and abort (lines 6, 19-21). Any current writer is arbitrated
//    away by the contention manager (lines 8-11). Writes are visible
//    (locator install); reads take the current committed version — no read
//    set, no write-set validation ever.
//  * Commitlong: commit iff T.zc > CT, then CT ← T.zc (lines 24-26) —
//    implemented as an atomic max-CAS so racing long transactions decide
//    the order exactly once. Publication is the usual single status CAS.
//
// Short transactions (Algorithm 3): the first opened object determines the
// transaction's zone (lines 6-15); every later open checks for a zone
// crossing (lines 16-22) — crossing an *active* zone (one whose long
// transaction may still be live, i.e. zone id in (CT, ZC]) is a conflict
// that the contention manager resolves by delaying or aborting the short
// transaction. The thread-local LZC forbids moving backwards past an
// active long transaction (property 4). Everything else — snapshots,
// validation, commit — is plain LSA (line 23's OpenLSA).
//
// Deviation noted in DESIGN.md §4: our long transactions keep a private list
// of written objects purely to stamp published versions with an LSA commit
// time and to release locators; the paper's claim "no read set nor write
// set" concerns validation work, which is preserved (commit validates
// nothing). Zone 0 (objects never touched by a long transaction) is
// treated as a real zone, which closes a corner the pseudo-code leaves
// open when a short transaction spans zone-0 and active-zone objects.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "lsa/lsa.hpp"

namespace zstm::zl {

using lsa::TxAborted;  // shared abort/retry token with the LSA substrate

struct Config {
  lsa::Config lsa{};
  /// Zone-crossing conflicts: true = delay the short transaction until the
  /// zones quiesce (bounded by zone_wait_attempts), false = abort it
  /// immediately ("the contention manager ... would typically abort T").
  bool wait_on_zone_conflict = false;
  std::uint32_t zone_wait_attempts = 256;
};

class Runtime;
class ThreadCtx;

/// A long transaction attempt (Algorithm 2).
class LongTx {
 public:
  template <typename T>
  const T& read(const lsa::Var<T>& var) {
    return runtime::payload_as<T>(read_object(*var.object()));
  }
  template <typename T>
  T& write(lsa::Var<T>& var) {
    return runtime::payload_as<T>(write_object(*var.object()));
  }
  template <typename T>
  void write(lsa::Var<T>& var, T value) {
    write(var) = std::move(value);
  }

  [[noreturn]] void abort();

  std::uint64_t zone() const { return zc_; }
  lsa::TxDesc* descriptor() const { return desc_; }

  const runtime::Payload& read_object(lsa::Object& o);
  runtime::Payload& write_object(lsa::Object& o);

 private:
  friend class ThreadCtx;
  friend class Runtime;
  explicit LongTx(ThreadCtx& ctx) : ctx_(ctx) {}

  /// Openlong lines 6-7 and 19-21: raise o.zc to T.zc or abort if passed.
  void claim_zone(lsa::Object& o);
  lsa::WriteEntry* find_write(const lsa::Object& o);

  ThreadCtx& ctx_;
  lsa::TxDesc* desc_ = nullptr;
  std::uint64_t zc_ = 0;
  /// True once claim_zone stamped any object with zc_. An aborting attempt
  /// that claimed objects must retire its zone (ThreadCtx::
  /// abort_long_attempt), or the zone stays "active" forever and every
  /// short transaction crossing it livelocks.
  bool zone_claimed_ = false;
  std::vector<lsa::WriteEntry> write_set_;
  history::TxRecord rec_;
};

/// A short transaction attempt (Algorithm 3): LSA plus zone checks.
class ShortTx {
 public:
  template <typename T>
  const T& read(const lsa::Var<T>& var) {
    check_zone(*var.object());
    return inner_->read(var);
  }
  template <typename T>
  T& write(lsa::Var<T>& var) {
    check_zone(*var.object());
    T& ref = inner_->write(var);
    // Close the zone-check/install race against a concurrent long
    // transaction: our locator is now installed (seq_cst), so either the
    // long transaction's open sees it and arbitrates, or we see its zone
    // stamp here and resolve the crossing (see verify_zone_after_write).
    verify_zone_after_write(*var.object());
    return ref;
  }
  template <typename T>
  void write(lsa::Var<T>& var, T value) {
    write(var) = std::move(value);
  }

  [[noreturn]] void abort() { inner_->abort(); }

  std::uint64_t zone() const { return zc_; }
  bool zone_assigned() const { return !first_open_pending_; }
  lsa::Tx& inner() { return *inner_; }

  // Object-level API (used by the zstm::api façade and by tests); same
  // zone-check/open/verify sequence as the typed read/write above.
  const runtime::Payload& read_object(lsa::Object& o);
  runtime::Payload& write_object(lsa::Object& o);

 private:
  friend class ThreadCtx;
  explicit ShortTx(ThreadCtx& ctx) : ctx_(ctx) {}

  void check_zone(lsa::Object& o);
  void verify_zone_after_write(lsa::Object& o);

  ThreadCtx& ctx_;
  lsa::Tx* inner_ = nullptr;
  std::uint64_t zc_ = 0;
  bool first_open_pending_ = true;
};

class ThreadCtx {
 public:
  ~ThreadCtx();
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  // --- short transactions (Algorithm 3) --------------------------------
  ShortTx& begin_short(bool read_only = false);
  void commit_short();

  // --- long transactions (Algorithm 2) ---------------------------------
  LongTx& begin_long();
  void commit_long();
  void abort_long_attempt();

  /// Abort a half-finished short attempt without throwing (foreign-
  /// exception unwind in the façade; the inner LSA attempt is the whole
  /// short-transaction state).
  void abort_short_attempt() { inner_->abort_attempt(); }

  bool in_short_transaction() const { return inner_->in_transaction(); }
  bool in_long_transaction() const { return long_tx_.descriptor() != nullptr; }

  int slot() const { return inner_->slot(); }
  Runtime& runtime() { return rt_; }
  /// LZCp: last zone this thread committed in (long or short).
  std::uint64_t last_zone_committed() const;

 private:
  friend class Runtime;
  friend class LongTx;
  friend class ShortTx;
  ThreadCtx(Runtime& rt, std::unique_ptr<lsa::ThreadCtx> inner);

  void release_long_ownerships();
  void finish_long_attempt(bool committed);

  Runtime& rt_;
  std::unique_ptr<lsa::ThreadCtx> inner_;
  util::EpochManager::Guard long_epoch_guard_;
  ShortTx short_tx_;
  LongTx long_tx_;
};

class Runtime {
 public:
  explicit Runtime(Config cfg = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  template <typename T>
  lsa::Var<T> make_var(T initial) {
    return lsa_.make_var(std::move(initial));
  }

  std::unique_ptr<ThreadCtx> attach();

  /// Retry loop for short transactions; returns {attempts, committed =
  /// true} (see runtime/run_result.hpp for the convention).
  template <typename F>
  runtime::RunResult run_short(ThreadCtx& ctx, F&& body,
                               bool read_only = false) {
    util::Backoff bo;
    for (std::uint32_t attempt = 1;; ++attempt) {
      ShortTx& tx = ctx.begin_short(read_only);
      try {
        body(tx);
        ctx.commit_short();
        return {attempt, true};
      } catch (const TxAborted&) {
        bo.pause();
      } catch (...) {
        // Foreign exception out of the body: release every ownership the
        // attempt holds before letting it propagate.
        if (ctx.in_short_transaction()) ctx.abort_short_attempt();
        throw;
      }
    }
  }

  /// Retry loop for long transactions; returns {attempts, committed = true}.
  template <typename F>
  runtime::RunResult run_long(ThreadCtx& ctx, F&& body) {
    util::Backoff bo;
    for (std::uint32_t attempt = 1;; ++attempt) {
      LongTx& tx = ctx.begin_long();
      try {
        body(tx);
        ctx.commit_long();
        return {attempt, true};
      } catch (const TxAborted&) {
        bo.pause();
      } catch (...) {
        // Foreign exception out of the body: release every ownership the
        // attempt holds (locators, the zone claim, the epoch pin) before
        // letting it propagate.
        if (ctx.in_long_transaction()) ctx.abort_long_attempt();
        throw;
      }
    }
  }

  /// Type-erased variable creation hook for the zstm::api façade.
  lsa::Object* allocate_object(runtime::Payload* initial) {
    return lsa_.allocate_object(initial);
  }

  /// ZC, the global zone counter (last zone number handed out).
  std::uint64_t zone_counter() const {
    return zc_.value.load(std::memory_order_acquire);
  }
  /// CT, the global commit counter (last zone committed).
  std::uint64_t commit_time() const {
    return ct_.value.load(std::memory_order_acquire);
  }

  const Config& config() const { return cfg_; }
  lsa::Runtime& substrate() { return lsa_; }
  util::StatsSnapshot stats() const { return lsa_.stats(); }
  void reset_stats() { lsa_.reset_stats(); }
  history::History collect_history() const { return lsa_.collect_history(); }

 private:
  friend class ThreadCtx;
  friend class LongTx;
  friend class ShortTx;

  std::uint64_t lzc(int slot) const {
    return lzc_[static_cast<std::size_t>(slot)].value.load(
        std::memory_order_acquire);
  }
  void set_lzc(int slot, std::uint64_t z) {
    lzc_[static_cast<std::size_t>(slot)].value.store(
        z, std::memory_order_release);
  }

  Config cfg_;
  lsa::Runtime lsa_;
  util::PaddedCounter zc_;  // ZC: zone numbers handed to long transactions
  util::PaddedCounter ct_;  // CT: highest committed zone
  std::vector<util::PaddedCounter> lzc_;  // per-slot LZC
};

}  // namespace zstm::zl

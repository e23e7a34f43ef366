// zstm::api — the unified front-end over all six runtime variants.
//
// The paper's whole point is comparing one workload across consistency
// criteria (LSA vs CS vs S vs Z), yet the raw runtimes expose five different
// front doors (`lsa::Runtime::run(ctx, body, read_only)`,
// `cs::RuntimeT::run(ctx, body)`, `sstm::Runtime::run(ctx, body)`,
// `zl::Runtime::run_short/run_long`), each with its own Config and manual
// `attach()` discipline. This header gives them one interface, in two
// flavours:
//
//   * `Stm<R>` — a zero-cost adapter template. `Stm<lsa::Runtime>`,
//     `Stm<cs::VcRuntime>`, `Stm<cs::RevRuntime>`, `Stm<sstm::Runtime>` and
//     `Stm<zl::Runtime>` all expose `make_var<T>`, `run(TxKind, body)` and
//     a uniform transaction-handle interface (`read`/`write`/`abort`); the
//     handle type is runtime-specific, so generic callers take it as
//     `auto&` and the calls compile down to the native ones.
//   * `AnyStm` — a type-erased runtime selected *by name* at run time:
//     `AnyStm::make("lsa" | "lsa-nors" | "cs-vc" | "cs-r" | "sstm" | "zl" |
//     "tl2", CommonConfig)`. Bodies receive the concrete `TxHandle`; variables are
//     `AnyVar<T>`. One indirect call per access — the price of a
//     `--runtime=` flag instead of a compiled-in benchmark matrix.
//
// TxKind × runtime mapping (DESIGN.md §8 has the full table): `kUpdate` and
// `kReadOnly` run ordinary (short) transactions; `kLong`/`kLongUpdate` map
// onto `zl::Runtime::run_long` and, on every other runtime, onto its
// ordinary transactions (LSA additionally treats `kReadOnly`/`kLong` as
// declared-read-only, enabling its no-readsets fast path). A body run under
// `kReadOnly` or `kLong` must not write on runtimes that specialize the
// read-only path.
//
// Implicit attachment: user code never calls `attach()`. Each thread's
// first transaction against a given `Stm` attaches it and caches the
// `ThreadCtx` in thread-local storage; the cache entry is destroyed when
// the thread exits (releasing the registry slot — the same slot-release
// hook that drains the NodePool's return stacks then fires, so pooled
// memory survives thread churn) or when the `Stm` itself is destroyed.
// Lifetime contract (unchanged from the raw runtimes): worker threads must
// be finished with an `Stm` before it is destroyed.
//
// THE ABORT-EXCEPTION CONTRACT (the one place it is documented): every
// runtime signals an aborted attempt by throwing its `TxAborted` token out
// of the user body. Bodies must let it propagate — catching it (or a
// blanket `catch (...)` without rethrow) inside a transaction body leaves
// the attempt half-finished and the retry loop blind. The façade's retry
// loops catch exactly that token, clean up the attempt, and either retry
// (backoff) or — when an attempt budget is given — return
// `RunResult{attempts, committed = false}`. Any other exception escaping
// the body propagates to the caller; the next `run` on the same thread
// aborts the abandoned attempt first.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cs/cs.hpp"
#include "fault/failpoint.hpp"
#include "lsa/lsa.hpp"
#include "runtime/run_result.hpp"
#include "sstm/sstm.hpp"
#include "tl2/tl2.hpp"
#include "util/backoff.hpp"
#include "util/stats.hpp"
#include "zstm/zstm.hpp"

namespace zstm::api {

using runtime::RunResult;

/// What one `maintain()` call did (DESIGN.md §12.4). `reclaimed` counts
/// resources freed by this call; `retained` is a gauge of deferred
/// resources still held afterwards (S-STM: transaction descriptors awaiting
/// a quiescent trim; 0 on runtimes with nothing to defer). A long-running
/// service watches `retained` to confirm the automatic trim keeps it
/// bounded.
struct MaintainResult {
  std::size_t reclaimed = 0;
  std::size_t retained = 0;
};

/// Transaction kind, declared at start (the paper's §5.3 requirement that
/// the class be known up front). Long kinds select Z-STM's Algorithm 2;
/// read-only kinds select LSA's declared-read-only path.
enum class TxKind {
  kUpdate,      ///< ordinary (short) update transaction
  kReadOnly,    ///< ordinary (short) transaction, declared read-only
  kLong,        ///< long transaction, read-only body
  kLongUpdate,  ///< long transaction that also writes
};

inline const char* to_string(TxKind k) {
  switch (k) {
    case TxKind::kUpdate: return "update";
    case TxKind::kReadOnly: return "read-only";
    case TxKind::kLong: return "long";
    case TxKind::kLongUpdate: return "long-update";
  }
  return "?";
}

/// The façade's progress policy: how `run` spaces retries and when it
/// escalates (DESIGN.md §11.3). The ladder, in order:
///
///   1. Randomized-exponential backoff between attempts (util::Backoff with
///      per-thread jitter, so rivals that abort each other don't wake in
///      lockstep and re-collide).
///   2. From `cm_escalate_after` aborted attempts on, CM-aware escalation:
///      the attempt count is credited as contention-manager karma
///      (TxDescBase::add_work) on each fresh descriptor — work-based
///      policies (Karma/Polka) then increasingly favor the starved
///      transaction. Backoff is deliberately NOT shortened: priority
///      comes from the CM decision, never from out-spinning rivals (see
///      the note in run_impl — hot retries starve the very owner the
///      transaction is waiting on when threads outnumber cores).
///   3. From `serial_after` aborted attempts on, the final rung: the
///      transaction takes the Stm's global serial-irrevocable token
///      (HTM-fallback style). Acquiring the token exclusively waits out
///      every in-flight attempt; ordinary attempts share the token, so they
///      proceed concurrently when no one holds it exclusively. The holder
///      runs without façade rivals and with fault injection suppressed, so
///      it eventually commits — the façade-level guarantee that no
///      transaction starves forever.
///
/// `serial_after == 0` disables rung 3 unless the ZSTM_SERIAL_FALLBACK env
/// var enables it with the default threshold (8). A per-call attempt budget
/// (`run(kind, body, max_attempts)`) always wins over escalation: a
/// transaction that exhausts its budget returns `committed == false`
/// instead of escalating past it.
///
/// Not supported (unchanged from before): nested `run` calls on the same
/// Stm — with serialization enabled they would self-deadlock on the token.
struct RetryPolicy {
  /// Give up (committed == false) after this many aborted attempts;
  /// 0 = retry until commit. A nonzero per-call budget overrides this.
  std::uint32_t max_attempts = 0;
  /// Backoff window, in cpu_relax spins: first episode, and the doubling
  /// cap after which episodes become sched_yield.
  std::uint32_t backoff_min_spins = 4;
  std::uint32_t backoff_max_spins = 1024;
  /// Rung 2 threshold; 0 disables CM-aware escalation.
  std::uint32_t cm_escalate_after = 16;
  /// Rung 3 threshold; 0 = disabled unless ZSTM_SERIAL_FALLBACK is set.
  std::uint32_t serial_after = 0;
};

/// One configuration that lowers into every runtime's native Config.
/// Fields a runtime has no use for are ignored by its adapter (the
/// lowering table lives in DESIGN.md §8).
struct CommonConfig {
  int max_threads = 36;
  /// Committed versions retained per object (starting bound in adaptive
  /// retention mode).
  int versions_kept = 8;
  object::RetentionMode retention_mode = object::RetentionMode::kFixed;
  int retention_min = 1;
  int retention_max = 64;
  int retention_decay_period = 64;
  cm::Policy cm_policy = cm::Policy::kPolite;
  /// Slab-pool node allocation (DESIGN.md §7); ZSTM_POOL=0 overrides.
  bool use_node_pool = true;
  bool record_history = false;
  /// LSA (and the Z-STM substrate) only: false selects the Figure 6
  /// "LSA-STM (no readsets)" variant — that is what the name "lsa-nors"
  /// resolves to.
  bool track_readonly_readsets = true;
  /// "cs-r" only: r, the number of plausible-clock entries (§4.3).
  int plausible_entries = 4;
  /// lsa/lsa-nors/zl only: the scalar commit timebase (DESIGN.md §10).
  /// kBatchedCounter leases blocks of `timebase_batch` ticks per thread;
  /// the ZSTM_TIMEBASE env var overrides either setting.
  timebase::TimeBaseKind time_base = timebase::TimeBaseKind::kCounter;
  int timebase_batch = 64;
  /// All runtimes: topology-sharded transaction/object ids (identity only).
  /// ZSTM_SHARDED_IDS=0 overrides.
  bool sharded_tx_ids = true;
  /// Object runtimes: EBR attempts a global epoch advance every Nth retire.
  int ebr_collect_period = 64;
  /// Façade-level: every N commits a thread makes, it also runs
  /// `maintain()` (S-STM's quiescent descriptor trim; a no-op elsewhere).
  /// This is the fallback trigger for callers without a housekeeping
  /// thread — the KV server uses both. 0 (default) disables it and keeps
  /// the commit path free of the counter update.
  std::uint32_t maintain_every = 0;
  /// Façade-level only (not lowered): the retry/escalation ladder.
  RetryPolicy retry;
};

// ---------------------------------------------------------------------------
// Per-runtime adapters (detail): the uniform shape Stm<R> is built from.
// ---------------------------------------------------------------------------

namespace detail {

/// ZSTM_SERIAL_FALLBACK=1 turns on the serial-irrevocable rung for every
/// Stm whose policy leaves `serial_after` at 0 (threshold 8).
inline bool serial_fallback_env() {
  static const bool on = [] {
    const char* v = std::getenv("ZSTM_SERIAL_FALLBACK");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();
  return on;
}

inline std::uint32_t resolve_serial_after(const RetryPolicy& pol) {
  if (pol.serial_after != 0) return pol.serial_after;
  return serial_fallback_env() ? 8u : 0u;
}

/// Per-slot jitter seed for the retry loop's randomized backoff (nonzero,
/// distinct per slot — rivals never share a spin sequence).
inline std::uint64_t backoff_seed(int slot) {
  return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(slot) + 2) | 1u;
}

/// The knobs every native Config shares, copied by field name (one place
/// to extend when CommonConfig grows).
template <typename Cfg>
Cfg lower_common(const CommonConfig& c) {
  Cfg cfg;
  cfg.max_threads = c.max_threads;
  cfg.versions_kept = c.versions_kept;
  cfg.retention_mode = c.retention_mode;
  cfg.retention_min = c.retention_min;
  cfg.retention_max = c.retention_max;
  cfg.retention_decay_period = c.retention_decay_period;
  cfg.cm_policy = c.cm_policy;
  cfg.use_node_pool = c.use_node_pool;
  cfg.record_history = c.record_history;
  cfg.sharded_tx_ids = c.sharded_tx_ids;
  cfg.ebr_collect_period = c.ebr_collect_period;
  return cfg;
}

inline lsa::Config lower_lsa(const CommonConfig& c) {
  lsa::Config cfg = lower_common<lsa::Config>(c);
  cfg.track_readonly_readsets = c.track_readonly_readsets;
  cfg.time_base = c.time_base;
  cfg.timebase_batch = c.timebase_batch;
  return cfg;
}

/// Uniform handle over a native Tx that already exposes
/// read/write/abort/read_object/write_object (lsa, cs, sstm). Zero-cost:
/// every call forwards directly.
template <typename NativeTx, typename Object>
class BasicTx {
 public:
  explicit BasicTx(NativeTx& n) : n_(&n) {}
  template <typename VarT>
  decltype(auto) read(const VarT& v) {
    return n_->read(v);
  }
  template <typename VarT>
  decltype(auto) write(VarT& v) {
    return n_->write(v);
  }
  template <typename VarT, typename T>
  void write(VarT& v, T value) {
    n_->write(v) = std::move(value);
  }
  [[noreturn]] void abort() { n_->abort(); }

  const runtime::Payload& read_object(void* o) {
    return n_->read_object(*static_cast<Object*>(o));
  }
  runtime::Payload& write_object(void* o) {
    return n_->write_object(*static_cast<Object*>(o));
  }
  /// The wrapped native transaction (advanced use).
  NativeTx& native() { return *n_; }

 private:
  NativeTx* n_;
};

/// Shared single-attempt body for BasicTx runtimes: begin (adapter maps
/// the kind), run, commit; the runtime's abort token means "retry". Any
/// OTHER exception out of the body (including fault::ThreadExit) aborts
/// the attempt — releasing every locator/stripe/lease it holds — before
/// propagating to the caller.
template <typename Adapter, typename AbortToken, typename Ctx, typename F>
bool basic_attempt(Ctx& ctx, TxKind kind, F&& body) {
  auto& native = Adapter::begin_native(ctx, kind);
  try {
    typename Adapter::Tx handle(native);
    body(handle);
    ctx.commit();
    return true;
  } catch (const AbortToken&) {
    return false;
  } catch (...) {
    if (ctx.in_transaction()) ctx.abort_attempt();
    throw;
  }
}

/// Adapter<R>: the per-runtime glue. Each specialization provides
///   Runtime, Ctx, Var<T>, Object, Tx (the uniform handle),
///   name(), create(CommonConfig), attach(), make_object(),
///   attempt(rt, ctx, kind, body) -> bool (one attempt; false = aborted),
///   and optionally maintain(rt) (periodic housekeeping; defaulted to a
///   no-op by maintain_or_default below).
template <typename R>
struct Adapter;

/// Runs Adapter<R>::maintain when the specialization provides one (S-STM's
/// descriptor trim); every other runtime's maintenance is fully handled by
/// EBR + the node pool already, so the default is an empty report.
template <typename A, typename Rt>
MaintainResult maintain_or_default(Rt& rt) {
  if constexpr (requires { A::maintain(rt); }) {
    return A::maintain(rt);
  } else {
    (void)rt;
    return {};
  }
}

template <>
struct Adapter<lsa::Runtime> {
  using Runtime = lsa::Runtime;
  using Ctx = lsa::ThreadCtx;
  template <typename T>
  using Var = lsa::Var<T>;
  using Object = lsa::Object;
  using Tx = BasicTx<lsa::Tx, Object>;

  static const char* name() { return "lsa"; }

  static std::unique_ptr<Runtime> create(const CommonConfig& c) {
    return std::make_unique<Runtime>(lower_lsa(c));
  }
  static std::unique_ptr<Ctx> attach(Runtime& rt) { return rt.attach(); }
  static void* make_object(Runtime& rt, runtime::Payload* initial) {
    return rt.allocate_object(initial);
  }

  /// Read-only kinds run LSA's declared-read-only path (the no-readsets
  /// fast path when the runtime is configured for it).
  static lsa::Tx& begin_native(Ctx& ctx, TxKind kind) {
    return ctx.begin(kind == TxKind::kReadOnly || kind == TxKind::kLong);
  }

  template <typename F>
  static bool attempt(Runtime&, Ctx& ctx, TxKind kind, F&& body) {
    return basic_attempt<Adapter, lsa::TxAborted>(ctx, kind, body);
  }

  /// CM-aware escalation hook: credit a starved transaction's attempt
  /// count as contention-manager karma on the fresh descriptor.
  static void credit_work(Tx& handle, std::uint64_t n) {
    handle.native().descriptor()->add_work(n);
  }
};

template <typename D>
struct Adapter<cs::RuntimeT<D>> {
  using Runtime = cs::RuntimeT<D>;
  using Ctx = typename Runtime::ThreadCtx;
  template <typename T>
  using Var = typename Runtime::template Var<T>;
  using Object = typename Runtime::Object;
  using Tx = BasicTx<typename Runtime::Tx, Object>;

  static const char* name() {
    return std::is_same_v<D, timebase::VcDomain> ? "cs-vc" : "cs-r";
  }

  static std::unique_ptr<Runtime> create(const CommonConfig& c) {
    if constexpr (std::is_same_v<D, timebase::VcDomain>) {
      return cs::make_vc_runtime(lower_common<cs::Config>(c));
    } else {
      // REV requires r <= n (and at least one entry); clamp so one
      // CommonConfig works across thread counts.
      int entries = c.plausible_entries;
      if (entries > c.max_threads) entries = c.max_threads;
      if (entries < 1) entries = 1;
      return cs::make_rev_runtime(entries, lower_common<cs::Config>(c));
    }
  }
  static std::unique_ptr<Ctx> attach(Runtime& rt) { return rt.attach(); }
  static void* make_object(Runtime& rt, runtime::Payload* initial) {
    return rt.allocate_object(initial);
  }

  /// CS-STM has one transaction class; all kinds run it (read-only bodies
  /// simply never bump their own clock component at commit).
  static typename Runtime::Tx& begin_native(Ctx& ctx, TxKind) {
    return ctx.begin();
  }

  template <typename F>
  static bool attempt(Runtime&, Ctx& ctx, TxKind kind, F&& body) {
    return basic_attempt<Adapter, cs::TxAborted>(ctx, kind, body);
  }

  static void credit_work(Tx& handle, std::uint64_t n) {
    handle.native().descriptor()->add_work(n);
  }
};

template <>
struct Adapter<sstm::Runtime> {
  using Runtime = sstm::Runtime;
  using Ctx = sstm::ThreadCtx;
  template <typename T>
  using Var = sstm::Var<T>;
  using Object = sstm::Object;
  using Tx = BasicTx<sstm::Tx, Object>;

  static const char* name() { return "sstm"; }

  static std::unique_ptr<Runtime> create(const CommonConfig& c) {
    return std::make_unique<Runtime>(lower_common<sstm::Config>(c));
  }
  static std::unique_ptr<Ctx> attach(Runtime& rt) { return rt.attach(); }
  static void* make_object(Runtime& rt, runtime::Payload* initial) {
    return rt.allocate_object(initial);
  }

  /// One transaction class; S-STM's serializability machinery does not
  /// distinguish declared-read-only transactions.
  static sstm::Tx& begin_native(Ctx& ctx, TxKind) { return ctx.begin(); }

  /// Housekeeping hook: the quiescent descriptor trim (DESIGN.md §11.5).
  /// Safe from any thread, attached or not; a no-op returning reclaimed=0
  /// whenever an attempt is in flight.
  static MaintainResult maintain(Runtime& rt) {
    const std::size_t reclaimed = rt.trim_descriptors();
    return {reclaimed, rt.descriptor_count()};
  }

  template <typename F>
  static bool attempt(Runtime&, Ctx& ctx, TxKind kind, F&& body) {
    return basic_attempt<Adapter, sstm::TxAborted>(ctx, kind, body);
  }

  static void credit_work(Tx& handle, std::uint64_t n) {
    handle.native().descriptor()->add_work(n);
  }
};

template <>
struct Adapter<zl::Runtime> {
  using Runtime = zl::Runtime;
  using Ctx = zl::ThreadCtx;
  template <typename T>
  using Var = lsa::Var<T>;
  using Object = lsa::Object;

  static const char* name() { return "zl"; }

  /// Dispatching handle: a Z-STM transaction is either short or long, with
  /// different native types; one branch per access is the whole cost.
  class Tx {
   public:
    explicit Tx(zl::ShortTx& s) : short_(&s) {}
    explicit Tx(zl::LongTx& l) : long_(&l) {}
    template <typename T>
    const T& read(const Var<T>& v) {
      return short_ != nullptr ? short_->read(v) : long_->read(v);
    }
    template <typename T>
    T& write(Var<T>& v) {
      return short_ != nullptr ? short_->write(v) : long_->write(v);
    }
    template <typename T>
    void write(Var<T>& v, T value) {
      write(v) = std::move(value);
    }
    [[noreturn]] void abort() {
      if (short_ != nullptr) short_->abort();
      long_->abort();
    }

    const runtime::Payload& read_object(void* o) {
      Object& obj = *static_cast<Object*>(o);
      return short_ != nullptr ? short_->read_object(obj)
                               : long_->read_object(obj);
    }
    runtime::Payload& write_object(void* o) {
      Object& obj = *static_cast<Object*>(o);
      return short_ != nullptr ? short_->write_object(obj)
                               : long_->write_object(obj);
    }
    bool is_long() const { return long_ != nullptr; }

    /// CM-aware escalation (façade retry loop): karma credit lands on
    /// whichever native descriptor this attempt runs under.
    void credit_work(std::uint64_t n) {
      if (long_ != nullptr) {
        long_->descriptor()->add_work(n);
      } else {
        short_->inner().descriptor()->add_work(n);
      }
    }

   private:
    zl::ShortTx* short_ = nullptr;
    zl::LongTx* long_ = nullptr;
  };

  static std::unique_ptr<Runtime> create(const CommonConfig& c) {
    zl::Config cfg;
    cfg.lsa = lower_lsa(c);
    return std::make_unique<Runtime>(cfg);
  }
  static std::unique_ptr<Ctx> attach(Runtime& rt) { return rt.attach(); }
  static void* make_object(Runtime& rt, runtime::Payload* initial) {
    return rt.allocate_object(initial);
  }

  template <typename F>
  static bool attempt(Runtime&, Ctx& ctx, TxKind kind, F&& body) {
    if (kind == TxKind::kLong || kind == TxKind::kLongUpdate) {
      zl::LongTx& n = ctx.begin_long();
      try {
        Tx handle(n);
        body(handle);
        ctx.commit_long();
        return true;
      } catch (const zl::TxAborted&) {
        return false;
      } catch (...) {
        if (ctx.in_long_transaction()) ctx.abort_long_attempt();
        throw;
      }
    }
    zl::ShortTx& n = ctx.begin_short(kind == TxKind::kReadOnly);
    try {
      Tx handle(n);
      body(handle);
      ctx.commit_short();
      return true;
    } catch (const zl::TxAborted&) {
      return false;
    } catch (...) {
      if (ctx.in_short_transaction()) ctx.abort_short_attempt();
      throw;
    }
  }

  static void credit_work(Tx& handle, std::uint64_t n) {
    handle.credit_work(n);
  }
};

template <>
struct Adapter<tl2::Runtime> {
  using Runtime = tl2::Runtime;
  using Ctx = tl2::ThreadCtx;
  template <typename T>
  using Var = tl2::Var<T>;
  using Object = tl2::Object;
  using Tx = BasicTx<tl2::Tx, Object>;

  static const char* name() { return "tl2"; }

  /// tl2 is word-granularity with no versions, retention, or contention
  /// manager; only the threading/pool/history knobs lower.
  static std::unique_ptr<Runtime> create(const CommonConfig& c) {
    tl2::Config cfg;
    cfg.max_threads = c.max_threads;
    cfg.use_node_pool = c.use_node_pool;
    cfg.record_history = c.record_history;
    cfg.sharded_tx_ids = c.sharded_tx_ids;
    return std::make_unique<Runtime>(cfg);
  }
  static std::unique_ptr<Ctx> attach(Runtime& rt) { return rt.attach(); }
  static void* make_object(Runtime& rt, runtime::Payload* initial) {
    return rt.allocate_object(initial);
  }

  /// One transaction class; an empty write set makes a commit read-only
  /// automatically, so the kind only passes the advisory flag through.
  static tl2::Tx& begin_native(Ctx& ctx, TxKind kind) {
    return ctx.begin(kind == TxKind::kReadOnly || kind == TxKind::kLong);
  }

  template <typename F>
  static bool attempt(Runtime&, Ctx& ctx, TxKind kind, F&& body) {
    return basic_attempt<Adapter, tl2::TxAborted>(ctx, kind, body);
  }

  /// tl2 has no contention manager; karma credit has nowhere to go.
  static void credit_work(Tx&, std::uint64_t) {}
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Stm<R>: the zero-cost adapter.
// ---------------------------------------------------------------------------

/// One façade instance owns one runtime. Movable, not copyable. Worker
/// threads must be finished with it before it is destroyed (see header
/// comment for the implicit-attachment lifetime contract).
template <typename R>
class Stm {
 public:
  using Adapter = detail::Adapter<R>;
  using Runtime = R;
  using Ctx = typename Adapter::Ctx;
  /// The uniform transaction handle bodies receive (runtime-specific type,
  /// uniform interface — take it as `auto&` in generic code).
  using Tx = typename Adapter::Tx;
  template <typename T>
  using Var = typename Adapter::template Var<T>;

  explicit Stm(CommonConfig cfg = {})
      : cfg_(cfg),
        rt_(Adapter::create(cfg)),
        shared_(std::make_shared<Shared>()),
        progress_(std::make_unique<util::ProgressTracker>(cfg.max_threads)),
        maint_counters_(cfg.maintain_every != 0
                            ? static_cast<std::size_t>(cfg.max_threads)
                            : 0),
        serial_after_(detail::resolve_serial_after(cfg.retry)),
        id_(next_id()) {}

  ~Stm() { invalidate_cached_ctxs(); }

  Stm(const Stm&) = delete;
  Stm& operator=(const Stm&) = delete;
  Stm(Stm&& other) noexcept
      : cfg_(other.cfg_),
        rt_(std::move(other.rt_)),
        shared_(std::move(other.shared_)),
        progress_(std::move(other.progress_)),
        maint_counters_(std::move(other.maint_counters_)),
        serial_after_(other.serial_after_),
        id_(other.id_) {
    other.id_ = 0;  // the id travels with the runtime; the husk is inert
  }
  Stm& operator=(Stm&& other) noexcept {
    if (this != &other) {
      invalidate_cached_ctxs();
      cfg_ = other.cfg_;
      rt_ = std::move(other.rt_);
      shared_ = std::move(other.shared_);
      progress_ = std::move(other.progress_);
      maint_counters_ = std::move(other.maint_counters_);
      serial_after_ = other.serial_after_;
      id_ = other.id_;
      other.id_ = 0;
    }
    return *this;
  }

  static const char* runtime_name() { return Adapter::name(); }

  template <typename T>
  Var<T> make_var(T initial) {
    return rt_->make_var(std::move(initial));
  }

  /// Run `body` as a transaction of the given kind, retrying with backoff
  /// until it commits. The calling thread attaches implicitly on first use.
  template <typename F>
  RunResult run(TxKind kind, F&& body) {
    return run_impl(kind, body, 0);
  }

  /// Budgeted variant: gives up after `max_attempts` aborted attempts and
  /// returns `committed == false` (0 = unbounded). This is how callers
  /// express the paper's abandoned long-transaction episodes.
  template <typename F>
  RunResult run(TxKind kind, F&& body, std::uint32_t max_attempts) {
    return run_impl(kind, body, max_attempts);
  }

  /// Drop the calling thread's cached ThreadCtx now (releasing its registry
  /// slot) instead of at thread exit. The next `run` re-attaches.
  void detach_thread() {
    TlsCache& c = tls();
    if (c.fast_id == id_) {
      c.fast_id = 0;
      c.fast_ctx = nullptr;
    }
    c.entries.erase(id_);
  }

  /// The underlying runtime (advanced / test use; the raw API stays public).
  R& runtime() { return *rt_; }
  const R& runtime() const { return *rt_; }

  const CommonConfig& config() const { return cfg_; }
  util::StatsSnapshot stats() const { return rt_->stats(); }
  void reset_stats() { rt_->reset_stats(); }

  /// Starvation watchdog: per-slot max-attempt high-water, the oldest
  /// transaction currently in flight, and serial-fallback entries.
  util::ProgressTracker::Snapshot progress() const {
    return progress_->snapshot();
  }
  void reset_progress() { progress_->reset(); }

  /// Periodic/idle housekeeping (DESIGN.md §12.4): on S-STM this is the
  /// quiescent descriptor trim; on every other runtime a cheap no-op.
  /// Callable from any thread — including one that never ran a
  /// transaction, like a server's housekeeping thread — but never from
  /// inside a transaction body.
  ///
  /// The plain call is opportunistic: S-STM's trim only succeeds at
  /// quiescence, so under continuous load it may keep returning
  /// reclaimed=0 while `retained` grows. `force = true` escalates exactly
  /// like RetryPolicy rung 3: it takes the serial-irrevocable token
  /// exclusively, draining every in-flight façade attempt, and trims in
  /// the resulting quiet window. The drain guarantee needs the serial gate
  /// active (`retry.serial_after != 0` or ZSTM_SERIAL_FALLBACK); with the
  /// gate disabled a forced call degrades to the opportunistic one.
  MaintainResult maintain(bool force = false) {
    if (force && serial_after_ != 0) {
      std::unique_lock<std::shared_mutex> drain(shared_->serial_gate);
      return detail::maintain_or_default<Adapter>(*rt_);
    }
    return detail::maintain_or_default<Adapter>(*rt_);
  }

 private:
  struct Entry;

  /// Control block shared between the Stm and every thread's cached ctx
  /// entry: lets whichever dies first (thread or Stm) clean up safely.
  struct Shared {
    std::mutex mu;
    std::atomic<bool> dead{false};
    std::vector<Entry*> entries;
    /// The serial-irrevocable token (RetryPolicy rung 3). Ordinary attempts
    /// hold it shared (only taken when the rung is enabled — an uncontended
    /// shared_mutex op per attempt); an escalated transaction holds it
    /// exclusive, which drains every in-flight attempt first.
    std::shared_mutex serial_gate;
  };

  struct Entry {
    std::shared_ptr<Shared> shared;
    std::unique_ptr<Ctx> ctx;

    Entry() = default;
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;

    ~Entry() {
      if (shared == nullptr) return;
      std::lock_guard<std::mutex> lk(shared->mu);
      if (ctx != nullptr) {
        ctx.reset();  // releases the registry slot on this (owning) thread
        auto& v = shared->entries;
        for (std::size_t i = 0; i < v.size(); ++i) {
          if (v[i] == this) {
            v[i] = v.back();
            v.pop_back();
            break;
          }
        }
      }
    }

    bool dead() const {
      return shared != nullptr && shared->dead.load(std::memory_order_acquire);
    }
  };

  struct TlsCache {
    /// One-element fast path: ids are never reused, so a stale fast_id can
    /// never alias a new Stm (no ABA).
    std::uint64_t fast_id = 0;
    Ctx* fast_ctx = nullptr;
    std::unordered_map<std::uint64_t, Entry> entries;
  };

  static TlsCache& tls() {
    thread_local TlsCache cache;
    return cache;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Ctx& thread_ctx() {
    TlsCache& c = tls();
    if (c.fast_id == id_) return *c.fast_ctx;
    // Slow path: sweep entries whose Stm died, then find-or-attach.
    for (auto it = c.entries.begin(); it != c.entries.end();) {
      it = it->second.dead() ? c.entries.erase(it) : std::next(it);
    }
    Entry& e = c.entries[id_];
    if (e.ctx == nullptr) {
      e.shared = shared_;
      std::unique_ptr<Ctx> ctx = Adapter::attach(*rt_);
      std::lock_guard<std::mutex> lk(shared_->mu);
      e.ctx = std::move(ctx);
      shared_->entries.push_back(&e);
    }
    c.fast_id = id_;
    c.fast_ctx = e.ctx.get();
    return *e.ctx;
  }

  /// Destroy every cached ctx still registered against this Stm (runs in
  /// the destructor, before the runtime member is destroyed). Entries left
  /// in other threads' TLS keep only the Shared block alive; they are swept
  /// on those threads' next slow-path lookup or at their exit.
  void invalidate_cached_ctxs() {
    if (shared_ == nullptr) return;  // moved-from
    detach_thread();                 // own thread first: clears fast cache
    std::lock_guard<std::mutex> lk(shared_->mu);
    shared_->dead.store(true, std::memory_order_release);
    for (Entry* e : shared_->entries) e->ctx.reset();
    shared_->entries.clear();
  }

  /// One attempt, with the carried karma (RetryPolicy rung 2) credited to
  /// the fresh descriptor as the first action inside the transaction.
  template <typename F>
  bool attempt_once(Ctx& ctx, TxKind kind, F& body, std::uint64_t carried) {
    if (carried == 0) return Adapter::attempt(*rt_, ctx, kind, body);
    auto wrapped = [&](typename Adapter::Tx& handle) {
      Adapter::credit_work(handle, carried);
      body(handle);
    };
    return Adapter::attempt(*rt_, ctx, kind, wrapped);
  }

  /// The retry/escalation ladder (see RetryPolicy). A per-call budget
  /// overrides the policy's and always wins over escalation.
  template <typename F>
  RunResult run_impl(TxKind kind, F& body, std::uint32_t max_attempts) {
    Ctx& ctx = thread_ctx();
    const RetryPolicy& pol = cfg_.retry;
    if (max_attempts == 0) max_attempts = pol.max_attempts;
    const int slot = ctx.slot();
    util::ProgressTracker& watch = *progress_;
    watch.tx_begin(slot);
    std::uint32_t attempt = 1;
    struct EndGuard {  // tx_end even when a foreign exception unwinds run()
      util::ProgressTracker& watch;
      int slot;
      const std::uint32_t& attempt;
      ~EndGuard() { watch.tx_end(slot, attempt); }
    } end_guard{watch, slot, attempt};

    util::Backoff bo(pol.backoff_min_spins > 0 ? pol.backoff_min_spins : 1,
                     pol.backoff_max_spins, detail::backoff_seed(slot));
    std::uint64_t carried = 0;
    for (;; ++attempt) {
      watch.note_attempt(slot, attempt);
      if (serial_after_ != 0 && attempt > serial_after_) {
        // Rung 3: take the token exclusively (drains all in-flight shared
        // attempts), suppress fault injection, and retry under the token
        // until commit. With no façade rival running and no injection, an
        // attempt can only abort through raw-runtime users outside the
        // façade — and those cannot do so forever, since each such abort
        // consumes one of THEIR protocol steps; in the common all-façade
        // case the first serial attempt commits.
        std::unique_lock<std::shared_mutex> serial(shared_->serial_gate);
        fault::SuppressGuard suppress;
        watch.note_serial(slot);
        for (;; ++attempt) {
          watch.note_attempt(slot, attempt);
          if (attempt_once(ctx, kind, body, carried)) {
            serial.unlock();
            after_commit(slot);
            return {attempt, true};
          }
          if (max_attempts != 0 && attempt >= max_attempts) {
            return {attempt, false};
          }
        }
      }
      bool committed;
      if (serial_after_ != 0) {
        std::shared_lock<std::shared_mutex> gate(shared_->serial_gate);
        committed = attempt_once(ctx, kind, body, carried);
      } else {
        committed = attempt_once(ctx, kind, body, carried);
      }
      if (committed) {
        after_commit(slot);
        return {attempt, true};
      }
      if (max_attempts != 0 && attempt >= max_attempts) {
        return {attempt, false};
      }
      if (pol.cm_escalate_after != 0 && attempt >= pol.cm_escalate_after) {
        carried = attempt;  // rung 2: karma credit for the next attempt
      }
      // Deliberately NO backoff reset on escalation: past the spin cap the
      // episodes are sched_yield, and a starved transaction's rivals are
      // usually *mid-transaction on this core* (threads > cores). Hot
      // retries here would burn whole scheduler quanta that the owner
      // needs to finish — measured as a ~1000x slowdown of the history
      // workload on the 1-CPU CI box. Priority comes from the karma
      // credit (the CM favors the starved side), not from retry rate.
      bo.pause();
    }
  }

  /// The every-N-commits maintenance fallback (CommonConfig::maintain_every,
  /// DESIGN.md §12.4). Counters are per registry slot — only the slot's
  /// owner thread touches its cell between attach and release, so the
  /// relaxed ordering is about slot reuse across thread churn, not
  /// concurrent increments.
  void after_commit(int slot) {
    if (maint_counters_.empty()) return;
    auto& n = maint_counters_[static_cast<std::size_t>(slot)].value;
    if (n.fetch_add(1, std::memory_order_relaxed) + 1 >=
        cfg_.maintain_every) {
      n.store(0, std::memory_order_relaxed);
      maintain();
    }
  }

  CommonConfig cfg_;
  std::unique_ptr<R> rt_;
  std::shared_ptr<Shared> shared_;
  std::unique_ptr<util::ProgressTracker> progress_;
  /// Sized max_threads when maintain_every != 0; empty (hook disabled and
  /// commit path untouched) otherwise.
  std::vector<util::Padded<std::atomic<std::uint32_t>>> maint_counters_;
  std::uint32_t serial_after_ = 0;
  std::uint64_t id_ = 0;
};

using LsaStm = Stm<lsa::Runtime>;
using CsVcStm = Stm<cs::VcRuntime>;
using CsRevStm = Stm<cs::RevRuntime>;
using SStm = Stm<sstm::Runtime>;
using ZStm = Stm<zl::Runtime>;
using Tl2Stm = Stm<tl2::Runtime>;

// ---------------------------------------------------------------------------
// By-name variant dispatch — THE one mapping from names to runtimes.
// AnyStm::make, the bench harness's compile-time dispatch, and
// variant_names() below all drive off this visitor; adding a variant means
// adding exactly one branch here (and its name to kVariantNames).
// ---------------------------------------------------------------------------

/// The canonical variant names, in the order the paper's figures use.
inline const std::vector<std::string>& variant_names() {
  static const std::vector<std::string> kVariantNames{
      "lsa", "lsa-nors", "cs-vc", "cs-r", "sstm", "zl", "tl2"};
  return kVariantNames;
}

/// Resolve `name` to a façade type at compile time: invokes
/// `fn(std::type_identity<Stm<R>>{}, canonical_name, lowered_cfg)` for the
/// matching variant. Throws std::invalid_argument for unknown names.
template <typename Fn>
decltype(auto) visit_variant(std::string_view name, CommonConfig cfg,
                             Fn&& fn) {
  if (name == "lsa") {
    return fn(std::type_identity<LsaStm>{}, "lsa", cfg);
  }
  if (name == "lsa-nors" || name == "lsa-no-readsets") {
    cfg.track_readonly_readsets = false;
    return fn(std::type_identity<LsaStm>{}, "lsa-nors", cfg);
  }
  if (name == "cs-vc") {
    return fn(std::type_identity<CsVcStm>{}, "cs-vc", cfg);
  }
  if (name == "cs-r") {
    return fn(std::type_identity<CsRevStm>{}, "cs-r", cfg);
  }
  if (name == "sstm") {
    return fn(std::type_identity<SStm>{}, "sstm", cfg);
  }
  if (name == "zl") {
    return fn(std::type_identity<ZStm>{}, "zl", cfg);
  }
  if (name == "tl2") {
    return fn(std::type_identity<Tl2Stm>{}, "tl2", cfg);
  }
  throw std::invalid_argument(
      "unknown STM variant '" + std::string(name) +
      "' (expected lsa | lsa-nors | cs-vc | cs-r | sstm | zl | tl2)");
}

// ---------------------------------------------------------------------------
// AnyStm: the type-erased façade (runtime selected by name).
// ---------------------------------------------------------------------------

/// Non-owning callable reference (no allocation; the callee must outlive
/// the call — always true for transaction bodies).
template <typename Sig>
class FunctionRef;

template <typename Ret, typename... Args>
class FunctionRef<Ret(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* o, Args... a) -> Ret {
          return (*static_cast<std::remove_reference_t<F>*>(o))(
              std::forward<Args>(a)...);
        }) {}

  Ret operator()(Args... a) const {
    return call_(obj_, std::forward<Args>(a)...);
  }

 private:
  void* obj_;
  Ret (*call_)(void*, Args...);
};

/// Type-erased transactional variable (created by AnyStm::make_var). Only
/// valid with the AnyStm that created it.
template <typename T>
class AnyVar {
 public:
  AnyVar() = default;
  void* raw() const { return obj_; }

 private:
  friend class AnyStm;
  explicit AnyVar(void* obj) : obj_(obj) {}
  void* obj_ = nullptr;
};

/// The uniform type-erased transaction handle AnyStm bodies receive.
class TxHandle {
 public:
  struct Ops {
    const runtime::Payload& (*read)(void* tx, void* obj);
    runtime::Payload& (*write)(void* tx, void* obj);
    void (*abort)(void* tx);  // always throws the runtime's TxAborted
  };

  TxHandle(void* tx, const Ops* ops) : tx_(tx), ops_(ops) {}

  template <typename T>
  const T& read(const AnyVar<T>& v) {
    return runtime::payload_as<T>(ops_->read(tx_, v.raw()));
  }
  template <typename T>
  T& write(AnyVar<T>& v) {
    return runtime::payload_as<T>(ops_->write(tx_, v.raw()));
  }
  template <typename T>
  void write(AnyVar<T>& v, T value) {
    write(v) = std::move(value);
  }
  [[noreturn]] void abort() {
    ops_->abort(tx_);  // throws
    __builtin_unreachable();
  }

 private:
  void* tx_;
  const Ops* ops_;
};

namespace detail {

struct AnyStmBase {
  virtual ~AnyStmBase() = default;
  virtual void* make_object(runtime::Payload* initial) = 0;
  virtual RunResult run(TxKind kind, FunctionRef<void(TxHandle&)> body,
                        std::uint32_t max_attempts) = 0;
  virtual util::StatsSnapshot stats() const = 0;
  virtual void reset_stats() = 0;
  virtual util::ProgressTracker::Snapshot progress() const = 0;
  virtual const CommonConfig& config() const = 0;
  virtual MaintainResult maintain(bool force) = 0;
};

}  // namespace detail

class AnyStm {
 public:
  using Tx = TxHandle;
  template <typename T>
  using Var = AnyVar<T>;

  /// Resolve a runtime variant by name (the visit_variant mapping):
  ///   "lsa" | "lsa-nors" (alias "lsa-no-readsets") | "cs-vc" | "cs-r" |
  ///   "sstm" | "zl" | "tl2"
  /// Throws std::invalid_argument for unknown names.
  static AnyStm make(std::string_view name, CommonConfig cfg = {});

  /// The canonical variant names (api::variant_names re-exported).
  static const std::vector<std::string>& variant_names() {
    return api::variant_names();
  }

  AnyStm(AnyStm&&) noexcept = default;
  AnyStm& operator=(AnyStm&&) noexcept = default;

  template <typename T>
  AnyVar<T> make_var(T initial) {
    return AnyVar<T>(impl_->make_object(
        new runtime::TypedPayload<T>(std::move(initial))));
  }

  template <typename F>
  RunResult run(TxKind kind, F&& body) {
    return impl_->run(kind, FunctionRef<void(TxHandle&)>(body), 0);
  }
  template <typename F>
  RunResult run(TxKind kind, F&& body, std::uint32_t max_attempts) {
    return impl_->run(kind, FunctionRef<void(TxHandle&)>(body), max_attempts);
  }

  const std::string& name() const { return name_; }
  const CommonConfig& config() const { return impl_->config(); }
  util::StatsSnapshot stats() const { return impl_->stats(); }
  void reset_stats() { impl_->reset_stats(); }
  /// Starvation-watchdog snapshot (see Stm<R>::progress).
  util::ProgressTracker::Snapshot progress() const {
    return impl_->progress();
  }
  /// Periodic/idle housekeeping (see Stm<R>::maintain).
  MaintainResult maintain(bool force = false) {
    return impl_->maintain(force);
  }

 private:
  AnyStm(std::unique_ptr<detail::AnyStmBase> impl, std::string name)
      : impl_(std::move(impl)), name_(std::move(name)) {}

  std::unique_ptr<detail::AnyStmBase> impl_;
  std::string name_;
};

}  // namespace zstm::api

#include "tl2/tl2.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string_view>

#include "fault/failpoint.hpp"

namespace zstm::tl2 {

namespace {

constexpr std::uint64_t kLockedBit = 1;

inline bool locked(std::uint64_t lw) { return (lw & kLockedBit) != 0; }
inline std::uint64_t version_of(std::uint64_t lw) { return lw >> 1; }

}  // namespace

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg)
    : cfg_(cfg),
      registry_(cfg.max_threads),
      stats_(registry_),
      pool_(registry_, &stats_, cfg.use_node_pool),
      recorder_(cfg.record_history, registry_.capacity()),
      id_clock_(cfg.max_threads, /*shards=*/cfg.max_threads),
      sharded_ids_(timebase::sharded_ids_enabled(cfg.sharded_tx_ids)) {
  int bits = cfg.lock_table_bits;
  if (bits < 6) bits = 6;
  if (bits > 24) bits = 24;
  const std::size_t n = std::size_t{1} << bits;
  stripe_mask_ = static_cast<std::uint32_t>(n - 1);
  locks_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
}

Runtime::~Runtime() = default;

std::unique_ptr<ThreadCtx> Runtime::attach() {
  return std::unique_ptr<ThreadCtx>(new ThreadCtx(*this, registry_.attach()));
}

Object* Runtime::allocate_object(runtime::Payload* initial) {
  std::unique_ptr<runtime::Payload> proto(initial);
  // Probe that the payload supports both paths tl2 relies on: placement-
  // cloning into a log-node buffer and the raw-bytes view of its value.
  alignas(runtime::Payload::kInlineAlign) unsigned char probe[kBufBytes];
  runtime::Payload* clone = proto->clone_into(probe, sizeof probe);
  const std::size_t bytes = clone != nullptr ? clone->raw_size() : 0;
  if (clone != nullptr) clone->~Payload();
  if (bytes == 0 || bytes > kMaxBytes) {
    throw std::invalid_argument(
        "tl2 objects must hold trivially copyable values of at most " +
        std::to_string(kMaxBytes) + " bytes");
  }

  auto obj = std::make_unique<Object>();
  obj->oid = oids_.value.fetch_add(1, std::memory_order_relaxed) + 1;
  obj->bytes = static_cast<std::uint32_t>(bytes);
  obj->word_count = static_cast<std::uint32_t>((bytes + 7) / 8);
  obj->words =
      std::make_unique<std::atomic<std::uint64_t>[]>(obj->word_count);
  const auto* src = static_cast<const unsigned char*>(proto->raw_bytes());
  for (std::uint32_t i = 0; i < obj->word_count; ++i) {
    std::uint64_t w = 0;
    const std::size_t n = std::min<std::size_t>(8, bytes - i * 8);
    std::memcpy(&w, src + i * 8, n);
    obj->words[i].store(w, std::memory_order_relaxed);
  }
  obj->prototype = std::move(proto);

  Object* raw = obj.get();
  std::lock_guard<std::mutex> lk(objects_mu_);
  objects_.push_back(std::move(obj));
  return raw;
}

void* Runtime::acquire_buf(int slot) {
  if (fault::poke(fault::Site::kPoolAlloc) == fault::Effect::kOom) {
    throw std::bad_alloc{};
  }
  if (pool_.enabled()) return pool_.allocate(slot, kBufBytes);
  return ::operator new(kBufBytes,
                        std::align_val_t{runtime::Payload::kInlineAlign});
}

void Runtime::release_buf(int slot, void* p) {
  if (pool_.enabled()) {
    object::NodePool::release_block(p, slot);
    return;
  }
  ::operator delete(p, std::align_val_t{runtime::Payload::kInlineAlign});
}

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

ThreadCtx::ThreadCtx(Runtime& rt, util::ThreadRegistry::Registration reg)
    : rt_(rt), reg_(std::move(reg)), tx_(*this) {}

ThreadCtx::~ThreadCtx() {
  if (active_) abort_attempt();
}

Tx& ThreadCtx::begin(bool read_only) {
  if (active_) abort_attempt();  // leaked attempt (foreign exception)
  active_ = true;
  tx_.read_only_ = read_only;
  tx_.read_set_.clear();
  tx_.write_set_.clear();
  tx_.snaps_.clear();
  if (rt_.recorder_.enabled()) {
    tx_.rec_ = history::TxRecord{};
    tx_.rec_.tx_id = rt_.next_tx_id(slot());
    tx_.rec_.thread_slot = slot();
    tx_.rec_.tx_class = runtime::TxClass::kShort;
    tx_.rec_.begin_seq = rt_.recorder_.tick();
  }
  tx_.rv_ = rt_.clock_.now();
  return tx_;
}

void ThreadCtx::drop_logs() {
  const int s = slot();
  for (runtime::Payload* snap : tx_.snaps_) {
    void* mem = snap;
    snap->~Payload();
    rt_.release_buf(s, mem);
  }
  for (auto& w : tx_.write_set_) {
    void* mem = w.redo;
    w.redo->~Payload();
    rt_.release_buf(s, mem);
  }
  tx_.snaps_.clear();
  tx_.read_set_.clear();
  tx_.write_set_.clear();
}

void ThreadCtx::finish_attempt(bool committed) {
  if (rt_.recorder_.enabled()) {
    tx_.rec_.committed = committed;
    tx_.rec_.end_seq = rt_.recorder_.tick();
    rt_.recorder_.record(slot(), std::move(tx_.rec_));
  }
  drop_logs();
  active_ = false;
}

void ThreadCtx::abort_attempt() {
  rt_.stats_.add(slot(), util::Counter::kAborts);
  finish_attempt(false);
}

void ThreadCtx::fail(util::Counter reason) {
  rt_.stats_.add(slot(), reason);
  abort_attempt();
  throw TxAborted{};
}

bool ThreadCtx::try_read_words(Object& o, std::uint64_t rv, void* dst,
                               std::uint64_t* vid_out) {
  std::uint64_t pre[Runtime::kMaxWords];
  const std::uint32_t nw = o.word_count;
  for (std::uint32_t i = 0; i < nw; ++i) {
    const std::uint64_t lw =
        rt_.lockword(rt_.stripe_of(&o.words[i])).load(std::memory_order_acquire);
    if (locked(lw) || version_of(lw) > rv) return false;
    pre[i] = lw;
  }

  auto* out = static_cast<unsigned char*>(dst);
  for (std::uint32_t i = 0; i < nw; ++i) {
    const std::uint64_t w = o.words[i].load(std::memory_order_acquire);
    const std::size_t n = std::min<std::size_t>(8, o.bytes - i * 8);
    std::memcpy(out + i * 8, &w, n);
  }
  const std::uint64_t vid = o.vid.load(std::memory_order_acquire);

  // Post-check: any stripe that moved (locked or advanced) may have torn
  // the copy — the release/acquire pairing on master words guarantees a
  // reader of fresh data sees the fresh lock word here and lands in this
  // branch rather than keeping a stale-but-clean-looking copy.
  for (std::uint32_t i = 0; i < nw; ++i) {
    const std::uint64_t lw =
        rt_.lockword(rt_.stripe_of(&o.words[i])).load(std::memory_order_acquire);
    if (lw != pre[i]) return false;
  }
  *vid_out = vid;
  return true;
}

runtime::Payload* ThreadCtx::snapshot_object(Object& o, std::uint64_t rv,
                                             std::uint64_t* vid_out) {
  const int s = slot();
  void* mem = rt_.acquire_buf(s);
  // allocate_object proved clone_into succeeds for this payload.
  runtime::Payload* snap = o.prototype->clone_into(mem, Runtime::kBufBytes);
  if (!try_read_words(o, rv, snap->raw_bytes(), vid_out)) {
    snap->~Payload();
    rt_.release_buf(s, mem);
    fail(util::Counter::kValidationFails);
  }
  return snap;
}

void ThreadCtx::release_acquired(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    rt_.lockword(stripes_[i]).store(stripe_old_[i], std::memory_order_release);
  }
}

void ThreadCtx::commit() {
  Tx& tx = tx_;
  const int s = slot();

  if (tx.write_set_.empty()) {
    // Read-only: every read was individually anchored at rv, so the
    // transaction serializes at its begin — nothing to validate.
    rt_.stats_.add(s, util::Counter::kCommits);
    finish_attempt(true);
    return;
  }

  // 1. The write set's stripes, sorted and deduped: a canonical global
  //    acquisition order makes committer deadlock impossible.
  stripes_.clear();
  stripe_old_.clear();
  for (const auto& w : tx.write_set_) {
    for (std::uint32_t i = 0; i < w.obj->word_count; ++i) {
      stripes_.push_back(rt_.stripe_of(&w.obj->words[i]));
    }
  }
  std::sort(stripes_.begin(), stripes_.end());
  stripes_.erase(std::unique(stripes_.begin(), stripes_.end()),
                 stripes_.end());

  // 2. Acquire each stripe with a bounded spin; on failure restore the
  //    ones already held and retry the whole transaction.
  std::size_t acquired = 0;
  for (const std::uint32_t st : stripes_) {
    auto& lw = rt_.lockword(st);
    bool ok = false;
    if (fault::poke(fault::Site::kTl2StripeLock) ==
        fault::Effect::kCasFail) {
      // Behave exactly like a stripe that stayed locked past the spin
      // budget: release what we hold and retry the whole transaction.
      release_acquired(acquired);
      fail(util::Counter::kValidationFails);
    }
    for (int spin = 0; spin <= rt_.cfg_.commit_spin; ++spin) {
      std::uint64_t cur = lw.load(std::memory_order_acquire);
      if (locked(cur)) {
        util::cpu_relax();
        continue;
      }
      if (version_of(cur) > tx.rv_) break;  // doomed: writes are also reads
      if (lw.compare_exchange_weak(cur, cur | kLockedBit,
                                   std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
        stripe_old_.push_back(cur);
        ok = true;
        break;
      }
    }
    if (!ok) {
      release_acquired(acquired);
      fail(util::Counter::kValidationFails);
    }
    ++acquired;
  }

  // 3. Commit time (classic TL2 / GV1): one fetch_add; wv is exclusively
  //    ours, and wv == rv + 1 means no other transaction committed since
  //    begin, so the snapshot is trivially still current.
  const std::uint64_t wv = rt_.clock_.acquire_commit_time();
  const bool skip_revalidation = (wv == tx.rv_ + 1);

  // 4. Read-set revalidation.
  if (fault::poke(fault::Site::kTl2Revalidate) == fault::Effect::kAbort) {
    release_acquired(acquired);  // behave like a failed revalidation
    fail(util::Counter::kValidationFails);
  }
  if (!skip_revalidation) {
    for (const auto& r : tx.read_set_) {
      for (std::uint32_t i = 0; i < r.obj->word_count; ++i) {
        const std::uint32_t st = rt_.stripe_of(&r.obj->words[i]);
        const std::uint64_t cur =
            rt_.lockword(st).load(std::memory_order_acquire);
        // A locked stripe is fine iff we hold it; the version survives the
        // locked bit ((old | 1) >> 1 == old >> 1) so the rv check is
        // uniform.
        if (locked(cur) &&
            !std::binary_search(stripes_.begin(), stripes_.end(), st)) {
          release_acquired(acquired);
          fail(util::Counter::kValidationFails);
        }
        if (version_of(cur) > tx.rv_) {
          release_acquired(acquired);
          fail(util::Counter::kValidationFails);
        }
      }
    }
  }

  // 5. History bookkeeping, under the locks so readers' seqlock windows
  //    keep vid and value consistent.
  if (rt_.recorder_.enabled()) {
    for (const auto& w : tx.write_set_) {
      const std::uint64_t parent = w.obj->vid.load(std::memory_order_relaxed);
      const std::uint64_t vid = rt_.recorder_.new_version_id();
      tx.rec_.writes.push_back({w.obj->oid, vid, parent});
      w.obj->vid.store(vid, std::memory_order_release);
    }
  }

  // 6. Redo-log write-back (release stores; see the header's memory-order
  //    contract).
  for (const auto& w : tx.write_set_) {
    const auto* src =
        static_cast<const unsigned char*>(w.redo->raw_bytes());
    for (std::uint32_t i = 0; i < w.obj->word_count; ++i) {
      std::uint64_t word = 0;
      const std::size_t n = std::min<std::size_t>(8, w.obj->bytes - i * 8);
      std::memcpy(&word, src + i * 8, n);
      w.obj->words[i].store(word, std::memory_order_release);
    }
  }

  // 7. Release every stripe at the new version: the commit point.
  for (const std::uint32_t st : stripes_) {
    rt_.lockword(st).store(wv << 1, std::memory_order_release);
  }

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

void Tx::read_into(Object& o, void* dst) {
  ctx_.rt_.stats_.add(ctx_.slot(), util::Counter::kReads);
  std::uint64_t vid = 0;
  if (!ctx_.try_read_words(o, rv_, dst, &vid)) {
    ctx_.fail(util::Counter::kValidationFails);
  }
  read_set_.push_back({&o, vid});
  if (ctx_.rt_.recorder_.enabled()) rec_.reads.push_back({o.oid, vid});
}

const runtime::Payload& Tx::read_object(Object& o) {
  if (const runtime::Payload* redo = find_redo(o)) return *redo;
  ctx_.rt_.stats_.add(ctx_.slot(), util::Counter::kReads);
  std::uint64_t vid = 0;
  runtime::Payload* snap = ctx_.snapshot_object(o, rv_, &vid);
  snaps_.push_back(snap);
  read_set_.push_back({&o, vid});
  if (ctx_.rt_.recorder_.enabled()) rec_.reads.push_back({o.oid, vid});
  return *snap;
}

runtime::Payload& Tx::write_object(Object& o) {
  for (const auto& w : write_set_) {
    if (w.obj == &o) return *w.redo;
  }
  // Seed the redo copy with a validated read of the current value; the
  // object thereby joins the read set, so read-modify-write increments
  // are revalidated at commit (no lost updates). The copy lands directly
  // in the redo buffer — no intermediate snapshot.
  const int s = ctx_.slot();
  ctx_.rt_.stats_.add(s, util::Counter::kReads);
  void* mem = ctx_.rt_.acquire_buf(s);
  runtime::Payload* redo = o.prototype->clone_into(mem, Runtime::kBufBytes);
  std::uint64_t vid = 0;
  if (!ctx_.try_read_words(o, rv_, redo->raw_bytes(), &vid)) {
    redo->~Payload();
    ctx_.rt_.release_buf(s, mem);
    ctx_.fail(util::Counter::kValidationFails);
  }
  read_set_.push_back({&o, vid});
  if (ctx_.rt_.recorder_.enabled()) rec_.reads.push_back({o.oid, vid});
  write_set_.push_back({&o, redo});
  ctx_.rt_.stats_.add(s, util::Counter::kWrites);
  return *redo;
}

}  // namespace zstm::tl2

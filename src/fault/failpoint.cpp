#include "fault/failpoint.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

namespace zstm::fault {
namespace {

thread_local int t_suppress_depth = 0;

// splitmix64 finalizer: whether hit #n of site s fires is a pure function
// of (seed, s, n), independent of scheduling.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_from(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

struct SiteInfo {
  const char* name;
  std::uint32_t allowed;
  Effect deflt;
};

constexpr std::uint32_t kDelayBit = effect_bit(Effect::kDelay);
constexpr std::uint32_t kAbortDelayExit =
    effect_bit(Effect::kAbort) | kDelayBit | effect_bit(Effect::kExitThread);
constexpr std::uint32_t kCasDelay = effect_bit(Effect::kCasFail) | kDelayBit;

// Allowed-effect rationale (see DESIGN.md §11 for the full table):
//  - settle/install run with a tentative version already linked into a
//    locator the caller must recycle on failure — unwinding out of them
//    (abort/exit) leaks it, so only CasFail/Delay are legal.
//  - the acquire sites are poked on every pass of ObjectStore::acquire,
//    before any tentative version exists, and each runtime passes its own
//    site; the runtimes' abort paths (and the ThreadCtx unwind) already
//    clean up everything, so Abort/Delay/ExitThread are all fair game.
//  - tl2 stripe-lock is mid-acquisition: the caller's failure path releases
//    what it holds, so CasFail is safe but unwinding would strand stripes.
//  - revalidation happens with stripes held but has an abort path that
//    releases them, so Abort is legal there (ExitThread is not: the throw
//    would bypass release_acquired).
//  - lease fence / EBR retire have no failure path at all — Delay only.
//  - pool alloc may throw bad_alloc by contract — Oom/Delay.
const SiteInfo kSites[static_cast<int>(Site::kCount)] = {
    {"store.settle_cas", kCasDelay, Effect::kCasFail},
    {"store.install_cas", kCasDelay, Effect::kCasFail},
    {"lsa.acquire", kAbortDelayExit, Effect::kAbort},
    {"cs.acquire", kAbortDelayExit, Effect::kAbort},
    {"sstm.acquire", kAbortDelayExit, Effect::kAbort},
    {"zl.acquire", kAbortDelayExit, Effect::kAbort},
    {"tl2.stripe_lock", kCasDelay, Effect::kCasFail},
    {"tl2.revalidate", effect_bit(Effect::kAbort) | kDelayBit, Effect::kAbort},
    {"timebase.lease_fence", kDelayBit, Effect::kDelay},
    {"ebr.retire", kDelayBit, Effect::kDelay},
    {"pool.alloc", effect_bit(Effect::kOom) | kDelayBit, Effect::kOom},
    // Net-layer sites (DESIGN.md §13.4): CasFail = "this I/O step fails".
    // The connection state machine has a recovery path for every one of
    // them (short reads re-enter the incremental parser, short writes stay
    // in the out-buffer, a dropped accept is just a closed fd), so no
    // effect here can corrupt server state — that is what the torture and
    // chaos `net` suites pin.
    {"net.accept", kCasDelay, Effect::kCasFail},
    {"net.read", kCasDelay, Effect::kCasFail},
    {"net.write", kCasDelay, Effect::kCasFail},
    {"net.conn_kill", effect_bit(Effect::kAbort) | kDelayBit, Effect::kAbort},
};

void bounded_spin(std::uint64_t h) {
  // 64..4159 dependent no-op iterations — long enough to widen a CAS race
  // window, short enough to never look like a hang under TSan.
  volatile std::uint64_t sink = 0;
  const std::uint64_t n = 64 + (h & 0xfff);
  for (std::uint64_t i = 0; i < n; ++i) sink = sink + i;
}

Effect parse_effect(const std::string& tok, bool* ok) {
  *ok = true;
  if (tok == "abort") return Effect::kAbort;
  if (tok == "casfail") return Effect::kCasFail;
  if (tok == "delay") return Effect::kDelay;
  if (tok == "exit") return Effect::kExitThread;
  if (tok == "oom") return Effect::kOom;
  *ok = false;
  return Effect::kNone;
}

}  // namespace

namespace detail {
std::atomic<int> g_armed_sites{0};

Effect on_hit(Site s) {
  if (t_suppress_depth > 0) return Effect::kNone;
  return registry().evaluate(s);
}
}  // namespace detail

const char* site_name(Site s) { return kSites[static_cast<int>(s)].name; }

const char* effect_name(Effect e) {
  switch (e) {
    case Effect::kNone:
      return "none";
    case Effect::kAbort:
      return "abort";
    case Effect::kCasFail:
      return "casfail";
    case Effect::kDelay:
      return "delay";
    case Effect::kExitThread:
      return "exit";
    case Effect::kOom:
      return "oom";
  }
  return "?";
}

std::uint32_t allowed_effects(Site s) {
  return kSites[static_cast<int>(s)].allowed;
}

Effect default_effect(Site s) { return kSites[static_cast<int>(s)].deflt; }

SuppressGuard::SuppressGuard() { ++t_suppress_depth; }
SuppressGuard::~SuppressGuard() { --t_suppress_depth; }

Registry::Registry() {
  if (const char* seed = std::getenv("ZSTM_FAILPOINT_SEED")) {
    seed_ = std::strtoull(seed, nullptr, 0);
  }
  if (const char* spec = std::getenv("ZSTM_FAILPOINTS")) {
    load_spec(spec);
  }
}

bool Registry::arm(Site s, double prob, std::uint64_t after, Effect effect) {
  if (!(prob >= 0.0 && prob <= 1.0)) return false;
  if (effect == Effect::kNone) effect = default_effect(s);
  if (!(allowed_effects(s) & effect_bit(effect))) return false;
  SiteState& st = sites_[static_cast<int>(s)];
  // Publish the parameters before the armed flag: evaluate() acquires the
  // flag, so a poke that observes armed also observes prob/after/effect.
  // (Re-arming a site while other threads are poking it is not supported.)
  st.prob = prob;
  st.after = after;
  st.effect = effect;
  if (!st.armed.exchange(true, std::memory_order_release)) {
    detail::g_armed_sites.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void Registry::disarm(Site s) {
  SiteState& st = sites_[static_cast<int>(s)];
  if (st.armed.exchange(false, std::memory_order_release)) {
    detail::g_armed_sites.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Registry::disarm_all() {
  for (int i = 0; i < static_cast<int>(Site::kCount); ++i) {
    disarm(static_cast<Site>(i));
  }
  reset_counts();
}

void Registry::arm_all_abort() {
  for (int i = 0; i < static_cast<int>(Site::kCount); ++i) {
    const Site s = static_cast<Site>(i);
    if (allowed_effects(s) & effect_bit(Effect::kAbort)) {
      arm(s, 1.0, 0, Effect::kAbort);
    }
  }
}

bool Registry::armed(Site s) const {
  return sites_[static_cast<int>(s)].armed.load(std::memory_order_acquire);
}

std::uint64_t Registry::hits(Site s) const {
  return sites_[static_cast<int>(s)].hits.load(std::memory_order_relaxed);
}

std::uint64_t Registry::triggers(Site s) const {
  return sites_[static_cast<int>(s)].triggers.load(std::memory_order_relaxed);
}

std::uint64_t Registry::triggers_total() const {
  std::uint64_t total = 0;
  for (int i = 0; i < static_cast<int>(Site::kCount); ++i) {
    total += triggers(static_cast<Site>(i));
  }
  return total;
}

void Registry::reset_counts() {
  for (auto& st : sites_) {
    st.hits.store(0, std::memory_order_relaxed);
    st.triggers.store(0, std::memory_order_relaxed);
  }
}

void Registry::set_seed(std::uint64_t seed) { seed_ = seed; }

Effect Registry::evaluate(Site s) {
  SiteState& st = sites_[static_cast<int>(s)];
  if (!st.armed.load(std::memory_order_acquire)) return Effect::kNone;
  const std::uint64_t ordinal =
      st.hits.fetch_add(1, std::memory_order_relaxed);
  if (ordinal < st.after) return Effect::kNone;
  const std::uint64_t h = mix(
      seed_ + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(s) + 1) +
      ordinal);
  if (st.prob < 1.0 && unit_from(h) >= st.prob) return Effect::kNone;
  st.triggers.fetch_add(1, std::memory_order_relaxed);
  switch (st.effect) {
    case Effect::kDelay:
      bounded_spin(mix(h));
      return Effect::kNone;  // delay is self-contained; caller proceeds
    case Effect::kExitThread:
      throw ThreadExit{};
    default:
      return st.effect;
  }
}

bool Registry::load_spec(const char* spec) {
  if (spec == nullptr) return false;
  bool all_ok = true;
  const std::string text(spec);
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;

    // entry := site:prob[:after[:effect]]
    std::string parts[4];
    int nparts = 0;
    std::size_t p = 0;
    while (nparts < 4) {
      std::size_t colon = entry.find(':', p);
      if (colon == std::string::npos) {
        parts[nparts++] = entry.substr(p);
        break;
      }
      parts[nparts++] = entry.substr(p, colon - p);
      p = colon + 1;
    }
    if (nparts < 2) {
      all_ok = false;
      continue;
    }

    int site_idx = -1;
    for (int i = 0; i < static_cast<int>(Site::kCount); ++i) {
      if (parts[0] == kSites[i].name) {
        site_idx = i;
        break;
      }
    }
    if (site_idx < 0) {
      all_ok = false;
      continue;
    }

    char* end = nullptr;
    const double prob = std::strtod(parts[1].c_str(), &end);
    if (end == parts[1].c_str() || *end != '\0') {
      all_ok = false;
      continue;
    }
    std::uint64_t after = 0;
    if (nparts >= 3 && !parts[2].empty()) {
      after = std::strtoull(parts[2].c_str(), &end, 0);
      if (end == parts[2].c_str() || *end != '\0') {
        all_ok = false;
        continue;
      }
    }
    Effect effect = Effect::kNone;
    if (nparts >= 4 && !parts[3].empty()) {
      bool ok = false;
      effect = parse_effect(parts[3], &ok);
      if (!ok) {
        all_ok = false;
        continue;
      }
    }
    if (!arm(static_cast<Site>(site_idx), prob, after, effect)) {
      all_ok = false;
    }
  }
  return all_ok;
}

Registry& registry() {
  static Registry r;
  return r;
}

namespace {
// poke() never reaches the registry while no site is armed, so the
// environment recipe is parsed eagerly, during static initialization: a
// binary that never names the registry would otherwise ignore
// ZSTM_FAILPOINTS.
[[maybe_unused]] const Registry& g_env_recipe = registry();
}  // namespace

}  // namespace zstm::fault

// Deterministic, seedable fault injection at named sites.
//
// A failpoint is a named place in the storage or persistence code where a
// failure can be injected on demand: an I/O error, an allocation failure,
// a torn (partially persisted) write, or a flipped bit. Production builds
// pay one relaxed atomic load per site when nothing is armed.
//
// Arming is driven by a spec string, normally taken from the
// TAR_FAILPOINTS environment variable at first use:
//
//   TAR_FAILPOINTS="page_file.read=err@0.01;persist.write=torn@2"
//
// Grammar: `site=action[@param]` entries separated by ';' or ','.
//
//   actions  err    inject Status::IoError
//            alloc  inject Status::ResourceExhausted
//            torn   persist only a prefix of the write (persistence sites;
//                   elsewhere it degrades to err)
//            flip   flip one bit of the written payload (persistence
//                   sites; elsewhere it degrades to err)
//            delay  sleep for a wall-clock delay, then succeed — models a
//                   slow device or a cold cache instead of a failure. The
//                   first parameter is the delay in milliseconds and is
//                   required: `site=delay@ms` or `site=delay@ms@param`
//                   with the usual probability/nth selector second.
//            off    disarm the site
//   param    omitted    fire on every hit
//            p in (0,1) fire with probability p — deterministic in the
//                       seed and the per-site hit counter
//            n >= 1     fire on exactly the n-th hit of the site (1-based)
//            shard:i    only hits from shard i count (i >= 0); hits from
//                       other shards — or from outside any shard scope —
//                       pass through untouched and untallied. The shard
//                       scope is declared by the hitting code with
//                       ScopedShard (ShardedStore brackets every
//                       per-shard call); it composes with the selector
//                       and delay parameters in any order, and the same
//                       site may be armed once per shard.
//
// A `seed=N` entry (or TAR_FAILPOINTS_SEED) fixes the decision seed, so a
// probabilistic spec replays the identical fire pattern run after run.
// Unknown sites, actions, or malformed parameters are configuration
// errors: Configure returns InvalidArgument, and an invalid TAR_FAILPOINTS
// environment spec aborts at startup (a typo must not silently disarm a
// fault-injection run).
//
// The site catalog lives in docs/internals.md ("Failure model").
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace tar::fail {

/// What an armed failpoint does when it fires.
enum class Action : unsigned char {
  kOff = 0,
  kError,      ///< Status::IoError
  kAllocFail,  ///< Status::ResourceExhausted
  kTornWrite,  ///< persist a prefix, then fail (persistence sites)
  kBitFlip,    ///< flip one bit of the payload (persistence sites)
  kDelay,      ///< sleep delay_ms, then proceed normally (slow I/O)
};

const char* ToString(Action action);

/// Outcome of evaluating one hit of a site.
struct FireResult {
  Action action = Action::kOff;
  /// Deterministic per-fire seed for torn/flip payload decisions.
  std::uint64_t seed = 0;
  /// The configured sleep for kDelay fires. Informational: the sleep has
  /// already happened inside Hit() by the time the caller sees this.
  double delay_ms = 0.0;
};

/// Hit/fire counters of one armed site (for sweeps and reports).
struct SiteReport {
  std::string site;
  Action action = Action::kOff;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

/// The shard index the current thread is operating on behalf of, or -1
/// outside any shard scope. Consulted by Hit() for `shard:i`-scoped
/// sites.
int CurrentShard();

/// \brief RAII shard scope for the calling thread.
///
/// ShardedStore brackets every per-shard call (stage, publish, repair,
/// and each shard tree's reads in a query) with one of these so
/// `site=...@shard:i` specs can target a single shard deterministically.
/// Nests: the previous scope is restored on destruction.
class ScopedShard {
 public:
  explicit ScopedShard(int shard);
  ~ScopedShard();

  ScopedShard(const ScopedShard&) = delete;
  ScopedShard& operator=(const ScopedShard&) = delete;

 private:
  int prev_;
};

/// \brief Process-wide registry of armed failpoints.
///
/// Thread safety: fully thread-safe. `enabled()` is one relaxed atomic
/// load (the hot-path guard); Hit/Configure serialize on an internal
/// latch, which is acceptable because failpoints are a test facility.
class FaultInjector {
 public:
  /// The process-wide injector. On first use it arms itself from the
  /// TAR_FAILPOINTS environment variable (aborting on a malformed spec).
  static FaultInjector& Global();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Replaces the armed set with `spec` (see the grammar above). An empty
  /// spec disarms everything. On error nothing is armed.
  Status Configure(const std::string& spec) TAR_EXCLUDES(mu_);

  /// Disarms every site and resets all counters.
  void Clear() TAR_EXCLUDES(mu_);

  /// True iff any site is armed. The cheap guard for hot paths.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one hit of `site` and decides whether it fires. Sites that
  /// are not armed return kOff (but the process-wide hit is not tracked;
  /// only armed sites count). A kDelay fire performs its sleep here —
  /// after the registry latch is released, so only the hitting thread
  /// stalls — which is what lets every site support `delay` without
  /// call-site changes (call sites treat kDelay like kOff).
  FireResult Hit(const char* site) TAR_EXCLUDES(mu_);

  /// Counters of every armed site.
  std::vector<SiteReport> Snapshot() const TAR_EXCLUDES(mu_);

  /// Times `site` has fired since it was armed (0 if not armed).
  std::uint64_t fires(const std::string& site) const TAR_EXCLUDES(mu_);

  /// The full site catalog (compiled in; Configure rejects anything else).
  static std::vector<std::string> KnownSites();
  static bool IsKnownSite(const std::string& site);

 private:
  FaultInjector();

  struct Site {
    Action action = Action::kOff;
    double probability = -1.0;  ///< fire chance; < 0 means "not probabilistic"
    std::uint64_t nth = 0;      ///< fire on exactly this hit; 0 = every hit
    double delay_ms = 0.0;      ///< sleep per kDelay fire
    int shard = -1;             ///< only this shard's hits count; -1 = any
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };

  mutable Mutex mu_{LockRank::kFailpoint, "failpoint.registry"};
  std::vector<std::pair<std::string, Site>> sites_ TAR_GUARDED_BY(mu_);
  std::uint64_t seed_ TAR_GUARDED_BY(mu_) = 42;
  std::atomic<bool> enabled_{false};
};

/// Evaluates `site` and converts a fire into the matching error Status:
/// kError/kTornWrite/kBitFlip -> IoError, kAllocFail -> ResourceExhausted.
/// OK when the site does not fire. Use at sites that have no payload to
/// tear or flip.
Status InjectedFault(const char* site);

}  // namespace tar::fail

/// Hot-path guard: evaluates `site` and propagates an injected fault to
/// the caller. One relaxed atomic load when nothing is armed.
#define TAR_INJECT_FAULT(site)                                  \
  do {                                                          \
    if (::tar::fail::FaultInjector::Global().enabled()) {       \
      TAR_RETURN_NOT_OK(::tar::fail::InjectedFault(site));      \
    }                                                           \
  } while (false)

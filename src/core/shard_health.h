// Shard fault-containment vocabulary: the per-shard health state machine,
// the transient-vs-permanent error classifier, and the circuit breaker
// that paces background repair attempts.
//
// The state machine (see docs/internals.md, "Shard fault containment"):
//
//   HEALTHY --- transient read failures ---> SUSPECT
//   SUSPECT --- strikes reach threshold --> QUARANTINED
//   HEALTHY/SUSPECT -- write-path failure -> QUARANTINED (immediately:
//       a shard that missed a published epoch must leave the coherent
//       cut, or merged reads would observe a torn cross-shard batch)
//   QUARANTINED ------ repair claimed -----> RECOVERING
//   RECOVERING ------- repair succeeds ----> HEALTHY
//   RECOVERING ------- repair fails -------> QUARANTINED (breaker backs
//       the next attempt off exponentially, with deterministic jitter)
//
// SUSPECT shards still serve reads and accept mutations — the strikes
// only count consecutive transient read failures, which cannot desync
// the shard from its peers. QUARANTINED and RECOVERING shards are
// excluded from coherent cuts; mutations that touch them are deferred
// into a per-shard redo buffer and replayed on repair.
#pragma once

#include <cstdint>
#include <functional>

#include "common/status.h"

namespace tar {

class TarTree;

/// \brief Health of one shard; see the file comment for the transitions.
enum class ShardHealth : unsigned char {
  kHealthy = 0,
  kSuspect,
  kQuarantined,
  kRecovering,
};

const char* ToString(ShardHealth health);

/// True for failures worth retrying in place (a flaky device, an
/// exhausted allocation, a momentary refusal); false for failures that
/// mean retrying the same call cannot help (corruption, a dead writer's
/// FailedPrecondition gate, semantic rejections). Deadline trips are
/// classified by the caller before this is consulted — they are a
/// property of the query, not of the shard.
bool IsTransientFault(const Status& status);

/// \brief Retry/backoff/repair knobs of the fault-containment layer.
struct ShardFaultOptions {
  /// Bounded in-place retries of a shard stage that failed with a
  /// transient error (the shard is only quarantined once these are
  /// exhausted).
  int write_retries = 2;

  /// Bounded retries of a transient per-shard read failure (page reads
  /// under the forest search; each retry reruns the search) before the
  /// failure counts as a suspect strike.
  int read_retries = 2;

  /// Base backoff between in-place retries; doubles per attempt.
  double retry_backoff_ms = 1.0;

  /// Consecutive transient read failures before a SUSPECT shard is
  /// quarantined. A successful read resets the strikes.
  int suspect_threshold = 3;

  /// Circuit breaker over repair attempts: base backoff, doubling per
  /// consecutive failed repair up to the cap, plus a deterministic
  /// jitter fraction seeded by `breaker_seed`.
  double repair_backoff_ms = 50.0;
  double repair_backoff_max_ms = 5000.0;
  double repair_jitter = 0.25;
  std::uint64_t breaker_seed = 42;

  /// Ceiling on deferred epoch records buffered per quarantined shard.
  /// A batch that would overflow the buffer is refused with kUnavailable
  /// before any shard mutates, so memory stays bounded and the batch
  /// remains all-or-nothing.
  std::size_t redo_limit = 4096;

  /// Structure verification run on a repaired shard before re-admission
  /// (wired to analysis::StructureVerifier::VerifyTarTree by callers
  /// that link the analysis layer; null skips the check). Injected as a
  /// hook because the store sits below the verifier in the layering.
  std::function<Status(const TarTree&)> repair_verifier;
};

/// \brief Exponential-backoff circuit breaker with deterministic jitter.
///
/// Tracks consecutive failures of a guarded operation and refuses
/// attempts until `base * 2^(failures-1)` (capped, jittered) has elapsed
/// since the last failure. Time is passed in by the caller as a
/// monotonic millisecond reading so tests can drive the breaker without
/// a clock. Not internally synchronized: callers guard it with the latch
/// that guards the rest of their health state.
class CircuitBreaker {
 public:
  CircuitBreaker() = default;
  CircuitBreaker(double base_ms, double max_ms, double jitter,
                 std::uint64_t seed)
      : base_ms_(base_ms), max_ms_(max_ms), jitter_(jitter), seed_(seed) {}

  /// True when an attempt may run now.
  bool AllowAttempt(double now_ms) const { return now_ms >= next_allowed_ms_; }

  /// Milliseconds until the next allowed attempt (0 when allowed now).
  double RetryAfterMs(double now_ms) const {
    return now_ms >= next_allowed_ms_ ? 0.0 : next_allowed_ms_ - now_ms;
  }

  /// Records a failed attempt: doubles the backoff (capped) and pushes
  /// the next allowed attempt out by it, plus jitter so a fleet of
  /// breakers armed by one fault does not retry in lockstep.
  void RecordFailure(double now_ms);

  /// Resets the breaker after a successful attempt.
  void RecordSuccess() {
    failures_ = 0;
    next_allowed_ms_ = 0.0;
  }

  int consecutive_failures() const { return failures_; }

 private:
  double base_ms_ = 50.0;
  double max_ms_ = 5000.0;
  double jitter_ = 0.25;
  std::uint64_t seed_ = 42;
  int failures_ = 0;
  double next_allowed_ms_ = 0.0;
};

}  // namespace tar

// Retry policy for the streaming engine.
//
// A RetryPolicy lets the runner re-enqueue a job that failed with a
// *transient* status — a worker died under it, or an internal/injected
// fault tripped — up to max_attempts total attempts. A retry is queued at
// once, with the job's seed and ticket unchanged, so a retried success is
// bit-identical to the result a fault-free run would have produced.
#pragma once

#include "util/status.h"

namespace mft {

struct RetryPolicy {
  /// Total attempts a job may consume, first run included; <= 1 disables
  /// retry (the default — batch and bit-identity suites see no change).
  int max_attempts = 1;
};

/// True for the statuses worth re-running: the failure says nothing about
/// the job itself, so a clean attempt can succeed (bit-identically —
/// seed and ticket are reused). Budget trips, cancellation, shedding,
/// admission rejections, and input errors are final by design, and kHung
/// is not retried — a job that ignored its AbortToken once would eat
/// another worker.
inline bool retryable_status(EngineStatus s) {
  return s == EngineStatus::kWorkerDied || s == EngineStatus::kInternal;
}

}  // namespace mft

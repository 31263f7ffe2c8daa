#pragma once

// Fault-tolerance subsystem: structured launch outcomes and policy knobs.
//
// PR 2's injector demonstrated the failure mode — a corrupted launch that
// still "succeeds" — and left the loop open. This subsystem closes it at
// three granularities:
//
//   1. launch   — ABFT checksums (ft/abft.hpp) verified inside
//                 Device::launch; failed blocks are restored from a
//                 pre-launch snapshot and re-executed, up to
//                 max_launch_retries times.
//   2. panel    — if a launch stays corrupted after its retries, TSQR
//                 recomputes the poisoned panel (the subtree's surviving
//                 inputs, saved before factorization) up to
//                 max_panel_retries times.
//   3. schedule — if a panel cannot be recovered, CAQR's look-ahead
//                 schedule falls back to the serial schedule from the
//                 original input; an unrecovered serial run is surfaced
//                 through CaqrFactorization::status(), never an abort.
//
// Every level is deterministic under the seeded injector: retries consume
// fresh launch ordinals, so the whole recovery trajectory is a pure function
// of the fault seed. Detection-only mode (max_launch_retries == 0) verifies
// and reports but repairs nothing — the "same seeds produce
// detected-and-reported failures" half of the acceptance contract.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace caqr::ft {

namespace detail {

// FNV-1a over raw bytes: the bitwise checksum shared by the ABFT
// untouched-region hashes (ft/abft.hpp) and the checkpoint payload
// integrity check (ft/checkpoint.hpp).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = kFnvOffset) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace detail

// Per-launch outcome, ordered by badness so outcomes can be merged.
enum class Severity {
  Ok = 0,           // verified clean on the first attempt (or ABFT off)
  Corrected = 1,    // corruption detected and repaired by retry
  Unrecovered = 2,  // corruption survived every retry attempt
};

inline Severity worse(Severity a, Severity b) { return a > b ? a : b; }
inline const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Ok: return "ok";
    case Severity::Corrected: return "corrected";
    case Severity::Unrecovered: return "unrecovered";
  }
  return "?";
}

// Device-level fault-tolerance policy (Device::set_fault_tolerance).
struct FtOptions {
  // Master switch: encode/verify ABFT checksums around every functional
  // launch of the four core kernels. Off by default — the clean path is
  // bit-and-cycle identical to a build without the subsystem.
  bool abft = false;
  // Launch-level bounded retry: how many times the failed blocks of one
  // launch may be restored + re-executed. 0 = detect and report only.
  int max_launch_retries = 2;
  // TSQR panel-level redo budget (whole-panel recompute from saved inputs).
  int max_panel_retries = 1;
  // CAQR: fall back LookAhead -> Serial when a panel stays unrecovered.
  bool schedule_fallback = true;
  // ABFT detection threshold for the apply-kernel checksums (the factor
  // kernels verify by exact replay and ignore it): a checksum mismatch is
  // flagged when it exceeds tol_multiplier * eps * sqrt(block height).
  // Large enough that rounding never trips it (validated by the clean-sweep
  // tests); a flip escaping below it is backward error in A of the same
  // order, so tighten it (the recovery sweep uses 16) when downstream
  // accuracy demands a smaller escape window.
  double tol_multiplier = 512.0;

  bool recovery() const { return max_launch_retries > 0; }
};

// Diagnostics for one guarded launch that was not clean.
struct LaunchReport {
  std::string kernel;
  long long launch_ordinal = 0;  // ordinal of the first (faulty) attempt
  Severity severity = Severity::Ok;
  int attempts = 1;             // executions of the failed block set
  idx faulty_blocks = 0;        // blocks that ever failed verification
  idx unrecovered_blocks = 0;   // blocks still failing after the last retry
  bool bystander_corruption = false;  // corruption outside any block's
                                      // write-set (restored, never re-run)
};

// Cumulative per-device counters (Device::ft_summary()).
struct Summary {
  long long guarded_launches = 0;
  long long corrected_launches = 0;
  long long unrecovered_launches = 0;
  long long retried_blocks = 0;

  bool ok() const { return unrecovered_launches == 0; }
};

// End-to-end outcome of one CAQR factorization (CaqrFactorization::status(),
// dist::DistCaqrFactorization::status()) — and, via serve::QrResponse, of
// one served solve. The grid counters stay zero on single-device runs.
struct RunStatus {
  Severity severity = Severity::Ok;
  long long corrected_launches = 0;
  long long unrecovered_launches = 0;  // after all recovery levels
  int panel_retries = 0;
  bool schedule_fallback = false;  // LookAhead degraded to Serial
  bool resumed_from_checkpoint = false;
  idx resumed_at_panel = 0;
  // Grid-level (dist/) counters: cross-device transfers recovered by
  // checksum-detected resend, transfers whose resend budget exhausted, total
  // resend attempts, and device losses absorbed by shard reassignment.
  long long corrected_transfers = 0;
  long long unrecovered_transfers = 0;
  long long transfer_retries = 0;
  int device_losses = 0;

  bool ok() const { return severity != Severity::Unrecovered; }

  // Pairwise merge (the grid driver folds per-attempt statuses together).
  void merge(const RunStatus& o) {
    severity = worse(severity, o.severity);
    corrected_launches += o.corrected_launches;
    unrecovered_launches += o.unrecovered_launches;
    panel_retries += o.panel_retries;
    schedule_fallback = schedule_fallback || o.schedule_fallback;
    corrected_transfers += o.corrected_transfers;
    unrecovered_transfers += o.unrecovered_transfers;
    transfer_retries += o.transfer_retries;
    device_losses += o.device_losses;
  }
};

}  // namespace caqr::ft

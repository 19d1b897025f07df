//===- workloads/RepetitiveTrace.h - Chunk-repetitive trace gen -*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic generator of chunk-repetitive traces — the workload
/// shape chunk memoization (docs/trace-format.md digests, --memo) is
/// built for: long traces whose event stream is a small set of distinct
/// "bodies" repeated many times, as produced by iterative benchmarks,
/// event-loop servers, and replayed recordings.
///
/// The generator is chunk-aligned by construction: the prelude (thread
/// forks plus padding) fills exactly one wire chunk, and every body fills
/// exactly one chunk, so each repetition of a body encodes to a
/// byte-identical chunk payload (per-chunk symbol tables and predictor
/// resets make chunk encoding context-free). Bodies are sync-free;
/// workers run concurrently from the prelude's forks, so racy bodies
/// report the same commutativity races on every occurrence.
///
/// SyncEveryBodies > 0 inserts a full chunk of lock acquire/release
/// churn between body rounds. Each release bumps its thread's clock, so
/// every body occurrence sees fresh entry state: the adversarial shape
/// that forces the detector-summary layer to fall back to full
/// interpretation on 100% of chunks (the reader still verifies every
/// repeat against its payload store).
///
//===----------------------------------------------------------------------===//

#ifndef CRD_WORKLOADS_REPETITIVETRACE_H
#define CRD_WORKLOADS_REPETITIVETRACE_H

#include "trace/Event.h"

#include <cstddef>
#include <functional>
#include <iosfwd>

namespace crd {

/// Sizing knobs for the chunk-repetitive trace.
struct RepetitiveTraceConfig {
  unsigned Threads = 4;          ///< Worker threads forked in the prelude.
  unsigned DistinctBodies = 64;  ///< Distinct body payloads.
  unsigned Repetitions = 16;     ///< Occurrences of each body.
  unsigned EventsPerBody = 4096; ///< Events per body == wire chunk size.
  unsigned ObjectsPerBody = 4;   ///< Distinct dictionaries per body.
  /// Include a pair of conflicting puts on a shared key per body (two
  /// commutativity races per body occurrence); otherwise bodies are pure
  /// per-thread-key gets and race-free.
  bool Racy = true;
  /// When > 0, emit one full chunk of per-thread lock acquire/release
  /// churn before every N-th round of bodies (see the file comment).
  unsigned SyncEveryBodies = 0;
};

/// Emits the trace event-by-event through \p Emit (prelude first, then
/// Repetitions rounds of the DistinctBodies bodies). Returns the number
/// of events emitted — always a multiple of EventsPerBody.
size_t buildRepetitiveTrace(const RepetitiveTraceConfig &Config,
                            const std::function<void(const Event &)> &Emit);

/// Writes the trace to \p OS in the binary wire format with chunk size
/// EventsPerBody and content digests enabled, so repeated bodies become
/// byte-identical chunks. Returns the number of events written.
size_t writeRepetitiveTrace(std::ostream &OS,
                            const RepetitiveTraceConfig &Config);

} // namespace crd

#endif // CRD_WORKLOADS_REPETITIVETRACE_H

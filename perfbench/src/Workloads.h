//===- perfbench/src/Workloads.h - Workload entry points --------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Inputs.h"

#include "wire/WireReader.h"

namespace perfbench {

/// `crd check` over an in-memory trace of shape \p S with \p Memo: the
/// h2-check, racy-check and repeat-memo workloads.
Result runCheckWorkload(const RunOptions &Opts, Shape S,
                        crd::wire::MemoMode Memo);

/// A `crd serve` daemon child fed by one closed-loop generator thread:
/// the serve-racy workload.
Result runServeWorkload(const RunOptions &Opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

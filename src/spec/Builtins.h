//===- spec/Builtins.h - Builtin commutativity specifications ---*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ready-made ECL commutativity specifications for common abstract data
/// types. Each builtin is the shipped file specs/<name>.spec, compiled in
/// by src/spec/CMakeLists.txt and parsed once on first use, so `--spec
/// specs/<name>.spec` and the builtin are one definition.
/// dictionarySpec() is exactly Fig 6 of the paper; the others follow the
/// same style (the paper names sets as a motivating example ECL covers but
/// SIMPLE does not).
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SPEC_BUILTINS_H
#define CRD_SPEC_BUILTINS_H

#include "spec/Spec.h"

namespace crd {

/// The dictionary (map) specification of paper Fig 6.
///
/// Methods (flattened variable positions in parentheses):
///   put(k, v)/p   (k=0, v=1, p=2)
///   get(k)/v      (k=0, v=1)
///   size()/r      (r=0)
///
/// Formulas:
///   ϕ(put,put)  = k1 ≠ k2 ∨ (v1 = p1 ∧ v2 = p2)
///   ϕ(put,get)  = k1 ≠ k2 ∨ v1 = p1
///   ϕ(put,size) = (v1 = nil ∧ p1 = nil) ∨ (v1 ≠ nil ∧ p1 ≠ nil)
///   ϕ(get,get) = ϕ(get,size) = ϕ(size,size) = true
const ObjectSpec &dictionarySpec();

/// A set with add(k)/changed, remove(k)/changed, contains(k)/present,
/// size()/n. The changed/present returns expose the hidden state needed to
/// phrase commutativity in ECL ("shadow return values", paper §4.1).
const ObjectSpec &setSpec();

/// A counter with inc(), dec() (no returns) and read()/v. Increments
/// commute with each other but not with reads.
const ObjectSpec &counterSpec();

/// A single-cell register with write(v)/prev and read()/v. Writes commute
/// only when both are no-ops (v = prev) — note "v1 = v2" would NOT be
/// expressible in ECL (cross-side equality), which is why the specification
/// uses the shadow return.
const ObjectSpec &registerSpec();

/// A FIFO queue with enq(v)/wasEmpty, deq()/v/ok and peek()/v/ok (ok=false
/// means the queue was empty and v is nil). Two enqueues never commute
/// (they fix the order); dequeues commute only when both failed; an
/// enqueue commutes with a dequeue only vacuously (the enqueue hit a
/// non-empty queue and the dequeue failed), and with any peek when it hit
/// a non-empty queue.
const ObjectSpec &queueSpec();

} // namespace crd

#endif // CRD_SPEC_BUILTINS_H

//===- trace/Action.h - Method invocations (paper §3.1) ---------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Actions: atomic method invocations o.m(~x)/~y on shared objects
/// (paper §3.1). Objects are assumed linearizable, so an invocation is a
/// single atomic transition and is fully described by the object, the method
/// and the concrete argument/return values.
///
/// Values are stored as one contiguous sequence ~u~v (arguments then
/// returns) in one of three places:
///   * inline, when the action has at most InlineValues values — the
///     dictionary/set/queue workloads never exceed three, so owning
///     actions are allocation-free in the common case;
///   * a heap block, for larger owning actions;
///   * externally (an arena view), for actions decoded from the wire —
///     the values belong to the arena of the batch they were decoded
///     into, and the action holds only a pointer.
/// Copying an action always deep-copies the values into the new action
/// (inline or heap), so a copy is safe to keep past the source arena's
/// reset; moving preserves the view. This is the lifetime contract the
/// streaming pipeline relies on: a batch pins every action appended to it
/// from elsewhere into its own arena (EventBatch::append).
///
//===----------------------------------------------------------------------===//

#ifndef CRD_TRACE_ACTION_H
#define CRD_TRACE_ACTION_H

#include "support/Arena.h"
#include "support/Ids.h"
#include "support/Symbol.h"
#include "support/Value.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace crd {

/// One method invocation o.m(~u)/~v.
///
/// The flattened sequence w1..wn = ~u~v (arguments followed by returns) is
/// how specification variables are numbered (paper §6.2), so values() and
/// value(i) expose that view directly.
class Action {
public:
  /// Values held inline by owning actions. put(k,v)/prev — the widest
  /// shape the built-in workloads emit — uses three.
  static constexpr uint32_t InlineValues = 4;

  Action() = default;

  Action(ObjectId Obj, Symbol Method, const std::vector<Value> &Args,
         const std::vector<Value> &Rets)
      : Obj(Obj), Method(Method), NArgs(static_cast<uint32_t>(Args.size())),
        NRets(static_cast<uint32_t>(Rets.size())) {
    Value *Dst = allocateOwned(NArgs + NRets);
    std::copy(Args.begin(), Args.end(), Dst);
    std::copy(Rets.begin(), Rets.end(), Dst + NArgs);
  }

  /// Convenience constructor for the common single-return shape.
  Action(ObjectId Obj, Symbol Method, const std::vector<Value> &Args,
         Value Ret)
      : Obj(Obj), Method(Method), NArgs(static_cast<uint32_t>(Args.size())),
        NRets(1) {
    Value *Dst = allocateOwned(NArgs + 1);
    std::copy(Args.begin(), Args.end(), Dst);
    Dst[NArgs] = Ret;
  }

  /// View constructor: \p Vals points at NArgs arguments followed by NRets
  /// returns owned by someone else (a decoded batch's arena). The action
  /// is valid only as long as that storage; copy it to detach.
  Action(ObjectId Obj, Symbol Method, const Value *Vals, uint32_t NArgs,
         uint32_t NRets)
      : Obj(Obj), Method(Method), Vals(Vals), NArgs(NArgs), NRets(NRets) {}

  Action(const Action &Other) { copyFrom(Other); }

  Action &operator=(const Action &Other) {
    if (this != &Other) {
      Heap.reset();
      copyFrom(Other);
    }
    return *this;
  }

  Action(Action &&Other) noexcept { moveFrom(std::move(Other)); }

  Action &operator=(Action &&Other) noexcept {
    if (this != &Other) {
      Heap.reset();
      moveFrom(std::move(Other));
    }
    return *this;
  }

  ObjectId object() const { return Obj; }
  Symbol method() const { return Method; }
  std::span<const Value> args() const { return {Vals, NArgs}; }
  std::span<const Value> rets() const { return {Vals + NArgs, NRets}; }

  /// True when this action's values live in storage it does not own (see
  /// the view constructor).
  bool isView() const {
    return Vals != nullptr && Vals != Inline && Vals != Heap.get();
  }

  /// Number of flattened values: |args| + |rets|.
  size_t numValues() const { return size_t(NArgs) + NRets; }

  /// The i-th flattened value (0-based over args then rets).
  const Value &value(size_t I) const {
    assert(I < numValues() && "flattened value index out of range");
    return Vals[I];
  }

  /// Flattened values ~u~v as one vector.
  std::vector<Value> values() const;

  /// Flattened values ~u~v as a view over the action's contiguous value
  /// storage. Valid as long as the action (or, for views, the arena).
  std::span<const Value> flatValues() const { return {Vals, numValues()}; }

  /// Copies this action, placing spilled values (beyond the inline
  /// capacity) in \p Spill instead of a per-action heap block. The copy is
  /// owning for small actions and an arena view otherwise, so batch
  /// owners that reset their arena between batches copy actions of any
  /// size without heap traffic.
  Action copyInto(Arena &Spill) const {
    size_t Count = numValues();
    if (Count <= InlineValues)
      return *this; // Copy ctor lands inline: already allocation-free.
    Value *Block = Spill.allocate<Value>(Count);
    std::copy(Vals, Vals + Count, Block);
    return Action(Obj, Method, Block, NArgs, NRets);
  }

  friend bool operator==(const Action &A, const Action &B) {
    return A.Obj == B.Obj && A.Method == B.Method && A.NArgs == B.NArgs &&
           A.NRets == B.NRets &&
           std::equal(A.Vals, A.Vals + A.numValues(), B.Vals);
  }
  friend bool operator!=(const Action &A, const Action &B) {
    return !(A == B);
  }

  /// Renders e.g. `o1.put("a.com", 7)/nil`.
  std::string toString() const;

  /// Upper bound of the bytes renderText() writes (support/TextRender.h).
  size_t textBound() const;
  /// Writes toString()'s text at \p Out; returns the end.
  char *renderText(char *Out) const;

private:
  /// Points Vals at owned storage for \p Count values (inline if they fit,
  /// a fresh heap block otherwise) and returns it for filling.
  Value *allocateOwned(size_t Count) {
    Value *Dst = Inline;
    if (Count > InlineValues) {
      Heap = std::make_unique<Value[]>(Count);
      Dst = Heap.get();
    }
    Vals = Dst;
    return Dst;
  }

  /// Deep copy: always lands in owned storage, detaching from any arena
  /// the source viewed. Requires Heap to be empty.
  void copyFrom(const Action &Other) {
    Obj = Other.Obj;
    Method = Other.Method;
    NArgs = Other.NArgs;
    NRets = Other.NRets;
    size_t Count = Other.numValues();
    if (Count == 0) {
      Vals = nullptr;
      return;
    }
    std::copy(Other.Vals, Other.Vals + Count, allocateOwned(Count));
  }

  /// Move: steals heap blocks, copies inline values, and keeps views as
  /// views (the values stay in the external storage). Requires Heap to be
  /// empty.
  void moveFrom(Action &&Other) {
    Obj = Other.Obj;
    Method = Other.Method;
    NArgs = Other.NArgs;
    NRets = Other.NRets;
    if (Other.Vals == Other.Inline) {
      std::copy(Other.Inline, Other.Inline + Other.numValues(), Inline);
      Vals = Inline;
    } else {
      Heap = std::move(Other.Heap); // Null for views; Vals stays external.
      Vals = Other.Vals;
    }
    Other.Vals = nullptr;
    Other.NArgs = Other.NRets = 0;
  }

  ObjectId Obj;
  Symbol Method;
  /// The flattened values ~u~v: Inline, Heap.get(), or external storage.
  const Value *Vals = nullptr;
  uint32_t NArgs = 0;
  uint32_t NRets = 0;
  Value Inline[InlineValues];
  std::unique_ptr<Value[]> Heap;
};

std::ostream &operator<<(std::ostream &OS, const Action &A);

} // namespace crd

#endif // CRD_TRACE_ACTION_H

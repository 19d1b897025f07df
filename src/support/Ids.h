//===- support/Ids.h - Strongly typed identifiers ---------------*- C++ -*-===//
//
// Part of the CRD project: a reproduction of "Commutativity Race Detection"
// (Dimitrov, Raychev, Vechev, Koskinen; PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strongly typed integer identifiers for threads, shared objects, locks,
/// methods and memory locations. Using distinct wrapper types prevents the
/// classic bug of passing a lock id where a thread id is expected.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_IDS_H
#define CRD_SUPPORT_IDS_H

#include <cstddef>
#include <cstdint>
#include <functional>

namespace crd {

/// CRTP base for strongly typed 32-bit identifiers.
///
/// Each derived type is an opaque index. Identifiers are totally ordered and
/// hashable so they can key both ordered and unordered containers.
template <typename Derived> class IdBase {
public:
  constexpr IdBase() = default;
  constexpr explicit IdBase(uint32_t Index) : Index(Index) {}

  /// Returns the raw index. Useful for indexing dense arrays.
  constexpr uint32_t index() const { return Index; }

  friend constexpr bool operator==(Derived A, Derived B) {
    return A.Index == B.Index;
  }
  friend constexpr bool operator!=(Derived A, Derived B) {
    return A.Index != B.Index;
  }
  friend constexpr bool operator<(Derived A, Derived B) {
    return A.Index < B.Index;
  }

private:
  uint32_t Index = 0;
};

/// Identifies a thread of the analyzed program.
class ThreadId : public IdBase<ThreadId> {
  using IdBase::IdBase;

public:
  constexpr ThreadId() = default;
  constexpr explicit ThreadId(uint32_t Index) : IdBase(Index) {}
};

/// Thread ids index dense per-thread tables (vector clocks and their race
/// snapshots), so trace input keeps them below this bound, where those
/// tables cost a few MB. Both trace decoders reject larger ids, for an
/// event's thread and for a fork or join target.
inline constexpr uint32_t ThreadIdLimit = 1u << 16;

/// Identifies a shared object (e.g. one ConcurrentHashMap instance).
class ObjectId : public IdBase<ObjectId> {
public:
  constexpr ObjectId() = default;
  constexpr explicit ObjectId(uint32_t Index) : IdBase(Index) {}
};

/// Identifies a lock of the analyzed program.
class LockId : public IdBase<LockId> {
public:
  constexpr LockId() = default;
  constexpr explicit LockId(uint32_t Index) : IdBase(Index) {}
};

/// Identifies a low-level memory location (field, array slot, counter) as
/// seen by the FastTrack read-write detector.
class VarId : public IdBase<VarId> {
public:
  constexpr VarId() = default;
  constexpr explicit VarId(uint32_t Index) : IdBase(Index) {}
};

} // namespace crd

namespace std {
template <> struct hash<crd::ThreadId> {
  size_t operator()(crd::ThreadId Id) const noexcept { return Id.index(); }
};
template <> struct hash<crd::ObjectId> {
  size_t operator()(crd::ObjectId Id) const noexcept { return Id.index(); }
};
template <> struct hash<crd::LockId> {
  size_t operator()(crd::LockId Id) const noexcept { return Id.index(); }
};
template <> struct hash<crd::VarId> {
  size_t operator()(crd::VarId Id) const noexcept { return Id.index(); }
};
} // namespace std

#endif // CRD_SUPPORT_IDS_H

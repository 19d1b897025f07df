//===- support/SmallVec.h - Inline-storage vector for POD types -*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small vector with N elements of inline storage, restricted to
/// trivially copyable element types so every operation is memcpy/assign.
/// Backs VectorClock components and other hot-path arrays where the
/// common case fits inline: a clock copy (race materialization, Table 1
/// lock snapshots) then touches no allocator at all, and the heap path
/// only engages past N elements.
///
/// Deliberately minimal — only the operations the clock code needs —
/// and unlike std::vector, resize() shrinks without releasing capacity,
/// and copy-assignment reuses existing capacity, which is what makes
/// pooled clock snapshots allocation-free in the steady state.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_SMALLVEC_H
#define CRD_SUPPORT_SMALLVEC_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace crd {

template <typename T, unsigned N> class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is restricted to trivially copyable types");

public:
  SmallVec() = default;

  SmallVec(const SmallVec &Other) { assignFrom(Other); }

  SmallVec &operator=(const SmallVec &Other) {
    if (this != &Other)
      assignFrom(Other);
    return *this;
  }

  SmallVec(SmallVec &&Other) noexcept { stealFrom(Other); }

  SmallVec &operator=(SmallVec &&Other) noexcept {
    if (this != &Other) {
      releaseHeap();
      stealFrom(Other);
    }
    return *this;
  }

  ~SmallVec() { releaseHeap(); }

  size_t size() const { return Len; }
  bool empty() const { return Len == 0; }
  size_t capacity() const { return Cap; }

  T *data() { return Data; }
  const T *data() const { return Data; }

  T &operator[](size_t I) {
    assert(I < Len);
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Len);
    return Data[I];
  }

  T &back() {
    assert(Len != 0);
    return Data[Len - 1];
  }
  const T &back() const {
    assert(Len != 0);
    return Data[Len - 1];
  }

  T *begin() { return Data; }
  T *end() { return Data + Len; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Len; }

  void push_back(T V) {
    if (Len == Cap)
      grow(Len + 1);
    Data[Len++] = V;
  }

  void pop_back() {
    assert(Len != 0);
    --Len;
  }

  /// Grows to \p NewLen zero-filling new elements, or shrinks without
  /// releasing capacity.
  void resize(size_t NewLen) {
    if (NewLen > Len) {
      if (NewLen > Cap)
        grow(NewLen);
      std::memset(Data + Len, 0, (NewLen - Len) * sizeof(T));
    }
    Len = static_cast<uint32_t>(NewLen);
  }

  void clear() { Len = 0; }

  void assign(const T *Src, size_t Count) {
    if (Count > Cap)
      grow(Count);
    // An empty source may be null, and memcpy from null is undefined even
    // for zero bytes.
    if (Count != 0)
      std::memcpy(Data, Src, Count * sizeof(T));
    Len = static_cast<uint32_t>(Count);
  }

  friend bool operator==(const SmallVec &A, const SmallVec &B) {
    return A.Len == B.Len &&
           std::memcmp(A.Data, B.Data, A.Len * sizeof(T)) == 0;
  }
  friend bool operator!=(const SmallVec &A, const SmallVec &B) {
    return !(A == B);
  }

private:
  bool onHeap() const { return Data != Inline; }

  void assignFrom(const SmallVec &Other) { assign(Other.Data, Other.Len); }

  /// Takes Other's heap buffer (or memcpys its inline one) and leaves it
  /// empty-inline. Requires this->Data to be released or inline.
  void stealFrom(SmallVec &Other) {
    if (Other.onHeap()) {
      Data = Other.Data;
      Cap = Other.Cap;
    } else {
      Data = Inline;
      Cap = N;
      std::memcpy(Inline, Other.Inline, Other.Len * sizeof(T));
    }
    Len = Other.Len;
    Other.Data = Other.Inline;
    Other.Cap = N;
    Other.Len = 0;
  }

  void releaseHeap() {
    if (onHeap())
      delete[] Data;
  }

  void grow(size_t Needed) {
    size_t NewCap = Cap * 2;
    while (NewCap < Needed)
      NewCap *= 2;
    T *NewData = new T[NewCap];
    std::memcpy(NewData, Data, Len * sizeof(T));
    releaseHeap();
    Data = NewData;
    Cap = static_cast<uint32_t>(NewCap);
  }

  T Inline[N];
  T *Data = Inline;
  uint32_t Len = 0;
  uint32_t Cap = N;
};

} // namespace crd

#endif // CRD_SUPPORT_SMALLVEC_H

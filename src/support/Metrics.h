//===- support/Metrics.h - Metrics layer ------------------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability primitives threaded through the detector stack:
/// single-writer counters, fixed-bucket histograms, and a monotonic
/// nanosecond clock. They are always compiled: an increment is one plain
/// add, and clocks are read at batch or chunk granularity, never per
/// event.
///
/// Concurrency model: every counter and histogram has exactly ONE writer
/// (the detector thread, a specific producer or collector thread).
/// Readers only look after the owning pipeline has quiesced, so plain
/// non-atomic fields suffice — what the layer guarantees instead is
/// *placement*: `Counter` is padded to a cache line so per-thread
/// counters laid out in arrays never share a line across writer threads
/// (MetricsTest hammers this).
///
/// Snapshots are emitted as JSON through `JsonWriter`. The snapshot schema
/// is documented in `docs/observability.md`.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_METRICS_H
#define CRD_SUPPORT_METRICS_H

#include "support/JsonEscape.h"

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace crd {
namespace metrics {

/// Always true; kept only because perfbench reads it.
inline constexpr bool Enabled = true;

/// Cache line size used for counter padding (std::hardware_destructive_
/// interference_size is not portable across the toolchains we build on).
inline constexpr size_t CacheLineBytes = 64;

/// Monotonic nanoseconds (steady clock). All `*_ns` snapshot fields are
/// differences of this clock.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Single-writer event counter, padded so arrays of counters written by
/// different threads never false-share.
class alignas(CacheLineBytes) Counter {
public:
  void inc() { ++V; }
  void add(uint64_t N) { V += N; }
  uint64_t get() const { return V; }
  void reset() { V = 0; }

private:
  uint64_t V = 0;
};

/// Fixed-bucket histogram with power-of-two bucketing: bucket i counts
/// values in [2^(i-1), 2^i) (bucket 0 counts zero), the last bucket absorbs
/// the tail. Used for wide-range quantities (latencies in ns).
template <size_t N> class Pow2Histogram {
  static_assert(N >= 2, "a histogram needs at least two buckets");

public:
  void record(uint64_t V) {
    ++Buckets[bucketOf(V)];
    ++Total;
    Sum += V;
    if (V > Peak)
      Peak = V;
  }

  /// Bucket index for \p V: 0 for 0, otherwise 1 + floor(log2 V), capped.
  static constexpr size_t bucketOf(uint64_t V) {
    size_t B = 0;
    while (V != 0 && B < N - 1) {
      V >>= 1;
      ++B;
    }
    return B;
  }

  static constexpr size_t bucketCount() { return N; }
  uint64_t bucket(size_t I) const { return Buckets[I]; }
  uint64_t count() const { return Total; }
  uint64_t sum() const { return Sum; }
  uint64_t max() const { return Peak; }

  std::array<uint64_t, N> counts() const { return Buckets; }

private:
  std::array<uint64_t, N> Buckets{};
  uint64_t Total = 0;
  uint64_t Sum = 0;
  uint64_t Peak = 0;
};

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

/// Minimal streaming JSON emitter: nested objects/arrays, pretty-printed
/// with two-space indentation, string escaping per RFC 8259. No buffering
/// beyond the target ostream; misuse (value without key inside an object)
/// is the caller's bug, kept cheap to spot by the structured field()
/// helpers.
class JsonWriter {
public:
  explicit JsonWriter(std::ostream &OS) : OS(OS) {}

  void beginObject() {
    prefix();
    OS << '{';
    push(/*IsArray=*/false);
  }
  void endObject() {
    pop();
    OS << '}';
  }
  void beginArray() {
    prefix();
    OS << '[';
    push(/*IsArray=*/true);
  }
  void endArray() {
    pop();
    OS << ']';
  }

  /// Emits `"K":` inside the current object; the next emission is its value.
  void key(std::string_view K) {
    prefix();
    writeString(K);
    OS << ": ";
    PendingValue = true;
  }

  void value(uint64_t V) {
    prefix();
    OS << V;
  }
  void value(int64_t V) {
    prefix();
    OS << V;
  }
  void value(double V) {
    prefix();
    // JSON has no NaN/Inf; clamp to null.
    if (V != V || V > 1.7e308 || V < -1.7e308)
      OS << "null";
    else
      OS << V;
  }
  void value(bool V) {
    prefix();
    OS << (V ? "true" : "false");
  }
  void value(std::string_view V) {
    prefix();
    writeString(V);
  }
  /// Without this overload a string literal would take the pointer→bool
  /// standard conversion over the string_view constructor.
  void value(const char *V) { value(std::string_view(V)); }

  void field(std::string_view K, uint64_t V) {
    key(K);
    value(V);
  }
  void field(std::string_view K, double V) {
    key(K);
    value(V);
  }
  void field(std::string_view K, bool V) {
    key(K);
    value(V);
  }
  void field(std::string_view K, std::string_view V) {
    key(K);
    value(V);
  }
  void field(std::string_view K, const char *V) {
    key(K);
    value(std::string_view(V));
  }

  /// `"K": [a, b, ...]` from any uint64 range (histogram bucket arrays).
  template <typename Range> void fieldArray(std::string_view K, const Range &R) {
    key(K);
    beginArray();
    for (uint64_t V : R)
      value(V);
    endArray();
  }

private:
  struct Level {
    bool IsArray;
    bool HasItems = false;
  };

  void push(bool IsArray) {
    Stack.push_back({IsArray});
    PendingValue = false;
  }
  void pop() {
    bool HadItems = Stack.back().HasItems;
    Stack.pop_back();
    if (HadItems) {
      OS << '\n';
      indent(Stack.size()); // Close at the depth of the popped container.
    }
  }

  /// Comma/newline/indent bookkeeping shared by every emission.
  void prefix() {
    if (PendingValue) { // Value directly after its key: stay on the line.
      PendingValue = false;
      return;
    }
    if (Stack.empty())
      return;
    if (Stack.back().HasItems)
      OS << ',';
    Stack.back().HasItems = true;
    OS << '\n';
    indent(Stack.size());
  }

  void indent(size_t Levels) {
    for (size_t I = 0; I < Levels; ++I)
      OS << "  ";
  }

  void writeString(std::string_view S) {
    std::string Escaped;
    appendJsonEscaped(Escaped, S);
    OS << '"' << Escaped << '"';
  }

  std::ostream &OS;
  std::vector<Level> Stack;
  bool PendingValue = false;
};

} // namespace metrics
} // namespace crd

#endif // CRD_SUPPORT_METRICS_H

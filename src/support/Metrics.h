//===- support/Metrics.h - Metrics layer ------------------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability primitives threaded through the detector stack: a
/// monotonic nanosecond clock and the JSON snapshot writer. Counters are
/// plain `uint64_t` fields of the component they count; an increment is
/// one add, and clocks are read at batch or chunk granularity, never per
/// event.
///
/// Concurrency model: every counter has exactly ONE writer at a time, the
/// thread feeding its pipeline (in `crd serve`, whichever worker runs the
/// session; a session runs on at most one worker at once, and the work
/// queue's lock orders one worker's writes before the next one's reads).
/// Readers only look after the owning pipeline has quiesced, so plain
/// non-atomic fields suffice. No counter is shared between threads, so
/// none needs padding against false sharing.
///
/// Snapshots are emitted as JSON through `JsonWriter`. The snapshot schema
/// is documented in `docs/observability.md`.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_METRICS_H
#define CRD_SUPPORT_METRICS_H

#include "support/JsonEscape.h"

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

/// Monotonic nanoseconds (steady clock). All `*_ns` snapshot fields are
/// differences of this clock.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

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

//===- bench/report.h - Machine-readable bench reports ----------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny JSON emitter for benchmark results, so successive PRs can track
/// the performance trajectory from committed BENCH_*.json artifacts without
/// parsing human-oriented tables. One report = one tool run = one list of
/// named measurements.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_BENCH_REPORT_H
#define CRD_BENCH_REPORT_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(CRD_BENCH_ALLOC_COUNT)
#include <atomic>
#include <cstdlib>
#include <new>
#endif

namespace crd {
namespace bench {

#if defined(CRD_BENCH_ALLOC_COUNT)
/// Global heap-allocation counter backing the allocs_per_event metric.
/// Monotonic; callers sample before/after a run and difference the reads.
inline std::atomic<uint64_t> &allocCounter() {
  static std::atomic<uint64_t> Counter{0};
  return Counter;
}

inline uint64_t allocCount() {
  return allocCounter().load(std::memory_order_relaxed);
}
#else
inline uint64_t allocCount() { return 0; }
#endif

/// Best-effort short git revision of the working tree the bench binary is
/// run from (not where it was built — the artifact describes the code that
/// produced the numbers, and a stale binary is a regeneration bug that the
/// rev makes visible). "unknown" when git or the repository is absent.
inline std::string gitRevision() {
#if defined(_WIN32)
  return "unknown";
#else
  std::string Rev;
  if (FILE *P = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char Buf[64];
    if (std::fgets(Buf, sizeof(Buf), P))
      Rev.assign(Buf);
    while (!Rev.empty() && (Rev.back() == '\n' || Rev.back() == '\r'))
      Rev.pop_back();
    if (::pclose(P) != 0)
      Rev.clear();
  }
  return Rev.empty() ? "unknown" : Rev;
#endif
}

/// One measured configuration.
struct BenchEntry {
  std::string Name;      ///< e.g. "binary/decode".
  /// Concurrency width of the configuration (producers, daemon workers);
  /// 0 for single-threaded configurations. Emitted as "shards".
  unsigned Shards = 0;
  size_t Events = 0;     ///< Trace events processed per run.
  double Seconds = 0.0;  ///< Median wall time over the repetitions.
  double EventsPerSec = 0.0;
  size_t Races = 0;      ///< Races reported (sanity anchor for diffs).
  unsigned Reps = 0;     ///< Timed repetitions behind the median.
  /// Median heap allocations per event across the timed repetitions.
  /// Only meaningful when the tool is built with CRD_BENCH_ALLOC_COUNT
  /// (the define routes global operator new through a counter); -1 when
  /// the counter is compiled out, and the JSON field is omitted.
  double AllocsPerEvent = -1.0;
  /// Events rejected by backpressure during the run (ingestion benches
  /// under DropNewest). -1 = not applicable, and the JSON field is
  /// omitted. Informational: bench_compare.py ignores it — drop counts
  /// are scheduling-dependent, not a regression signal.
  int64_t Drops = -1;
};

/// Times \p Run (which returns the race count) with \p Warmup discarded
/// warmup runs followed by \p Reps timed repetitions, and keeps the median
/// wall time. The warmup pulls code and the workload's data into cache;
/// the median (unlike best-of or mean) is robust against both one-off
/// stalls and turbo/cold-start flatter, so successive PRs can compare
/// committed BENCH_*.json numbers without rerunning each other.
template <typename Fn>
BenchEntry measureMedian(const std::string &Name, unsigned Shards,
                         size_t Events, unsigned Warmup, unsigned Reps,
                         Fn Run) {
  BenchEntry Entry;
  Entry.Name = Name;
  Entry.Shards = Shards;
  Entry.Events = Events;
  Entry.Reps = Reps;
  for (unsigned W = 0; W != Warmup; ++W)
    Entry.Races = Run();
  std::vector<double> Times;
  Times.reserve(Reps);
#if defined(CRD_BENCH_ALLOC_COUNT)
  std::vector<uint64_t> Allocs;
  Allocs.reserve(Reps);
#endif
  for (unsigned R = 0; R != Reps; ++R) {
    uint64_t AllocsBefore = allocCount();
    auto Start = std::chrono::steady_clock::now();
    Entry.Races = Run();
    Times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
            .count());
#if defined(CRD_BENCH_ALLOC_COUNT)
    Allocs.push_back(allocCount() - AllocsBefore);
#else
    (void)AllocsBefore;
#endif
  }
  std::sort(Times.begin(), Times.end());
  Entry.Seconds = Times.empty()
                      ? 0.0
                      : (Times[(Times.size() - 1) / 2] + Times[Times.size() / 2]) / 2;
  Entry.EventsPerSec = Entry.Seconds > 0 ? Events / Entry.Seconds : 0.0;
#if defined(CRD_BENCH_ALLOC_COUNT)
  if (!Allocs.empty() && Events != 0) {
    // Median, like the wall time: the warmup reps already absorbed the
    // one-time pool/table growth, so steady state should read 0.
    std::sort(Allocs.begin(), Allocs.end());
    Entry.AllocsPerEvent =
        static_cast<double>(Allocs[Allocs.size() / 2]) / Events;
  }
#endif
  return Entry;
}

/// Accumulates entries and renders them as a JSON document.
class BenchReport {
public:
  explicit BenchReport(std::string Tool, std::string Workload)
      : Tool(std::move(Tool)), Workload(std::move(Workload)) {}

  void add(BenchEntry Entry) { Entries.push_back(std::move(Entry)); }

  /// Attaches an extra top-level boolean field (e.g.
  /// "live_overlap_observable") emitted between the provenance fields
  /// and the benchmarks array. Last write wins for a repeated name.
  void setFlag(std::string Name, bool Value) {
    for (auto &F : Flags)
      if (F.first == Name) {
        F.second = Value;
        return;
      }
    Flags.emplace_back(std::move(Name), Value);
  }

  /// Renders e.g.:
  /// {"tool":"wire_throughput","workload":"h2-complex-concurrency",
  ///  "host_cpus":4,"git_rev":"abc123","benchmarks":[...]}
  ///
  /// host_cpus and git_rev record where the numbers came from:
  /// bench_compare.py refuses to diff artifacts whose host_cpus differ,
  /// because throughput ratios across host classes are noise, not signal.
  std::string toJson() const {
    std::ostringstream OS;
    OS << "{\n  \"tool\": \"" << Tool << "\",\n  \"workload\": \"" << Workload
       << "\",\n  \"host_cpus\": " << std::thread::hardware_concurrency()
       << ",\n  \"git_rev\": \"" << gitRevision() << "\",\n";
    for (const auto &F : Flags)
      OS << "  \"" << F.first << "\": " << (F.second ? "true" : "false")
         << ",\n";
    OS << "  \"benchmarks\": [\n";
    for (size_t I = 0; I != Entries.size(); ++I) {
      const BenchEntry &E = Entries[I];
      OS << "    {\"name\": \"" << E.Name << "\", \"shards\": " << E.Shards
         << ", \"events\": " << E.Events << ", \"seconds\": " << E.Seconds
         << ", \"events_per_sec\": " << static_cast<uint64_t>(E.EventsPerSec)
         << ", \"races\": " << E.Races << ", \"reps\": " << E.Reps;
      if (E.AllocsPerEvent >= 0)
        OS << ", \"allocs_per_event\": " << E.AllocsPerEvent;
      if (E.Drops >= 0)
        OS << ", \"drops\": " << E.Drops;
      OS << "}" << (I + 1 == Entries.size() ? "\n" : ",\n");
    }
    OS << "  ]\n}\n";
    return OS.str();
  }

  /// Writes the JSON document to \p Path. Returns false on I/O failure.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    Out << toJson();
    return static_cast<bool>(Out);
  }

  const std::vector<BenchEntry> &entries() const { return Entries; }

private:
  std::string Tool;
  std::string Workload;
  std::vector<std::pair<std::string, bool>> Flags;
  std::vector<BenchEntry> Entries;
};

} // namespace bench
} // namespace crd

#if defined(CRD_BENCH_ALLOC_COUNT)
//===----------------------------------------------------------------------===//
// Replacement global allocation functions (bench binaries only).
//
// Every heap allocation bumps allocCounter(), which is how the benches
// verify the hot path's zero-allocs-per-event steady state. Defined in this
// header because each bench tool is a single translation unit; the define
// is applied per target, never to the libraries, so production binaries
// keep the stock allocator.
//===----------------------------------------------------------------------===//

namespace crd::bench::detail {

inline void *countedAlloc(std::size_t Size) {
  crd::bench::allocCounter().fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

inline void *countedAlignedAlloc(std::size_t Size, std::size_t Align) {
  crd::bench::allocCounter().fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  std::size_t Rounded = (Size + Align - 1) / Align * Align;
  if (void *P = std::aligned_alloc(Align, Rounded ? Rounded : Align))
    return P;
  throw std::bad_alloc();
}

} // namespace crd::bench::detail

void *operator new(std::size_t Size) {
  return crd::bench::detail::countedAlloc(Size);
}
void *operator new[](std::size_t Size) {
  return crd::bench::detail::countedAlloc(Size);
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  return crd::bench::detail::countedAlignedAlloc(
      Size, static_cast<std::size_t>(Align));
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return crd::bench::detail::countedAlignedAlloc(
      Size, static_cast<std::size_t>(Align));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
#endif // CRD_BENCH_ALLOC_COUNT

#endif // CRD_BENCH_REPORT_H

//===- bench/ingest_throughput.cpp - live multi-producer ingestion ------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the live ingestion front-end (src/ingest): real producer
/// threads recording through per-thread SPSC rings into the collector
/// merge, across the sink configurations that matter:
///
///   * ingest/drain        — rings + collector only (the merge ceiling);
///   * ingest/detect-seq   — collector feeding live sequential detection
///     (the `crd record --stress` hot path);
///   * ingest/record-wire  — collector feeding the binary wire encoder
///     (record-now-analyze-later), output discarded;
///   * ingest/drop-newest  — DropNewest backpressure under a deliberately
///     undersized ring; drops are reported in the JSON.
///
/// The workload gives every producer a private object and a private lock,
/// so the race count is deterministically zero (the correctness anchor
/// bench_compare.py diffs) regardless of merge interleaving. Built with
/// CRD_BENCH_ALLOC_COUNT: allocs_per_event in the emitted JSON covers the
/// whole run — producer record loops, collector drain, detection — and
/// its steady state is the record-path-is-allocation-free acceptance bar.
///
/// Emits BENCH_ingest.json (bench/report.h). Note: on a single-CPU host
/// the producers, the collector, and the detector all timeshare, so the
/// aggregate throughput measures overhead, not pipelining; the artifact
/// carries live_overlap_observable=false and bench_compare.py's host_cpus
/// gate keeps such numbers from being diffed across host classes.
///
/// Usage: ./ingest_throughput [producers] [events-per-producer] [reps]
///                            [json-path]
///
//===----------------------------------------------------------------------===//

#include "report.h"

#include "access/DictionaryRep.h"
#include "ingest/Session.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <streambuf>
#include <thread>
#include <vector>

using namespace crd;
using namespace crd::ingest;

namespace {

/// Discards everything written to it without buffering or allocating, so
/// the wire-recording configuration measures encoding, not I/O, and the
/// allocation counter sees the encoder alone.
class NullBuf : public std::streambuf {
protected:
  int overflow(int C) override { return C == EOF ? 0 : C; }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    return N;
  }
};

struct BenchConfig {
  const char *Name;
  BackpressurePolicy Policy = BackpressurePolicy::Block;
  size_t RingCapacity = 4096;
  bool Detect = false;
  bool Wire = false;
};

/// One producer's record loop: invokes on a PRIVATE object under a
/// PRIVATE lock — race-free by construction, so every configuration's
/// race anchor is exactly 0. All actions hold ≤ 3 values, staying in the
/// Action's inline storage: the loop performs no heap allocation.
void producerBody(Recorder R, uint64_t Events, Symbol Put, Symbol Get) {
  const uint32_t Tid = R.thread().index();
  uint64_t S = (Tid + 1) * 0x9e3779b97f4a7c15ull | 1;
  for (uint64_t I = 0; I != Events; ++I) {
    if (I % 64 == 0) {
      R.acquire(LockId(Tid));
      continue;
    }
    if (I % 64 == 63) {
      R.release(LockId(Tid));
      continue;
    }
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    Value Key = Value::integer(static_cast<int64_t>(S % 256));
    if (S % 4 != 0) {
      Value Vals[3] = {Key, Value::integer(static_cast<int64_t>(S >> 32)),
                       Value::nil()};
      Action View(ObjectId(Tid), Put, Vals, 2, 1);
      Action Owned = View;
      R.record(Event::invoke(R.thread(), std::move(Owned)));
    } else {
      Value Vals[2] = {Key, Value::nil()};
      Action View(ObjectId(Tid), Get, Vals, 1, 1);
      Action Owned = View;
      R.record(Event::invoke(R.thread(), std::move(Owned)));
    }
  }
  R.finish();
}

struct RunResult {
  uint64_t Collected = 0;
  uint64_t Drops = 0;
  size_t Races = 0;
};

RunResult runOnce(const BenchConfig &C, unsigned Producers, uint64_t Events,
                  const DictionaryRep &Rep, Symbol Put, Symbol Get) {
  SessionOptions Opts;
  Opts.RingCapacity = C.RingCapacity;
  Opts.Policy = C.Policy;
  Session S(Opts);

  std::optional<wire::StreamPipeline> Pipeline;
  if (C.Detect) {
    Pipeline.emplace(wire::PipelineOptions{});
    Pipeline->setDefaultProvider(&Rep);
    S.setPipeline(&*Pipeline);
  }
  NullBuf Discard;
  std::ostream NullOS(&Discard);
  std::optional<wire::WireWriter> Writer;
  if (C.Wire) {
    Writer.emplace(NullOS);
    S.setWireWriter(&*Writer);
  }

  std::vector<Recorder> Recs;
  Recs.reserve(Producers);
  for (unsigned T = 0; T != Producers; ++T)
    Recs.push_back(S.attach(ThreadId(T)));
  S.start();
  std::vector<std::thread> Threads;
  Threads.reserve(Producers);
  for (unsigned T = 0; T != Producers; ++T)
    Threads.emplace_back(producerBody, std::move(Recs[T]), Events, Put, Get);
  for (std::thread &T : Threads)
    T.join();
  S.stop();
  if (Pipeline)
    Pipeline->finish();
  if (Writer)
    Writer->finish();

  RunResult R;
  R.Collected = S.eventsCollected();
  IngestMetrics M = S.metricsSnapshot();
  R.Drops = M.DropsTotal;
  if (Pipeline)
    R.Races = Pipeline->races().size();
  // Block is lossless by contract; a mismatch is a bug, not noise.
  if (C.Policy == BackpressurePolicy::Block &&
      R.Collected != uint64_t(Producers) * Events)
    std::abort();
  if (C.Policy == BackpressurePolicy::DropNewest &&
      R.Collected + R.Drops != uint64_t(Producers) * Events)
    std::abort();
  return R;
}

unsigned parsePositive(const char *Arg, const char *Name) {
  char *End = nullptr;
  unsigned long V = std::strtoul(Arg, &End, 10);
  if (End == Arg || *End != '\0' || V == 0) {
    std::cerr << "invalid " << Name << " '" << Arg
              << "' (expected a positive integer)\n"
              << "usage: ingest_throughput [producers] [events-per-producer]"
                 " [reps] [json-path]\n";
    std::exit(2);
  }
  return static_cast<unsigned>(V);
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Producers = Argc > 1 ? parsePositive(Argv[1], "producers") : 4;
  unsigned Events =
      Argc > 2 ? parsePositive(Argv[2], "events-per-producer") : 200000;
  unsigned Reps = Argc > 3 ? parsePositive(Argv[3], "reps") : 5;
  std::string JsonPath = Argc > 4 ? Argv[4] : "BENCH_ingest.json";
  constexpr unsigned Warmup = 1;

  DictionaryRep Rep;
  Symbol Put = symbol("put");
  Symbol Get = symbol("get");
  const size_t Total = size_t(Producers) * Events;

  std::cout << "live ingestion: " << Producers << " producers x " << Events
            << " events, median of " << Reps << " reps after " << Warmup
            << " warmup\n\n";

  bench::BenchReport Report("ingest_throughput", "private-dictionary-stress");
  unsigned HostCpus = std::thread::hardware_concurrency();
  // With a single hardware thread the producers and the collector cannot
  // actually overlap, so aggregate events/sec measures context-switch
  // overhead, not pipelining.
  Report.setFlag("live_overlap_observable", HostCpus > 1);
  if (HostCpus <= 1)
    std::cout << "warning: single-CPU host; producers, collector, and "
                 "detector timeshare — throughput numbers measure overhead "
                 "only\n\n";

  const BenchConfig Configs[] = {
      {"ingest/drain", BackpressurePolicy::Block, 4096, false, false},
      {"ingest/detect-seq", BackpressurePolicy::Block, 4096, true, false},
      {"ingest/record-wire", BackpressurePolicy::Block, 4096, false, true},
      {"ingest/drop-newest", BackpressurePolicy::DropNewest, 256, false,
       false},
  };

  for (const BenchConfig &C : Configs) {
    uint64_t LastDrops = 0;
    bench::BenchEntry E = bench::measureMedian(
        C.Name, /*Shards=*/Producers, Total, Warmup, Reps, [&] {
          RunResult R = runOnce(C, Producers, Events, Rep, Put, Get);
          LastDrops = R.Drops;
          return R.Races;
        });
    if (C.Policy == BackpressurePolicy::DropNewest)
      E.Drops = static_cast<int64_t>(LastDrops);
    if (E.Races != 0) {
      std::cerr << C.Name
                << ": race-free workload reported races: " << E.Races << "\n";
      return 1;
    }
    Report.add(E);
    std::cout << "  " << std::left << std::setw(20) << C.Name << std::right
              << std::setw(12) << static_cast<uint64_t>(E.EventsPerSec)
              << " events/s";
    if (E.AllocsPerEvent >= 0)
      std::cout << "  allocs/event=" << std::fixed << std::setprecision(4)
                << E.AllocsPerEvent;
    if (E.Drops >= 0)
      std::cout << "  drops=" << E.Drops;
    std::cout << "\n";
  }

  if (!Report.write(JsonPath)) {
    std::cerr << "failed to write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";
  return 0;
}

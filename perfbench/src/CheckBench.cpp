//===- perfbench/src/CheckBench.cpp - The `crd check` workloads ------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs `crd check`'s path in-process, rep after rep, over one seeded
/// input: translate the builtin spec, build the StreamPipeline, stream the
/// wire bytes through a BinaryStreamSource, render every race as
/// `race: <R>\n` into a hashing sink, render the summary line, and compare
/// both with the reference.
///
/// The traced run interleaves untraced and traced reps. A traced rep wraps
/// the source in TimedSource and times the race callback, which splits the
/// rep's wall time into decode, detect and report spans: a few clock reads
/// per batch, because the callbacks of one batch run back to back.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "spec/Builtins.h"
#include "support/Metrics.h"
#include "translate/Translator.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"

#include <malloc.h>

#include <iomanip>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

using namespace crd;
using namespace crd::wire;
using namespace perfbench;

namespace {

struct LayerTimes {
  uint64_t DecodeNs = 0, DetectNs = 0, ReportNs = 0, WallNs = 0;
  uint64_t DecodedEvents = 0;

  LayerTimes &operator+=(const LayerTimes &O) {
    DecodeNs += O.DecodeNs;
    DetectNs += O.DetectNs;
    ReportNs += O.ReportNs;
    WallNs += O.WallNs;
    DecodedEvents += O.DecodedEvents;
    return *this;
  }
};

/// Splits one traced rep into decode, detect and report spans.
///
/// nextBatch-driven runs: a decode span is one nextBatch call; a detect
/// span runs from a decode's return to the batch's first race callback (or
/// the next decode); a report span runs from that first callback to the
/// next decode. With Full memo the pipeline decodes inside pumpChunk,
/// which no source wrapper sees, so each callback is timed on its own and
/// everything between callbacks counts as detect.
class Ledger {
public:
  Ledger(std::vector<SpanRow> *Rows, uint64_t Id, bool PerCallbackEnd)
      : PerCallbackEnd(PerCallbackEnd), Rows(Rows), Id(Id) {}

  void runBegin(uint64_t T) {
    RunStart = T;
    Mark = T;
    if (Rows) {
      Rows->push_back({"run", Id, 0, T, T});
      RunRow = Rows->size();
    }
    Open = PerCallbackEnd ? Span::Detect : Span::None;
  }
  void decodeBegin(uint64_t T) {
    close(T);
    Mark = T;
  }
  void decodeEnd(uint64_t T, size_t Events) {
    Times.DecodeNs += T - Mark;
    Times.DecodedEvents += Events;
    row("decode", Mark, T);
    Mark = T;
    Open = Span::Detect;
  }
  void callbackBegin(uint64_t T) {
    if (Open == Span::Report)
      return;
    close(T);
    Mark = T;
    Open = Span::Report;
  }
  void callbackEnd(uint64_t T) {
    close(T);
    Mark = T;
    Open = Span::Detect;
  }
  /// The pipeline's run() returned at \p T; the rep ended at \p End.
  void runEnd(uint64_t T, uint64_t End) {
    close(T);
    Open = Span::None;
    Times.WallNs += End - RunStart;
    if (Rows)
      (*Rows)[RunRow - 1].EndNs = End;
  }

  LayerTimes Times;
  bool PerCallbackEnd;

private:
  enum class Span { None, Detect, Report };

  void close(uint64_t T) {
    if (Open == Span::Detect) {
      Times.DetectNs += T - Mark;
      row("detect", Mark, T);
    } else if (Open == Span::Report) {
      Times.ReportNs += T - Mark;
      row("report", Mark, T);
    }
    Open = Span::None;
  }
  void row(const char *Name, uint64_t Begin, uint64_t End) {
    if (Rows && Rows->size() < MaxRows)
      Rows->push_back({Name, Id, RunRow, Begin, End});
  }

  static constexpr size_t MaxRows = 200000;
  std::vector<SpanRow> *Rows;
  uint64_t Id;
  uint64_t RunRow = 0;
  uint64_t RunStart = 0;
  uint64_t Mark = 0;
  Span Open = Span::None;
};

/// Forwards to a BinaryStreamSource and times every nextBatch call.
class TimedSource : public EventSource {
public:
  TimedSource(BinaryStreamSource &Inner, Ledger &L) : Inner(Inner), L(L) {}

  bool next(Event &E) override { return Inner.next(E); }
  size_t nextBatch(EventBatch &B, size_t MaxEvents) override {
    L.decodeBegin(nowNs());
    size_t N = Inner.nextBatch(B, MaxEvents);
    L.decodeEnd(nowNs(), N);
    return N;
  }
  bool failed() const override { return Inner.failed(); }
  const WireReader *wireReader() const override { return Inner.wireReader(); }
  WireReader *memoReader() override { return Inner.memoReader(); }

private:
  BinaryStreamSource &Inner;
  Ledger &L;
};

/// Everything one rep measured.
struct Rep {
  bool Ok = false;
  uint64_t Events = 0;
  uint64_t Races = 0;
  double TranslateS = 0, SetupS = 0, RunS = 0;
  uint64_t Allocs = 0;
  uint64_t ReportBytes = 0;
  uint64_t KernelNs = 0;
  Algorithm1Stats Engine;
  PipelineMemoStats Memo;
  WireReaderStats Reader;
};

class CheckRunner {
public:
  CheckRunner(const Input &In, MemoMode Memo) : In(In), Memo(Memo) {}

  Rep run(Ledger *L) {
    Rep R;
    uint64_t T0 = nowNs();
    DiagnosticEngine SpecDiags;
    std::unique_ptr<TranslatedRep> Provider =
        translateSpec(dictionarySpec(), SpecDiags);
    uint64_t T1 = nowNs();
    PipelineOptions POpts;
    POpts.Memo = Memo;
    StreamPipeline Pipeline(POpts);
    Pipeline.setDefaultProvider(Provider.get());
    Sink.reset();
    if (L && L->PerCallbackEnd)
      Pipeline.setRaceCallback([this, L](const CommutativityRace &Race) {
        L->callbackBegin(nowNs());
        Out << "race: " << Race << '\n';
        L->callbackEnd(nowNs());
      });
    else if (L)
      Pipeline.setRaceCallback([this, L](const CommutativityRace &Race) {
        L->callbackBegin(nowNs());
        Out << "race: " << Race << '\n';
      });
    else
      Pipeline.setRaceCallback(
          [this](const CommutativityRace &Race) { Out << "race: " << Race << '\n'; });
    uint64_t Allocs0 = allocCount();
    uint64_t T2 = nowNs();

    MemBuf Bytes(In.Wire);
    std::istream IS(&Bytes);
    DiagnosticEngine Diags;
    if (L)
      L->runBegin(T2);
    BinaryStreamSource Source(IS, Diags);
    StreamSummary Sum;
    if (L) {
      TimedSource Timed(Source, *L);
      Sum = Pipeline.run(Timed);
    } else {
      Sum = Pipeline.run(Source);
    }
    uint64_t T3 = nowNs();
    std::string Summary =
        summaryLine(Sum.Events, Sum.Races, Sum.DistinctRacyObjects);
    Out.flush();
    uint64_t T4 = nowNs();
    if (L)
      L->runEnd(T3, T4);

    R.Allocs = allocCount() - Allocs0;
    R.TranslateS = double(T1 - T0) * 1e-9;
    R.SetupS = double(T2 - T0) * 1e-9;
    R.RunS = double(T4 - T2) * 1e-9;
    R.Events = Sum.Events;
    R.Races = Sum.Races;
    R.ReportBytes = Sink.bytes();
    R.Ok = !Source.failed() && Provider && Sum.Events == In.Ref.Events &&
           Sum.Races == In.Ref.Races && Sink.digest() == In.Ref.RaceDigest &&
           Summary == In.Ref.SummaryLine;
    if (const CommutativityRaceDetector *D = Pipeline.sequentialDetector()) {
      R.KernelNs = D->kernelNs();
      R.Engine = D->engineStats();
    }
    R.Memo = Pipeline.memoStats();
    R.Reader = Source.reader().stats();
    return R;
  }

private:
  const Input &In;
  MemoMode Memo;
  DigestBuf Sink;
  std::ostream Out{&Sink};
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

Result perfbench::runCheckWorkload(const RunOptions &Opts, Shape S,
                                   MemoMode Memo) {
  Result Res;
  DiagnosticEngine Diags;
  std::unique_ptr<TranslatedRep> Provider =
      translateSpec(dictionarySpec(), Diags);
  if (!Provider) {
    Res.Notes.push_back("spec translation failed: " + Diags.toString());
    Res.Attempted = Res.Failed = 1;
    return Res;
  }
  Input In = buildInput(S, Opts.Seed, *Provider);
  if (Opts.CorruptReference)
    In.Ref.RaceDigest ^= 1;
  {
    std::ostringstream Note;
    Note << "input: " << In.Ref.Events << " events, " << In.Wire.size()
         << " wire bytes, " << In.Ref.Races << " reference races";
    Res.Notes.push_back(Note.str());
  }
  CheckRunner Runner(In, Memo);
  Rep Warm = Runner.run(nullptr);
  ++Res.Attempted;
  Res.Failed += !Warm.Ok;

  std::vector<double> Eps, Setup, RunMs, Translate, AllocsPerEvent;
  std::vector<double> TracedEps;
  std::vector<SpanRow> Rows;
  LayerTimes Total;
  Rep Sum; // Per-layer totals over the traced reps.
  uint64_t TracedReps = 0;
  uint64_t Start = nowNs();
  const uint64_t Budget = static_cast<uint64_t>(Opts.Seconds * 1e9);
  for (uint64_t I = 0;; ++I) {
    bool Traced = Opts.Trace && I % 2 == 1;
    Ledger L(Rows.size() < 200000 ? &Rows : nullptr, I,
             Memo == MemoMode::Full);
    // Every run starts from a trimmed heap, as a fresh `crd check` process
    // would, instead of inheriting the layout the previous run left.
    malloc_trim(0);
    Rep R = Runner.run(Traced ? &L : nullptr);
    ++Res.Attempted;
    Res.Failed += !R.Ok;
    double Rate = ratio(double(R.Events), R.RunS);
    if (Traced) {
      TracedEps.push_back(Rate);
      ++TracedReps;
      Total += L.Times;
      Sum.Events += R.Events;
      Sum.Races += R.Races;
      Sum.ReportBytes += R.ReportBytes;
      Sum.KernelNs += R.KernelNs;
      Sum.Engine.Actions += R.Engine.Actions;
      Sum.Engine.ConflictChecks += R.Engine.ConflictChecks;
      Sum.Engine.ObjectCacheHits += R.Engine.ObjectCacheHits;
      Sum.Engine.ObjectCacheMisses += R.Engine.ObjectCacheMisses;
      Sum.Engine.ActivePoints += R.Engine.ActivePoints;
      for (size_t B = 0; B != R.Engine.LookaheadOccupancy.size(); ++B)
        Sum.Engine.LookaheadOccupancy[B] += R.Engine.LookaheadOccupancy[B];
      Sum.Memo.SummaryHits += R.Memo.SummaryHits;
      Sum.Memo.SummaryFallbacks += R.Memo.SummaryFallbacks;
      Sum.Memo.EventsReplayed += R.Memo.EventsReplayed;
      Sum.Reader.Chunks += R.Reader.Chunks;
      Sum.Reader.MemoHits += R.Reader.MemoHits;
      Sum.Reader.MemoBytesSaved += R.Reader.MemoBytesSaved;
    } else {
      Eps.push_back(Rate);
      RunMs.push_back(R.RunS * 1e3);
      AllocsPerEvent.push_back(ratio(double(R.Allocs), double(R.Events)));
    }
    Setup.push_back(R.SetupS);
    Translate.push_back(R.TranslateS * 1e3);
    if (nowNs() - Start >= Budget && Eps.size() >= 5 &&
        (!Opts.Trace || TracedReps >= 5))
      break;
  }

  if (!Opts.Trace) {
    // Memory is probed in runs of its own after the timed ones, each from a
    // trimmed heap with the watermark reset: one run's working set.
    std::vector<double> Growth;
    for (int I = 0; I != 3; ++I) {
      malloc_trim(0);
      RssProbe Rss;
      Rss.start(0);
      Rep R = Runner.run(nullptr);
      ++Res.Attempted;
      Res.Failed += !R.Ok;
      Growth.push_back(Rss.growthMb());
    }
    // Contention from other tenants of a shared host slows whole stretches
    // of runs by up to 2x and only ever adds time; the fastest tenth of the
    // runs is what the program does when it has the CPU to itself.
    Res.add("events_per_s", double(In.Ref.Events) / percentile(RunMs, 10) * 1e3);
    Res.add("setup_s", median(Setup));
    Res.add("peak_rss_mb", median(Growth));
    Res.Notes.push_back("check runs: " + std::to_string(RunMs.size()) +
                        " timed after 1 warmup");
    return Res;
  }

  double Reps = double(TracedReps);
  double Events = double(Sum.Events);
  double Unaccounted = double(Total.WallNs) - double(Total.DecodeNs) -
                       double(Total.DetectNs) - double(Total.ReportNs);
  uint64_t Lookahead = 0;
  for (uint64_t C : Sum.Engine.LookaheadOccupancy)
    Lookahead += C;
  Res.add("wire.decode_ns", double(Total.DecodeNs) / Reps);
  Res.add("wire.decode_events_per_s",
          ratio(double(Total.DecodedEvents), double(Total.DecodeNs) * 1e-9));
  Res.add("wire.bytes_per_event", ratio(double(In.Wire.size()),
                                        double(In.Ref.Events)));
  Res.add("wire.chunks", double(Sum.Reader.Chunks) / Reps);
  Res.add("wire.memo_hits", double(Sum.Reader.MemoHits) / Reps);
  Res.add("wire.memo_bytes_saved", double(Sum.Reader.MemoBytesSaved) / Reps);
  Res.add("hb.sync_events", double(In.SyncEvents));
  Res.add("hb.sync_fraction",
          ratio(double(In.SyncEvents), double(In.Ref.Events)));
  Res.add("detect.self_ns", double(Total.DetectNs) / Reps);
  if (metrics::Enabled) {
    Res.add("detect.kernel_ns", double(Sum.KernelNs) / Reps);
    Res.add("detect.kernel_share",
            ratio(double(Sum.KernelNs), double(Total.WallNs)));
  } else {
    Res.Notes.push_back("detect.kernel_ns absent: CRD_METRICS=OFF build");
  }
  Res.add("detect.actions", double(Sum.Engine.Actions) / Reps);
  Res.add("detect.conflict_checks_per_action",
          ratio(double(Sum.Engine.ConflictChecks), double(Sum.Engine.Actions)));
  Res.add("detect.object_cache_hit_ratio",
          ratio(double(Sum.Engine.ObjectCacheHits),
                double(Sum.Engine.ObjectCacheHits +
                       Sum.Engine.ObjectCacheMisses)));
  Res.add("detect.lookahead_full_ratio",
          ratio(double(Sum.Engine.LookaheadOccupancy.back()),
                double(Lookahead)));
  Res.add("detect.active_points", double(Sum.Engine.ActivePoints) / Reps);
  Res.add("detect.races", double(Sum.Races) / Reps);
  Res.add("detect.races_per_kevent", ratio(double(Sum.Races), Events) * 1e3);
  Res.add("detect.report_ns", double(Total.ReportNs) / Reps);
  Res.add("detect.report_ns_per_race",
          ratio(double(Total.ReportNs), double(Sum.Races)));
  Res.add("detect.report_bytes", double(Sum.ReportBytes) / Reps);
  Res.add("detect.allocs_per_event", median(AllocsPerEvent));
  Res.add("detect.memo_summary_hits", double(Sum.Memo.SummaryHits) / Reps);
  Res.add("detect.memo_fallbacks", double(Sum.Memo.SummaryFallbacks) / Reps);
  Res.add("detect.memo_replay_ratio",
          ratio(double(Sum.Memo.EventsReplayed), Events));
  Res.add("translate.spec_ms", median(Translate));
  Res.add("run.unaccounted_share", ratio(Unaccounted, double(Total.WallNs)));

  std::ostringstream Ledger;
  Ledger << std::fixed << std::setprecision(3);
  auto Ms = [&](double Ns) { return Ns / Reps * 1e-6; };
  auto Pct = [&](double Ns) { return 100.0 * ratio(Ns, double(Total.WallNs)); };
  Ledger << "self time per run over " << TracedReps << " traced runs: wall "
         << Ms(double(Total.WallNs)) << " ms = decode "
         << Ms(double(Total.DecodeNs)) << " ms (" << Pct(double(Total.DecodeNs))
         << "%) + detect " << Ms(double(Total.DetectNs)) << " ms ("
         << Pct(double(Total.DetectNs)) << "%) + report "
         << Ms(double(Total.ReportNs)) << " ms (" << Pct(double(Total.ReportNs))
         << "%) + unaccounted " << Ms(Unaccounted) << " ms ("
         << Pct(Unaccounted) << "%)";
  Res.Notes.push_back(Ledger.str());
  double Plain = median(Eps), Traced = median(TracedEps);
  std::ostringstream Overhead;
  Overhead << std::fixed << std::setprecision(1)
           << "tracing overhead: traced " << Traced << " events/s vs untraced "
           << Plain << " events/s (" << 100.0 * (1.0 - ratio(Traced, Plain))
           << "% slower, " << TracedReps << " + " << Eps.size()
           << " interleaved runs)";
  Res.Notes.push_back(Overhead.str());
  std::string TracePath = Opts.WorkDir + "/trace-" + Opts.Workload + "-" +
                          std::to_string(Opts.Seed) + ".json";
  if (writeChromeTrace(TracePath, Rows))
    Res.Notes.push_back("chrome trace: " + TracePath + " (" +
                        std::to_string(Rows.size()) + " spans)");
  return Res;
}

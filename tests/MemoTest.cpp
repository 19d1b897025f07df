//===- tests/MemoTest.cpp - chunk memoization tests -----------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chunk-memoization contract (docs/trace-format.md "Versioning and
/// the content digest"): digests are stable across writer runs, races are
/// bit-identical under both --memo modes, a corrupted digest fails like a
/// corrupted CRC, sync churn forces 100% fallback without changing the
/// report, legacy digest-less files still decode, a repetitive trace
/// keeps pinned race and memo counts, and the crd CLI validates --memo
/// and engages both memo layers on a trace file.
///
//===----------------------------------------------------------------------===//

#include "Cli.h"
#include "detect/Race.h"
#include "spec/Builtins.h"
#include "translate/Translator.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"
#include "wire/WireFormat.h"
#include "wire/WireReader.h"
#include "wire/WireWriter.h"
#include "workloads/RepetitiveTrace.h"
#include "StreamedRaces.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace crd;
using namespace crd::wire;

namespace {

RepetitiveTraceConfig smallConfig() {
  RepetitiveTraceConfig C;
  C.Threads = 2;
  C.DistinctBodies = 3;
  C.Repetitions = 5;
  C.EventsPerBody = 32;
  C.ObjectsPerBody = 2;
  return C;
}

std::string repetitiveWire(const RepetitiveTraceConfig &C,
                           size_t *EventsOut = nullptr) {
  std::ostringstream OS;
  size_t N = writeRepetitiveTrace(OS, C);
  if (EventsOut)
    *EventsOut = N;
  return OS.str();
}

struct AnalyzeResult {
  StreamSummary Summary;
  std::vector<CommutativityRace> Races;
  PipelineMemoStats Memo;
  WireReaderStats Reader;
};

AnalyzeResult analyzeWire(const std::string &Wire, PipelineOptions Opts) {
  DiagnosticEngine SpecDiags;
  auto Rep = translateSpec(dictionarySpec(), SpecDiags);
  EXPECT_TRUE(Rep) << SpecDiags.toString();
  std::istringstream In(Wire);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  StreamPipeline P(Opts);
  P.setDefaultProvider(Rep.get());
  testgen::StreamedRaces Got;
  Got.collect(P);
  AnalyzeResult R;
  R.Summary = P.run(Source);
  EXPECT_FALSE(Source.failed()) << Diags.toString();
  R.Races = std::move(Got.Races);
  R.Memo = P.memoStats();
  R.Reader = Source.reader().stats();
  return R;
}

std::optional<WireFileInfo> scanString(const std::string &Wire) {
  std::istringstream In(Wire);
  DiagnosticEngine Diags;
  return scanWire(In, Diags);
}

/// The value of the counter \p Key in a crd profile snapshot; every key
/// read here occurs once in the document.
uint64_t snapshotCounter(const std::string &Json, const std::string &Key) {
  std::string Needle = "\"" + Key + "\": ";
  size_t At = Json.find(Needle);
  EXPECT_NE(At, std::string::npos) << Key << " missing from " << Json;
  return At == std::string::npos
             ? 0
             : std::stoull(Json.substr(At + Needle.size()));
}

} // namespace

// Two independent writer runs over the same logical events must produce
// byte-identical files and, per chunk, identical header digests — the
// property every cache in the memo stack keys on.
TEST(MemoTest, DigestStableAcrossWriterRuns) {
  RepetitiveTraceConfig C = smallConfig();
  std::string A = repetitiveWire(C), B = repetitiveWire(C);
  EXPECT_EQ(A, B);

  auto Info = scanString(A);
  ASSERT_TRUE(Info);
  size_t ExpectChunks = 1 + size_t(C.DistinctBodies) * C.Repetitions;
  ASSERT_EQ(Info->Chunks.size(), ExpectChunks);

  std::map<uint64_t, size_t> Counts;
  for (const WireChunkInfo &Ch : Info->Chunks) {
    EXPECT_TRUE(Ch.DigestInHeader);
    ++Counts[Ch.Digest];
  }
  // Prelude is unique; every body's digest recurs once per repetition.
  EXPECT_EQ(Counts.size(), 1 + size_t(C.DistinctBodies));
  size_t Repeated = 0;
  for (const auto &KV : Counts)
    Repeated += KV.second == C.Repetitions;
  EXPECT_EQ(Repeated, size_t(C.DistinctBodies));
}

// Races must be bit-identical (full struct equality, clocks included)
// across both memo modes; under full, repeat verification and summary
// replay must actually engage.
TEST(MemoTest, RacesBitIdenticalAcrossModes) {
  size_t Events = 0;
  std::string Wire = repetitiveWire(smallConfig(), &Events);

  PipelineOptions SeqOff;
  AnalyzeResult Baseline = analyzeWire(Wire, SeqOff);
  ASSERT_EQ(Baseline.Summary.Events, Events);
  ASSERT_GT(Baseline.Races.size(), 0u);
  EXPECT_EQ(Baseline.Reader.MemoHits, 0u);
  EXPECT_EQ(Baseline.Reader.MemoCacheEntries, 0u);

  for (MemoMode Memo : {MemoMode::Off, MemoMode::Full}) {
    PipelineOptions Opts;
    Opts.Memo = Memo;
    AnalyzeResult R = analyzeWire(Wire, Opts);
    SCOPED_TRACE(testing::Message() << "memo=" << int(Memo));
    EXPECT_EQ(R.Summary.Events, Events);
    EXPECT_TRUE(R.Races == Baseline.Races);

    if (Memo == MemoMode::Off) {
      EXPECT_EQ(R.Reader.MemoHits, 0u);
      EXPECT_EQ(R.Memo.SummaryHits, 0u);
      EXPECT_EQ(R.Memo.EventsReplayed, 0u);
    } else {
      // Every repeated body chunk is verified against the payload store,
      // and the replayed ones are skipped undecoded.
      EXPECT_GT(R.Reader.MemoHits, 0u);
      EXPECT_GT(R.Reader.MemoBytesSaved, 0u);
      EXPECT_GT(R.Reader.MemoCacheEntries, 0u);
      EXPECT_GT(R.Memo.SummaryHits, 0u);
      EXPECT_GT(R.Memo.SummaryRecords, 0u);
      EXPECT_GT(R.Memo.EventsReplayed, 0u);
    }
  }
}

// A corrupted digest byte must fail the file exactly like a corrupted
// payload fails the CRC: hard error, counted, diagnosed with the offset.
TEST(MemoTest, CorruptedDigestRejectedLikeCrc) {
  std::string Wire = repetitiveWire(smallConfig());

  // Flip a byte inside the first chunk header's digest field
  // (size u32 + crc u32 + digest u64 — see trace-format.md).
  std::string BadDigest = Wire;
  BadDigest[FileHeaderSize + 12] ^= 0x5a;
  {
    std::istringstream In(BadDigest);
    DiagnosticEngine Diags;
    WireReader Reader(In, Diags);
    Event E = Event::txBegin(ThreadId(0));
    while (Reader.next(E))
      ;
    EXPECT_TRUE(Reader.failed());
    EXPECT_EQ(Reader.stats().DigestErrors, 1u);
    EXPECT_EQ(Reader.stats().CrcErrors, 0u);
    EXPECT_NE(Diags.toString().find("chunk digest mismatch"),
              std::string::npos)
        << Diags.toString();
  }

  // Control: a payload flip is a CRC error (checked before the digest).
  std::string BadPayload = Wire;
  BadPayload[FileHeaderSize + DigestChunkHeaderSize + 3] ^= 0x5a;
  {
    std::istringstream In(BadPayload);
    DiagnosticEngine Diags;
    WireReader Reader(In, Diags);
    Event E = Event::txBegin(ThreadId(0));
    while (Reader.next(E))
      ;
    EXPECT_TRUE(Reader.failed());
    EXPECT_EQ(Reader.stats().CrcErrors, 1u);
    EXPECT_EQ(Reader.stats().DigestErrors, 0u);
  }
}

// Adversarial shape: lock churn before every body round bumps the
// worker clocks, so no body occurrence ever sees matching entry state.
// The summary layer must fall back to interpretation on 100% of chunks
// — zero replays, zero recorded summaries that survive — while the
// reader still verifies the repeats and the report stays bit-identical.
TEST(MemoTest, SyncChurnForcesFullFallback) {
  RepetitiveTraceConfig C = smallConfig();
  C.SyncEveryBodies = 1;
  size_t Events = 0;
  std::string Wire = repetitiveWire(C, &Events);

  AnalyzeResult Off = analyzeWire(Wire, PipelineOptions{});
  PipelineOptions FullOpts;
  FullOpts.Memo = MemoMode::Full;
  AnalyzeResult Full = analyzeWire(Wire, FullOpts);

  EXPECT_EQ(Full.Summary.Events, Events);
  EXPECT_TRUE(Full.Races == Off.Races);
  EXPECT_GT(Full.Races.size(), 0u);
  EXPECT_EQ(Full.Memo.SummaryHits, 0u);
  EXPECT_EQ(Full.Memo.EventsReplayed, 0u);
  EXPECT_GT(Full.Memo.ChunksInterpreted, 0u);
  EXPECT_GT(Full.Reader.MemoHits, 0u); // Verification is version-blind.
}

// A digest-less (legacy) file must still decode with memoization
// requested — the caches simply never engage — and scanWire must compute
// the same digests the writer would have recorded.
TEST(MemoTest, LegacyDigestlessFileStillWorks) {
  RepetitiveTraceConfig C = smallConfig();
  std::string WithDigests = repetitiveWire(C);

  std::ostringstream OS;
  {
    WireWriter Writer(OS, C.EventsPerBody, /*WithDigests=*/false);
    buildRepetitiveTrace(C, [&](const Event &E) { Writer.append(E); });
  }
  std::string Legacy = OS.str();
  ASSERT_LT(Legacy.size(), WithDigests.size()); // 8 bytes saved per chunk.

  auto LegacyInfo = scanString(Legacy);
  auto DigestInfo = scanString(WithDigests);
  ASSERT_TRUE(LegacyInfo);
  ASSERT_TRUE(DigestInfo);
  ASSERT_EQ(LegacyInfo->Chunks.size(), DigestInfo->Chunks.size());
  for (size_t I = 0; I != LegacyInfo->Chunks.size(); ++I) {
    EXPECT_FALSE(LegacyInfo->Chunks[I].DigestInHeader);
    EXPECT_TRUE(DigestInfo->Chunks[I].DigestInHeader);
    // The scan computes what the writer would have stamped.
    EXPECT_EQ(LegacyInfo->Chunks[I].Digest, DigestInfo->Chunks[I].Digest);
  }

  AnalyzeResult Off = analyzeWire(WithDigests, PipelineOptions{});
  PipelineOptions FullOpts;
  FullOpts.Memo = MemoMode::Full;
  AnalyzeResult Full = analyzeWire(Legacy, FullOpts);
  EXPECT_TRUE(Full.Races == Off.Races);
  EXPECT_EQ(Full.Reader.MemoHits, 0u);
  EXPECT_EQ(Full.Memo.SummaryHits, 0u);
  EXPECT_GT(Full.Memo.ChunksInterpreted, 0u);
}

// Pinned counts on a 16-body x 24-repetition trace (385 chunks: the
// prelude plus 384 body chunks): the same 752 races in both modes, every
// body chunk after its first occurrence verified as a repeat, summaries
// replaying every body chunk after its second (the verified repeat that
// records the summary), and a payload store holding each distinct chunk
// exactly once.
TEST(MemoTest, RepetitiveTraceCountsPinned) {
  RepetitiveTraceConfig C;
  C.DistinctBodies = 16;
  C.Repetitions = 24;
  size_t Events = 0;
  std::string Wire = repetitiveWire(C, &Events);
  ASSERT_EQ(Events, 1576960u);

  AnalyzeResult Off = analyzeWire(Wire, PipelineOptions{});
  EXPECT_EQ(Off.Summary.Races, 752u);
  EXPECT_EQ(Off.Races.size(), 752u);
  EXPECT_EQ(Off.Reader.MemoHits, 0u);
  PipelineOptions FullOpts;
  FullOpts.Memo = MemoMode::Full;
  AnalyzeResult Full = analyzeWire(Wire, FullOpts);
  EXPECT_EQ(Full.Summary.Events, Events);
  EXPECT_TRUE(Full.Races == Off.Races);
  EXPECT_EQ(Full.Reader.MemoHits, 368u);
  EXPECT_EQ(Full.Memo.SummaryHits, 352u);
  EXPECT_EQ(Full.Memo.EventsReplayed, 1441792u);
  EXPECT_EQ(Full.Memo.ChunksInterpreted, 33u);
  EXPECT_EQ(Full.Memo.SummaryFallbacks, 0u);

  // The store pin is the sum of the distinct payload sizes scanWire sees.
  auto Info = scanString(Wire);
  ASSERT_TRUE(Info);
  std::map<uint64_t, size_t> Distinct;
  for (const WireChunkInfo &Ch : Info->Chunks)
    Distinct[Ch.Digest] = Ch.PayloadBytes;
  size_t DistinctBytes = 0;
  for (const auto &KV : Distinct)
    DistinctBytes += KV.second;
  EXPECT_EQ(Distinct.size(), 17u);
  EXPECT_EQ(DistinctBytes, 626947u);
  EXPECT_EQ(Full.Reader.MemoCacheEntries, 17u);
  EXPECT_EQ(Full.Reader.MemoCacheBytes, 626947u);
}

// CLI surface: --memo validation, the stats repetition line, profile's
// memo JSON, and the live-source rejection naming the --memo constraint.
TEST(MemoTest, CliMemoSurface) {
  std::string Path = testing::TempDir() + "memo_cli_test.crdb";
  {
    std::ofstream OS(Path, std::ios::binary);
    ASSERT_TRUE(OS.good());
    writeRepetitiveTrace(OS, smallConfig());
  }

  for (const char *Verb : {"check", "profile", "bench"})
    for (std::string Mode : {"bogus", "decode"}) {
      std::ostringstream Out, Err;
      int RC = cli::crdMain({Verb, Path, "--memo=" + Mode}, Out, Err);
      SCOPED_TRACE(testing::Message() << Verb << " --memo=" << Mode);
      EXPECT_EQ(RC, 2);
      EXPECT_NE(Err.str().find("unknown --memo mode '" + Mode + "'"),
                std::string::npos)
          << Err.str();
      EXPECT_NE(Err.str().find("accepted: off, full"), std::string::npos)
          << Err.str();
    }

  {
    std::ostringstream Out, Err;
    int RC = cli::crdMain({"profile", "--source=live", Path}, Out, Err);
    EXPECT_EQ(RC, 2);
    EXPECT_NE(Err.str().find("crd record --stress"), std::string::npos)
        << Err.str();
    EXPECT_NE(Err.str().find("--memo"), std::string::npos) << Err.str();
  }

  {
    std::ostringstream Out, Err;
    int RC = cli::crdMain({"stats", Path}, Out, Err);
    EXPECT_EQ(RC, 0) << Err.str();
    EXPECT_NE(Out.str().find("chunk repetition:"), std::string::npos)
        << Out.str();
    EXPECT_NE(Out.str().find("distinct digests"), std::string::npos);
  }

  // A trace file must drive the memo loop, not just echo the mode: under
  // full the reader verifies repeats and summaries replay.
  for (std::string Mode : {"off", "full"}) {
    std::ostringstream Out, Err;
    int RC = cli::crdMain({"profile", Path, "--memo=" + Mode}, Out, Err);
    SCOPED_TRACE(Mode);
    EXPECT_EQ(RC, 0) << Err.str();
    std::string Json = Out.str();
    EXPECT_NE(Json.find("\"mode\": \"" + Mode + "\""), std::string::npos)
        << Json;
    uint64_t RepeatHits = snapshotCounter(Json, "memo_hits");
    uint64_t SummaryHits = snapshotCounter(Json, "summary_hits");
    // Interpreted chunks decode invoke values into the pull batch's arena,
    // and the reader reports that arena's high-water mark.
    if (metrics::Enabled) {
      EXPECT_GT(snapshotCounter(Json, "arena_peak_bytes"), 0u);
    }
    if (Mode == "off") {
      EXPECT_EQ(RepeatHits, 0u);
      EXPECT_EQ(SummaryHits, 0u);
    } else {
      EXPECT_GT(RepeatHits, 0u);
      EXPECT_GT(SummaryHits, 0u);
    }
  }

  {
    // The trace is racy, so check exits 1 under both memo modes with the
    // same report line.
    std::string Reports[2];
    int I = 0;
    for (const char *Mode : {"off", "full"}) {
      std::ostringstream Out, Err;
      int RC = cli::crdMain(
          {"check", Path, std::string("--memo=") + Mode}, Out, Err);
      EXPECT_EQ(RC, 1) << Err.str();
      Reports[I++] = Out.str();
    }
    EXPECT_EQ(Reports[0], Reports[1]);
  }
}

//===- tests/SpecFilesTest.cpp - on-disk spec and trace file tests ------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// Validates the shipped specs/*.spec and traces/*.trace files: every spec
/// (each is also compiled in as a builtin) parses, validates and
/// translates; every trace parses, validates and produces the documented
/// analysis result. The repo root is passed in via the CRD_REPO_DIR
/// compile definition.
///
//===----------------------------------------------------------------------===//

#include "detect/AtomicityChecker.h"
#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "spec/Builtins.h"
#include "spec/SpecParser.h"
#include "trace/TraceIO.h"
#include "translate/Translator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace crd;

namespace {

std::string readFileOrDie(const std::string &RelPath) {
  std::string Path = std::string(CRD_REPO_DIR) + "/" + RelPath;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

ObjectSpec parseSpecFile(const std::string &RelPath) {
  DiagnosticEngine Diags;
  auto Spec = parseObjectSpec(readFileOrDie(RelPath), Diags);
  EXPECT_TRUE(Spec) << RelPath << ":\n" << Diags.toString();
  return Spec ? std::move(*Spec) : ObjectSpec("parse-failed");
}

} // namespace

TEST(SpecFilesTest, DictionarySpecFile) {
  ObjectSpec Spec = parseSpecFile("specs/dictionary.spec");
  DiagnosticEngine Diags;
  EXPECT_TRUE(Spec.validate(Diags)) << Diags.toString();
  EXPECT_TRUE(translateSpec(Spec, Diags)) << Diags.toString();
}

TEST(SpecFilesTest, SetSpecFile) {
  ObjectSpec Spec = parseSpecFile("specs/set.spec");
  DiagnosticEngine Diags;
  EXPECT_TRUE(Spec.validate(Diags)) << Diags.toString();
  EXPECT_TRUE(translateSpec(Spec, Diags)) << Diags.toString();
}

TEST(SpecFilesTest, CounterSpecFile) {
  ObjectSpec Spec = parseSpecFile("specs/counter.spec");
  DiagnosticEngine Diags;
  EXPECT_TRUE(Spec.validate(Diags)) << Diags.toString();
  EXPECT_TRUE(translateSpec(Spec, Diags)) << Diags.toString();
}

TEST(SpecFilesTest, RegisterSpecFile) {
  ObjectSpec Spec = parseSpecFile("specs/register.spec");
  DiagnosticEngine Diags;
  EXPECT_TRUE(Spec.validate(Diags)) << Diags.toString();
  EXPECT_TRUE(translateSpec(Spec, Diags)) << Diags.toString();
}

TEST(SpecFilesTest, QueueSpecFile) {
  ObjectSpec Spec = parseSpecFile("specs/queue.spec");
  DiagnosticEngine Diags;
  EXPECT_TRUE(Spec.validate(Diags)) << Diags.toString();
  EXPECT_TRUE(translateSpec(Spec, Diags)) << Diags.toString();
}

TEST(TraceFilesTest, Fig3TraceHasThePutPutRace) {
  DiagnosticEngine Diags;
  auto T = parseTrace(readFileOrDie("traces/fig3.trace"), Diags);
  ASSERT_TRUE(T) << Diags.toString();
  EXPECT_TRUE(T->validate(Diags)) << Diags.toString();

  auto Rep = translateSpec(dictionarySpec(), Diags);
  ASSERT_TRUE(Rep);
  CommutativityRaceDetector Detector;
  Detector.setDefaultProvider(Rep.get());
  Detector.processTrace(*T);
  ASSERT_EQ(Detector.races().size(), 1u);
  EXPECT_EQ(Detector.races()[0].Current.method(), symbol("put"));
}

TEST(TraceFilesTest, TornCommitTraceHasAtomicityViolation) {
  DiagnosticEngine Diags;
  auto T = parseTrace(readFileOrDie("traces/torn_commit.trace"), Diags);
  ASSERT_TRUE(T) << Diags.toString();
  EXPECT_TRUE(T->validate(Diags)) << Diags.toString();

  auto Rep = translateSpec(dictionarySpec(), Diags);
  ASSERT_TRUE(Rep);
  AtomicityChecker Checker;
  Checker.setDefaultProvider(Rep.get());
  auto Violations = Checker.check(*T);
  ASSERT_EQ(Violations.size(), 1u);
  EXPECT_EQ(Violations[0].Thread, ThreadId(0));
}

TEST(TraceFilesTest, LockProtectedTraceIsRaceFree) {
  DiagnosticEngine Diags;
  auto T = parseTrace(readFileOrDie("traces/lock_protected.trace"), Diags);
  ASSERT_TRUE(T) << Diags.toString();
  EXPECT_TRUE(T->validate(Diags)) << Diags.toString();

  auto Rep = translateSpec(dictionarySpec(), Diags);
  ASSERT_TRUE(Rep);
  CommutativityRaceDetector RD2;
  RD2.setDefaultProvider(Rep.get());
  RD2.processTrace(*T);
  EXPECT_TRUE(RD2.races().empty());

  FastTrackDetector FT;
  FT.processTrace(*T);
  EXPECT_TRUE(FT.races().empty());
}

//===- runtime/Sink.h - Instrumentation event sinks -------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Event sinks connect the simulated instrumented runtime (the RoadRunner
/// substitute) to the analyses. Every instrumented operation reports the
/// low-level reads/writes/lock operations it performs and the high-level
/// action it constitutes; a sink routes those events to a detector (a
/// StreamPipeline is one), a trace recorder, a wire writer, or nowhere (the
/// "uninstrumented" configuration — enabled() returns false so
/// instrumentation sites skip event materialization entirely, mimicking
/// running without the instrumenting framework). The runtime emits one
/// totally ordered stream, so a sink sees events one at a time, in trace
/// order, from one thread.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_RUNTIME_SINK_H
#define CRD_RUNTIME_SINK_H

#include "trace/Trace.h"

namespace crd {

/// Receives the event stream of a simulated execution.
class EventSink {
public:
  virtual ~EventSink();

  /// Whether instrumentation sites should materialize events at all.
  virtual bool enabled() const { return true; }

  virtual void onEvent(const Event &E) = 0;
};

/// Drops everything; models the uninstrumented run.
class NullSink : public EventSink {
public:
  bool enabled() const override { return false; }
  void onEvent(const Event &) override {}
};

/// Records the execution as a Trace (replayable through parseTrace/detectors).
class TraceRecorder : public EventSink {
public:
  void onEvent(const Event &E) override { Recorded.append(E); }

  const Trace &trace() const { return Recorded; }
  Trace take() { return std::move(Recorded); }

private:
  Trace Recorded;
};

/// Forwards events to any detector exposing process(const Event&).
template <typename DetectorT> class DetectorSink : public EventSink {
public:
  explicit DetectorSink(DetectorT &Detector) : Detector(Detector) {}

  void onEvent(const Event &E) override { Detector.process(E); }

private:
  DetectorT &Detector;
};

/// Fans one event stream out to several sinks (e.g. record + detect).
class TeeSink : public EventSink {
public:
  TeeSink(EventSink &A, EventSink &B) : A(A), B(B) {}

  bool enabled() const override { return A.enabled() || B.enabled(); }
  void onEvent(const Event &E) override {
    if (A.enabled())
      A.onEvent(E);
    if (B.enabled())
      B.onEvent(E);
  }

private:
  EventSink &A;
  EventSink &B;
};

} // namespace crd

#endif // CRD_RUNTIME_SINK_H

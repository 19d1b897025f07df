//===- detect/CommutativityDetector.h - Algorithm 1 -------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's commutativity race detector (Algorithm 1 + Table 1). The
/// detector consumes a trace online; synchronization events update the
/// vector-clock state, and each action event, with its vector clock vc(e),
/// runs the two phases of Algorithm 1 against the access point
/// representation of its object:
///
///   phase 1: for every touched point pt, probe active(o) ∩ Co(pt) and
///            report a race when a conflicting point's accumulated clock is
///            not ⊑ vc(e);
///   phase 2: accumulate vc(e) into the clocks of all touched points,
///            activating them on first touch.
///
/// All of this state is partitioned by object — phase 1 and phase 2 for an
/// event on object o read and write only active(o).
///
/// With representations produced from ECL specifications, |Co(pt)| is
/// bounded, so phase 1 performs Θ(1) hash probes per touched point (§5.4);
/// with epoch-compressed accumulated clocks (EpochClock), each probe and
/// each phase-2 accumulation is itself O(1) while a point's history stays
/// HB-totally-ordered, escalating to a full vector clock only when it is
/// not, which removes the O(#threads) clock copies that otherwise dominate
/// the hot path.
///
/// Hot-path layout: every table on the per-event path is a FlatMap (open
/// addressing, contiguous storage) instead of node-based unordered_map, and
/// each object's state bundles its active-point table with the resolved
/// provider, so the common case — a run of actions on the same object —
/// costs zero table probes for object + binding resolution (a one-entry
/// cache) and one flat probe per conflict class.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_COMMUTATIVITYDETECTOR_H
#define CRD_DETECT_COMMUTATIVITYDETECTOR_H

#include "access/Provider.h"
#include "detect/ChunkMemo.h"
#include "detect/Race.h"
#include "hb/VectorClockState.h"
#include "support/EpochClock.h"
#include "support/FlatMap.h"
#include "trace/EventBatch.h"
#include "trace/Trace.h"

#include <array>
#include <cassert>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace crd {

/// Counters the detector accumulates while processing. Schema:
/// docs/observability.md.
struct Algorithm1Stats {
  uint64_t Actions = 0;          ///< Actions run through phases 1–2.
  uint64_t ConflictChecks = 0;   ///< Phase-1 conflict-partner probes.
  uint64_t ObjectCacheHits = 0;  ///< stateFor resolved by the one-entry cache.
  uint64_t ObjectCacheMisses = 0;///< stateFor fell through to the table.
  uint64_t Activations = 0;      ///< Access points activated (first touch).
  uint64_t ActivePoints = 0;     ///< Currently active points (live objects).
  uint64_t KernelEvents = 0;     ///< Actions executed through onRun().
  /// Always zero; kept only because perfbench reads it.
  std::array<uint64_t, 9> LookaheadOccupancy{};
};

/// Online commutativity race detector (Algorithm 1).
class CommutativityRaceDetector {
  /// Per-object detector state: the active-point table plus the provider
  /// resolved once at creation (re-resolved on bind()/setDefaultProvider()),
  /// so phases 1–2 never consult the bindings table. Heap-allocated so the
  /// one-entry LastState cache survives Objects rehashes. (Declared before
  /// the public section: onRun()/onActionResolved() below take it by
  /// reference.)
  struct ObjectState {
    FlatMap<AccessPoint, EpochClock> Active;
    const AccessPointProvider *Provider = nullptr;
    /// Mutation stamp of the last change to this object's state. Global
    /// (detector-wide) stamps make versions unambiguous across objectDied()
    /// + re-creation, which per-object counters would alias.
    uint64_t Version = 0;
  };

public:
  CommutativityRaceDetector() = default;

  /// Binds the representation used for actions on \p Obj. Representations
  /// for distinct objects may be shared (they describe the object *type*).
  /// Bindings live in their own map so they survive objectDied()
  /// reclamation.
  void bind(ObjectId Obj, const AccessPointProvider *Provider) {
    assert(Provider && "null provider");
    ++ConfigStamp;
    forgetClassNames();
    Bindings[Obj] = Provider;
    if (auto *State = Objects.find(Obj))
      (*State)->Provider = Provider;
  }

  /// Representation used for objects without an explicit bind().
  void setDefaultProvider(const AccessPointProvider *Provider) {
    ++ConfigStamp;
    forgetClassNames();
    DefaultProvider = Provider;
    refreshProviders();
  }

  /// Feeds one event (any kind; non-action events update clocks only).
  void process(const Event &E);

  /// Feeds a whole trace through the batched kernel, appending it to a
  /// batch one window at a time — bit-identical races to the per-event
  /// path.
  void processTrace(const Trace &T);

  /// Feeds a whole batch through the batched kernel (the streaming
  /// pipeline's pull loop): one scan over the kind bytes collects each
  /// run's invoke positions, flushes them into onRun() at the next sync
  /// event and hands that sync event to the clock machine as
  /// (kind, thread, operand). \p B is left untouched.
  void processBatch(const EventBatch &B);

  /// Nanoseconds spent inside the batched kernel (processTrace /
  /// processBatch), reported as `crd profile`'s `kernel_ns`. Zero on the
  /// per-event path.
  uint64_t kernelNs() const { return KernelNs; }

  /// Reclaims all auxiliary state of a dead object (the paper's
  /// object-reclamation optimization, §5.3): its active-point table is
  /// erased outright, so long-running workloads do not accrete empty
  /// per-object slots, and no further races can be reported on it. The
  /// provider binding survives.
  void objectDied(ObjectId Obj) {
    auto *State = Objects.find(Obj);
    if (!State)
      return;
    ++MutStamp; // Erasure is a state mutation (objectVersion drops to 0).
    ActivePoints -= (*State)->Active.size();
    if (LastState == State->get())
      LastState = nullptr;
    Objects.erase(Obj);
  }

  /// Records reported and not yet drained, in report order. A detector
  /// nobody drains (the usual standalone use) keeps every record here.
  const std::vector<CommutativityRace> &races() const { return Races; }

  /// Total races reported so far, drained or not.
  size_t raceCount() const { return RaceCount; }

  /// Hands every undrained record to \p Fn in report order, then drops
  /// them: afterwards races() is empty and only the counters remain. The
  /// streaming pipeline drains after every batch, so it keeps only
  /// counters and the distinct-object set.
  template <typename F> void drainRaces(F &&Fn) {
    for (const CommutativityRace &R : Races)
      Fn(R);
    Races.clear();
  }

  /// Number of distinct objects participating in at least one reported race
  /// (the "(distinct)" column of Table 2).
  size_t distinctRacyObjects() const { return RacyObjects.size(); }

  /// Number of conflict-partner probes performed in phase 1 so far.
  /// Exposed for the §5.4 complexity experiments.
  size_t conflictChecks() const { return ConflictChecks; }

  /// Number of events processed.
  size_t eventsProcessed() const { return EventIndex; }

  /// Total number of currently active access points across live objects.
  /// Maintained incrementally by phase 2 and objectDied(); O(1).
  size_t activePointCount() const { return ActivePoints; }

  /// Metrics snapshot (docs/observability.md).
  Algorithm1Stats engineStats() const {
    Algorithm1Stats S;
    S.Actions = ActionsSeen;
    S.ConflictChecks = ConflictChecks;
    S.ObjectCacheHits = CacheHits;
    S.ObjectCacheMisses = CacheMisses;
    S.Activations = Activations;
    S.ActivePoints = ActivePoints;
    S.KernelEvents = KernelEventsCtr;
    return S;
  }

  //===--------------------------------------------------------------------===//
  // Chunk memoization (detect/ChunkMemo.h). The streaming pipeline drives
  // these around verified-repeat chunks: beginMemoRecord() before
  // interpreting, finishMemoRecord() after (turning a state-no-op chunk
  // into a ChunkSummary), tryReplayChunk() on later occurrences. A chunk
  // summary is a pure function of (entry state restricted to its
  // footprint, chunk bytes): the stamps (MutStamp, ConfigStamp, each
  // object's Version and VectorClockState's thread versions) prove "entry
  // state unchanged" in O(footprint) and "interpretation was a state
  // no-op" in O(1), without hashing any clock.
  //===--------------------------------------------------------------------===//

  /// Snapshot of the stream position, undrained race count, counter
  /// baselines and mutation stamps taken before interpreting a candidate
  /// chunk. No drain may run between beginMemoRecord() and
  /// finishMemoRecord(): the summary copies the records reported since.
  struct MemoRecordToken {
    size_t BaseEventIndex = 0;
    size_t BaseRaces = 0;
    uint64_t VCStamp = 0;
    uint64_t MutStamp = 0;
    uint64_t BaseConflictChecks = 0;
  };

  /// Opens a recording window at the current detector state.
  MemoRecordToken beginMemoRecord() const {
    return {EventIndex, Races.size(), VCState.mutationStamp(), MutStamp,
            ConflictChecks};
  }

  /// Closes the window opened by \p Token after the chunk's events
  /// (\p B [\p From, \p From + \p N)) were interpreted, filling \p Out.
  /// Returns true iff the chunk is memoizable — sync-free and a detector
  /// state no-op — in which case Out carries a replayable summary;
  /// otherwise Out is a negative entry (Memoizable = false).
  bool finishMemoRecord(const MemoRecordToken &Token, const EventBatch &B,
                        size_t From, size_t N, ChunkSummary &Out) const;

  /// Replays \p S if its entire entry-state footprint (config stamp,
  /// thread versions, object versions) matches the current state: pushes
  /// the re-based race reports and marks their objects racy, exactly as
  /// phase 1 would have, adds the counter deltas, and advances the stream
  /// position by S.Events. Returns false (with no state change) on any
  /// mismatch — the caller must interpret the chunk normally.
  bool tryReplayChunk(const ChunkSummary &S);

  /// Snapshot of an object's active points and their accumulated clocks
  /// (diagnostic/testing API; order unspecified). Epoch-compressed points
  /// materialize as their single-component clock, which is probe-equivalent
  /// to the full join of the touching events' clocks (see EpochClock.h).
  std::vector<std::pair<AccessPoint, VectorClock>>
  activePoints(ObjectId Obj) const {
    std::vector<std::pair<AccessPoint, VectorClock>> Out;
    const auto *State = Objects.find(Obj);
    if (!State)
      return Out;
    Out.reserve((*State)->Active.size());
    for (const auto &[Pt, Clock] : (*State)->Active)
      Out.emplace_back(Pt, Clock.toClock());
    return Out;
  }

private:
  /// The batched detection kernel: executes the actions of one run (a
  /// sync-free stretch, so every thread's clock is constant throughout)
  /// given their positions inside \p B, in event order, through the exact
  /// phases of process(). Each invoke's object and thread come from \p B's
  /// operand and thread columns, and one view Action, re-pointed per
  /// invoke, carries its method and values; no Event is built. Two memos
  /// do the work: a run-local last-object cache resolves each action's
  /// object state, and a thread's clock is resolved through \p Resolve
  /// once per stretch of consecutive same-thread actions (valid precisely
  /// because no sync event intervenes within a run).
  ///
  /// \p Pos holds \p NPos ascending positions of invoke events in \p B,
  /// and \p FirstInvoke is the index of the first one's record in
  /// B.Invokes (a run's invokes have consecutive records). Positions are
  /// reported to race records as \p BaseIndex + Pos[i]. \p Resolve maps a
  /// ThreadId to that thread's run clock (stable reference for the whole
  /// run).
  ///
  /// Determinism: actions execute in the same order, with the same clocks
  /// and the same object-state creation stamps, as on the per-event path,
  /// so race reports are bit-identical.
  template <typename ResolveF>
  void onRun(const EventBatch &B, const uint32_t *Pos, size_t NPos,
             size_t FirstInvoke, size_t BaseIndex, ResolveF &&Resolve) {
    // Run-local last-object cache: hoisted out of stateFor so the common
    // same-object run never reloads the member cache across the opaque
    // provider/clock calls below.
    ObjectState *CachedState = nullptr;
    ObjectId CachedObj;
    // Consecutive-same-thread clock memo. Safe to reuse only with no
    // intervening Resolve call: a resolver may grow its backing storage
    // and invalidate earlier references, and any intervening call here
    // overwrites the memo.
    const VectorClock *CachedClock = nullptr;
    ThreadId CachedThread;

    // The columns, loaded once: the calls below are opaque, so reads
    // through B would reload them per action.
    const uint32_t *Operands = B.Operands.data();
    const ThreadId *Threads = B.Threads.data();
    const Value *Values = B.Values.data();
    const EventBatch::InvokeRecord *Record = B.Invokes.data() + FirstInvoke;
    for (size_t I = 0; I != NPos; ++I, ++Record) {
      uint32_t P = Pos[I];
      ObjectId Obj(Operands[P]);
      View.repoint(Obj, Record->Method, Values + Record->FirstValue,
                   Record->NArgs, Record->NRets);
      if (!CachedState || !(CachedObj == Obj)) {
        CachedState = &stateFor(Obj);
        CachedObj = Obj;
      } else {
        ++CacheHits;
      }
      ThreadId T = Threads[P];
      if (!CachedClock || !(CachedThread == T)) {
        CachedClock = &Resolve(T);
        CachedThread = T;
      }
      onActionResolved(View, T, *CachedClock, BaseIndex + P, *CachedState);
    }
    KernelEventsCtr += NPos;
  }

  /// Both phases for one action event \p A executed by \p Thread with
  /// clock \p Clock at trace position \p EventIndex, with the per-object
  /// state already resolved — the body of onRun()'s loop, and of
  /// process() for an invoke.
  void onActionResolved(const Action &A, ThreadId Thread,
                        const VectorClock &Clock, size_t EventIndex,
                        ObjectState &State) {
    ++ActionsSeen;
    const AccessPointProvider *Provider = State.Provider;
    assert(Provider && "object has no bound access point provider");

    Scratch.clear();
    Provider->touches(A, Scratch);

    // Phase 1: probe for conflicting active points.
    for (const AccessPoint &Pt : Scratch) {
      for (uint32_t Partner : Provider->conflictsOf(Pt.ClassId)) {
        ++ConflictChecks;
        // Value-carrying classes only conflict on equal values, so the
        // probe key reuses Pt's value; plain classes probe the bare class.
        AccessPoint Key = Provider->classCarriesValue(Partner)
                              ? AccessPoint::withValue(Partner, Pt.Val)
                              : AccessPoint::plain(Partner);
        assert((Provider->classCarriesValue(Partner) == Pt.HasValue) &&
               "conflicts must not cross value-carrying and plain classes");
        const EpochClock *Prior = State.Active.find(Key);
        if (Prior && !Prior->leq(Clock))
          reportRace(A, Thread, Clock, EventIndex, *Provider, Partner, *Prior);
      }
    }

    // Phase 2: accumulate this event's clock into every touched point.
    for (const AccessPoint &Pt : Scratch) {
      auto [Rep, Inserted] = State.Active.tryEmplace(Pt);
      bool Changed = Rep->accumulate(Clock, Thread);
      if (Inserted || Changed)
        State.Version = ++MutStamp;
      if (Inserted) {
        ++ActivePoints;
        ++Activations;
      }
    }
  }

  /// Phase 1's report: builds the record in place. Neither the class name
  /// nor a non-escalated prior clock costs an allocation, and the current
  /// clock is the thread's shared snapshot.
  void reportRace(const Action &A, ThreadId Thread, const VectorClock &Clock,
                  size_t EventIndex, const AccessPointProvider &Provider,
                  uint32_t Partner, const EpochClock &Prior) {
    CommutativityRace &Race = Races.emplace_back();
    Race.EventIndex = EventIndex;
    Race.Thread = Thread;
    Race.Current = A;
    Race.PointName = className(Provider, Partner);
    Race.PriorClock = RaceClock::of(Prior);
    Race.CurrentClock = threadSnapshot(Thread, Clock);
    ++RaceCount;
    RacyObjects.insert(A.object());
  }

  /// \p Provider's name for \p Class, interned on first use and cached per
  /// (provider, class): SymbolTable takes a global lock, so no race pays
  /// for an intern.
  Symbol className(const AccessPointProvider &Provider, uint32_t Class) {
    if (&Provider != NamedProvider) {
      NamedProvider = &Provider;
      Names = &ClassNames[&Provider];
    }
    if (Class >= Names->size())
      Names->resize(Class + 1);
    std::optional<Symbol> &Name = (*Names)[Class];
    if (!Name)
      Name = symbol(Provider.className(Class));
    return *Name;
  }

  /// Drops the class-name cache: a rebinding may free a provider and
  /// allocate another at the same address.
  void forgetClassNames() {
    ClassNames.clear();
    NamedProvider = nullptr;
    Names = nullptr;
  }

  /// A snapshot of \p Thread's clock \p Clock, reused by every race of the
  /// thread while the clock's contents are unchanged.
  const RaceClock &threadSnapshot(ThreadId Thread, const VectorClock &Clock) {
    size_t I = Thread.index();
    if (I >= ThreadSnapshots.size())
      ThreadSnapshots.resize(I + 1);
    RaceClock &Snapshot = ThreadSnapshots[I];
    if (!Snapshot.isSnapshotOf(Clock))
      Snapshot = RaceClock(Clock);
    return Snapshot;
  }

  ObjectState &stateFor(ObjectId Obj) {
    if (LastState && LastObj == Obj) {
      ++CacheHits;
      return *LastState;
    }
    ++CacheMisses;
    auto [Slot, Inserted] = Objects.tryEmplace(Obj);
    if (Inserted) {
      *Slot = std::make_unique<ObjectState>();
      const AccessPointProvider *const *Bound = Bindings.find(Obj);
      (*Slot)->Provider = Bound ? *Bound : DefaultProvider;
      (*Slot)->Version = ++MutStamp;
    }
    LastState = Slot->get();
    LastObj = Obj;
    return **Slot;
  }

  void refreshProviders() {
    for (auto &[Obj, State] : Objects) {
      const AccessPointProvider *const *Bound = Bindings.find(Obj);
      State->Provider = Bound ? *Bound : DefaultProvider;
    }
  }

  /// Version of \p Obj's per-object state: 0 when absent, else the
  /// mutation stamp of its last change. Two equal reads with no config
  /// change in between imply bit-identical phase-1/2 behavior for any
  /// fixed action sequence on the object.
  uint64_t objectVersion(ObjectId Obj) const {
    const auto *State = Objects.find(Obj);
    return State ? (*State)->Version : 0;
  }

  VectorClockState VCState;
  FlatMap<ObjectId, const AccessPointProvider *> Bindings;
  FlatMap<ObjectId, std::unique_ptr<ObjectState>> Objects;
  const AccessPointProvider *DefaultProvider = nullptr;
  /// One-entry cache for the common run of actions on the same object.
  ObjectState *LastState = nullptr;
  ObjectId LastObj;
  /// Undrained records (see drainRaces()) and the total ever reported.
  std::vector<CommutativityRace> Races;
  size_t RaceCount = 0;
  std::unordered_set<ObjectId> RacyObjects;
  /// Class names by provider, then class id (see className()).
  std::unordered_map<const AccessPointProvider *,
                     std::vector<std::optional<Symbol>>>
      ClassNames;
  const AccessPointProvider *NamedProvider = nullptr;
  std::vector<std::optional<Symbol>> *Names = nullptr;
  /// Per-thread current-clock snapshots (see threadSnapshot()).
  std::vector<RaceClock> ThreadSnapshots;
  std::vector<AccessPoint> Scratch;
  /// onRun()'s view of the invoke it executes, re-pointed per invoke (and
  /// stale between runs, where nothing reads it).
  Action View;
  size_t ConflictChecks = 0;
  size_t ActivePoints = 0;
  /// Bumped on every observable change to per-object state: object-state
  /// creation/erasure and any active-point representation change. Race
  /// pushes and counters are deliberately excluded — a summary reproduces
  /// those itself.
  uint64_t MutStamp = 0;
  /// Bumped by bind()/setDefaultProvider(): summaries depend on the
  /// provider configuration (touches/conflicts/className) and must be
  /// invalidated when it changes.
  uint64_t ConfigStamp = 0;
  /// Observability counters (single writer — the thread driving the
  /// detector).
  uint64_t ActionsSeen = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t Activations = 0;
  uint64_t KernelEventsCtr = 0;
  size_t EventIndex = 0;
  /// processBatch()'s run positions, reused across batches
  /// (allocation-free in the steady state).
  std::vector<uint32_t> InvokeScratch;
  uint64_t KernelNs = 0;
};

} // namespace crd

#endif // CRD_DETECT_COMMUTATIVITYDETECTOR_H

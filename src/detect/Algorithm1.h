//===- detect/Algorithm1.h - Shared Algorithm 1 engine ----------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The clock-independent core of Algorithm 1: given an action event together
/// with its vector clock vc(e), run
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
/// Hot-path layout: every table on the per-event path is a FlatMap (open
/// addressing, contiguous storage) instead of node-based unordered_map, and
/// each object's state bundles its active-point table with the resolved
/// provider, so the common case — a run of actions on the same object —
/// costs zero table probes for object + binding resolution (a one-entry
/// cache) and one flat probe per conflict class.
///
/// Accumulated clocks are EpochClocks: O(1) probes and joins while a
/// point's history is HB-totally-ordered, escalating to a full vector
/// clock only when it is not.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_ALGORITHM1_H
#define CRD_DETECT_ALGORITHM1_H

#include "access/Provider.h"
#include "detect/Race.h"
#include "support/EpochClock.h"
#include "support/FlatMap.h"
#include "trace/EventBatch.h"

#include <array>
#include <cassert>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace crd {

/// Counters an Algorithm 1 engine accumulates while processing. One
/// instance per engine. Schema: docs/observability.md.
struct Algorithm1Stats {
  uint64_t Actions = 0;          ///< onAction invocations.
  uint64_t ConflictChecks = 0;   ///< Phase-1 conflict-partner probes.
  uint64_t ObjectCacheHits = 0;  ///< stateFor resolved by the one-entry cache.
  uint64_t ObjectCacheMisses = 0;///< stateFor fell through to the table.
  uint64_t Activations = 0;      ///< Access points activated (first touch).
  uint64_t ActivePoints = 0;     ///< Currently active points (live objects).
  uint64_t KernelEvents = 0;     ///< Actions executed through onRun().
  /// Always zero; kept only because perfbench reads it.
  std::array<uint64_t, 9> LookaheadOccupancy{};
};

/// Phases 1–2 of Algorithm 1 over per-object active-point tables.
class Algorithm1Engine {
  /// Per-object detector state: the active-point table plus the provider
  /// resolved once at creation (re-resolved on bind()/setDefaultProvider()),
  /// so onAction never consults the bindings table. Heap-allocated so the
  /// one-entry LastState cache survives Objects rehashes. (Declared before
  /// the public section: onRun()/onActionResolved() below take it by
  /// reference.)
  struct ObjectState {
    FlatMap<AccessPoint, EpochClock> Active;
    const AccessPointProvider *Provider = nullptr;
    /// Mutation stamp of the last change to this object's state. Global
    /// (engine-wide) stamps make versions unambiguous across objectDied()
    /// + re-creation, which per-object counters would alias.
    uint64_t Version = 0;
  };

public:
  Algorithm1Engine() = default;

  /// Binds the representation used for actions on \p Obj. Bindings live in
  /// their own map so they survive objectDied() reclamation.
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

  /// Runs both phases for one action event \p A executed by \p Thread with
  /// clock \p Clock at trace position \p EventIndex.
  void onAction(const Action &A, ThreadId Thread, const VectorClock &Clock,
                size_t EventIndex) {
    onActionResolved(A, Thread, Clock, EventIndex, stateFor(A.object()));
  }

  /// The batched detection kernel: executes the actions of one run (a
  /// sync-free stretch, so every thread's clock is constant throughout)
  /// given their positions inside \p B, in event order, through the exact
  /// onAction() phases. Each invoke's object and thread come from \p B's
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

  /// onAction() with the per-object state already resolved — the body of
  /// onRun()'s loop, and the tail of onAction() itself.
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

  /// Reclaims all auxiliary state of a dead object (paper §5.3): its
  /// active-point table is erased outright, so long-running workloads do
  /// not accrete empty per-object slots. The provider binding survives.
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

  /// Records reported and not yet drained, in report order.
  const std::vector<CommutativityRace> &races() const { return Races; }

  /// Total races reported so far, drained or not.
  size_t raceCount() const { return RaceCount; }

  /// Hands every undrained record to \p Fn in report order, then drops
  /// them: afterwards races() is empty and only the counters remain.
  template <typename F> void drainRaces(F &&Fn) {
    for (const CommutativityRace &R : Races)
      Fn(R);
    Races.clear();
  }

  size_t distinctRacyObjects() const { return RacyObjects.size(); }
  size_t conflictChecks() const { return ConflictChecks; }

  /// Total number of currently active access points across live objects.
  /// Maintained incrementally; O(1).
  size_t activePointCount() const { return ActivePoints; }

  //===--------------------------------------------------------------------===//
  // Chunk-memoization support (detect/ChunkMemo.h). A chunk summary is a
  // pure function of (entry state restricted to its footprint, chunk
  // bytes): the stamps below let the memo layer prove "entry state
  // unchanged" in O(footprint) and "interpretation was a state no-op" in
  // O(1), without hashing any clock.
  //===--------------------------------------------------------------------===//

  /// Monotonic stamp bumped on every observable engine-state mutation:
  /// object-state creation/erasure and any active-point representation
  /// change. Race pushes and counters are deliberately excluded — a
  /// summary reproduces those itself.
  uint64_t mutationStamp() const { return MutStamp; }

  /// Bumped by bind()/setDefaultProvider(): summaries
  /// depend on the provider configuration (touches/conflicts/className)
  /// and must be invalidated when it changes.
  uint64_t configStamp() const { return ConfigStamp; }

  /// Version of \p Obj's per-object state: 0 when absent, else the
  /// mutation stamp of its last change. Two equal reads with no config
  /// change in between imply bit-identical phase-1/2 behavior for any
  /// fixed action sequence on the object.
  uint64_t objectVersion(ObjectId Obj) const {
    const auto *State = Objects.find(Obj);
    return State ? (*State)->Version : 0;
  }

  /// Replays one summarized race: pushes the (re-based) report and marks
  /// the object racy, exactly as phase 1 would have.
  void replayRace(const CommutativityRace &Race) {
    RacyObjects.insert(Race.Current.object());
    Races.push_back(Race);
    ++RaceCount;
  }

  /// Adds a replayed chunk's counter deltas (phase-1 probes and actions).
  void addReplayStats(uint64_t Conflicts, uint64_t Actions) {
    ConflictChecks += Conflicts;
    ActionsSeen += Actions;
  }

  /// Metrics snapshot (docs/observability.md).
  Algorithm1Stats stats() const {
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

  /// Snapshot of an object's active points with materialized clocks
  /// (diagnostic/testing API; order unspecified).
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
  uint64_t MutStamp = 0;   ///< See mutationStamp().
  uint64_t ConfigStamp = 0;///< See configStamp().
  /// Observability counters (single writer — the thread driving the
  /// engine).
  uint64_t ActionsSeen = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t Activations = 0;
  uint64_t KernelEventsCtr = 0;
};

} // namespace crd

#endif // CRD_DETECT_ALGORITHM1_H

//===- detect/OnlineAtomicity.cpp - streaming atomicity checking ---------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "detect/OnlineAtomicity.h"

#include <cassert>

using namespace crd;

void OnlineAtomicityChecker::bind(ObjectId Obj,
                                  const AccessPointProvider *Provider) {
  assert(Provider && "null provider");
  Providers[Obj] = Provider;
}

const AccessPointProvider *
OnlineAtomicityChecker::providerFor(ObjectId Obj) const {
  auto It = Providers.find(Obj);
  if (It != Providers.end())
    return It->second;
  assert(DefaultProvider && "object has no bound access point provider");
  return DefaultProvider;
}

OnlineAtomicityChecker::ThreadState &
OnlineAtomicityChecker::stateOf(ThreadId Thread) {
  return Threads[Thread.index()];
}

uint32_t OnlineAtomicityChecker::makeNode(ThreadId Thread, bool Atomic) {
  uint32_t Node = Graph.addNode();
  assert(Node == Nodes.size() && "graph/node table out of sync");
  Nodes.push_back({Thread, Atomic, EventIndex, EventIndex});

  ThreadState &State = stateOf(Thread);
  if (State.LastNode >= 0)
    addEdgeChecked(static_cast<uint32_t>(State.LastNode), Node);
  for (uint32_t Source : State.PendingIncoming)
    addEdgeChecked(Source, Node);
  State.PendingIncoming.clear();
  State.LastNode = Node;
  return Node;
}

uint32_t OnlineAtomicityChecker::nodeForWork(ThreadId Thread) {
  ThreadState &State = stateOf(Thread);
  if (State.OpenBlock >= 0) {
    uint32_t Node = static_cast<uint32_t>(State.OpenBlock);
    Nodes[Node].EndEvent = EventIndex;
    return Node;
  }
  return makeNode(Thread, /*Atomic=*/false);
}

void OnlineAtomicityChecker::edgeIntoThread(int64_t Source, ThreadId Thread) {
  if (Source < 0)
    return;
  ThreadState &State = stateOf(Thread);
  if (State.OpenBlock >= 0) {
    addEdgeChecked(static_cast<uint32_t>(Source),
                   static_cast<uint32_t>(State.OpenBlock));
    return;
  }
  State.PendingIncoming.push_back(static_cast<uint32_t>(Source));
}

void OnlineAtomicityChecker::addEdgeChecked(uint32_t From, uint32_t To) {
  if (From == To)
    return;
  DynamicTopoGraph::InsertResult Result = Graph.addEdge(From, To);
  if (Result.Inserted)
    return;
  // The edge would close a cycle To -> ... -> From (-> To). Report every
  // atomic block on it, once per block, and drop the edge (as a monitor
  // aborting the offending transaction would).
  for (uint32_t Node : Result.CyclePath) {
    if (!Nodes[Node].Atomic || !FlaggedBlocks.insert(Node).second)
      continue;
    AtomicityViolation V;
    V.Thread = Nodes[Node].Thread;
    V.BeginEvent = Nodes[Node].BeginEvent;
    V.EndEvent = Nodes[Node].EndEvent;
    for (uint32_t P : Result.CyclePath)
      V.CycleEvents.push_back(Nodes[P].BeginEvent);
    Violations.push_back(std::move(V));
  }
}

void OnlineAtomicityChecker::handleInvoke(const Event &E) {
  const Action &A = E.action();
  const AccessPointProvider &Provider = *providerFor(A.object());
  uint32_t Node = nodeForWork(E.thread());

  Scratch.clear();
  Provider.touches(A, Scratch);
  auto &ObjectTouchers = Touchers[A.object()];

  // Conflict edges from every prior toucher of a conflicting point.
  for (const AccessPoint &Pt : Scratch) {
    bool PtSelfConflicts = false;
    {
      const std::vector<uint32_t> &Own = Provider.conflictsOf(Pt.ClassId);
      PtSelfConflicts =
          std::find(Own.begin(), Own.end(), Pt.ClassId) != Own.end();
    }
    for (uint32_t Partner : Provider.conflictsOf(Pt.ClassId)) {
      AccessPoint Key = Provider.classCarriesValue(Partner)
                            ? AccessPoint::withValue(Partner, Pt.Val)
                            : AccessPoint::plain(Partner);
      auto It = ObjectTouchers.find(Key);
      if (It == ObjectTouchers.end())
        continue;
      for (uint32_t Prior : It->second)
        addEdgeChecked(Prior, Node);
      // Velodrome-style consumption (the read-set clearing rule): once
      // every toucher of Key is ordered before this node, the list may be
      // dropped iff (a) this node's class is Key's only conflict partner,
      // so future conflicts with Key's class route through nodes of this
      // class, and (b) this class self-conflicts, so those future nodes
      // are reachable from this one through the conflict chain.
      const std::vector<uint32_t> &PartnerRow = Provider.conflictsOf(Partner);
      if (PtSelfConflicts && PartnerRow.size() == 1 &&
          PartnerRow[0] == Pt.ClassId)
        It->second.clear();
    }
  }

  // Record this node as a toucher of every point. Self-conflicting
  // classes keep only the latest toucher (the chain of conflict edges
  // makes earlier ones transitive).
  for (const AccessPoint &Pt : Scratch) {
    std::vector<uint32_t> &List = ObjectTouchers[Pt];
    const std::vector<uint32_t> &Partners = Provider.conflictsOf(Pt.ClassId);
    bool SelfConflicting =
        std::find(Partners.begin(), Partners.end(), Pt.ClassId) !=
        Partners.end();
    if (SelfConflicting)
      List.assign(1, Node);
    else if (List.empty() || List.back() != Node)
      List.push_back(Node);
  }
}

void OnlineAtomicityChecker::process(const Event &E) {
  switch (E.kind()) {
  case EventKind::TxBegin:
    // Blocks do not nest: a txbegin inside an open block opens a new
    // block, and the outer one ends where it stands.
    stateOf(E.thread()).OpenBlock = makeNode(E.thread(), /*Atomic=*/true);
    break;
  case EventKind::TxEnd: {
    // A txend that closes no block is skipped: traces come from clients,
    // so this is a check in every build, not an assertion.
    ThreadState &State = stateOf(E.thread());
    if (State.OpenBlock < 0)
      break;
    Nodes[static_cast<uint32_t>(State.OpenBlock)].EndEvent = EventIndex;
    State.OpenBlock = -1;
    break;
  }
  case EventKind::Fork: {
    // The parent's most recent node precedes everything the child does.
    ThreadState &Parent = stateOf(E.thread());
    if (Parent.LastNode >= 0)
      edgeIntoThread(Parent.LastNode, E.other());
    break;
  }
  case EventKind::Join: {
    ThreadState &Child = stateOf(E.other());
    edgeIntoThread(Child.LastNode, E.thread());
    break;
  }
  case EventKind::Acquire: {
    auto It = LastReleaseNode.find(E.lock().index());
    if (It != LastReleaseNode.end())
      edgeIntoThread(It->second, E.thread());
    break;
  }
  case EventKind::Release: {
    LastReleaseNode[E.lock().index()] = stateOf(E.thread()).LastNode;
    break;
  }
  case EventKind::Invoke:
    handleInvoke(E);
    break;
  case EventKind::Read:
  case EventKind::Write:
    break;
  }
  ++EventIndex;
}

void OnlineAtomicityChecker::processTrace(const Trace &T) {
  for (const Event &E : T)
    process(E);
}

//===- detect/OnlineAtomicity.h - streaming atomicity checking --*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming counterpart of AtomicityChecker: a Velodrome-style online
/// conflict-serializability monitor whose conflicts are commutativity
/// conflicts over access points (the §8 generalization, "with the
/// appropriate modifications of the atomicity algorithms to deal with
/// access points").
///
/// Transactions (atomic blocks and unary actions) are nodes of a DAG whose
/// edges are program order, synchronization order, and access point
/// conflicts; the DAG's topological order is maintained incrementally
/// (Pearce–Kelly), so an edge that would close a cycle is detected the
/// moment it appears — that cycle is a serializability violation, reported
/// against the atomic block(s) on it. Cycle-closing edges are not inserted
/// (the graph stays acyclic), mirroring a monitor that would abort the
/// offending transaction.
///
/// State kept per access point: the transactions that touched it. For
/// self-conflicting classes only the latest toucher is retained (the
/// conflict chain makes earlier edges transitive), which is the same
/// compression FastTrack applies to write epochs.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_ONLINEATOMICITY_H
#define CRD_DETECT_ONLINEATOMICITY_H

#include "access/Provider.h"
#include "detect/AtomicityChecker.h" // AtomicityViolation
#include "support/DynamicTopoGraph.h"
#include "trace/Trace.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace crd {

/// Online commutativity-aware conflict-serializability checker.
class OnlineAtomicityChecker {
public:
  OnlineAtomicityChecker() = default;

  void bind(ObjectId Obj, const AccessPointProvider *Provider);
  void setDefaultProvider(const AccessPointProvider *Provider) {
    DefaultProvider = Provider;
  }

  /// Feeds one event (any kind).
  void process(const Event &E);
  void processTrace(const Trace &T);

  /// Violations found so far and not yet drained; at most one per atomic
  /// block.
  const std::vector<AtomicityViolation> &violations() const {
    return Violations;
  }

  /// Hands every undrained violation to \p Fn in report order, then drops
  /// them. The streaming pipeline drains after every batch.
  template <typename F> void drainViolations(F &&Fn) {
    for (const AtomicityViolation &V : Violations)
      Fn(V);
    Violations.clear();
  }

  /// Number of transaction nodes created (diagnostics).
  size_t numTransactions() const { return Nodes.size(); }

private:
  struct TxNode {
    ThreadId Thread;
    bool Atomic = false;
    size_t BeginEvent = 0;
    size_t EndEvent = 0;
  };

  struct ThreadState {
    int64_t OpenBlock = -1;  ///< Node id of the open atomic block, or -1.
    int64_t LastNode = -1;   ///< Most recent node of this thread, or -1.
    std::vector<uint32_t> PendingIncoming; ///< Edges into the next node.
  };

  const AccessPointProvider *providerFor(ObjectId Obj) const;
  ThreadState &stateOf(ThreadId Thread);
  uint32_t makeNode(ThreadId Thread, bool Atomic);
  /// Node the thread's next work belongs to: the open block, or a fresh
  /// unary node.
  uint32_t nodeForWork(ThreadId Thread);
  /// Routes an incoming cross-thread edge to \p Thread: directly into its
  /// open block, or deferred to its next node.
  void edgeIntoThread(int64_t Source, ThreadId Thread);
  void addEdgeChecked(uint32_t From, uint32_t To);
  void handleInvoke(const Event &E);

  std::vector<TxNode> Nodes;
  DynamicTopoGraph Graph;
  std::unordered_map<uint32_t, ThreadState> Threads;
  std::unordered_map<uint32_t, int64_t> LastReleaseNode; ///< By lock index.
  std::unordered_map<ObjectId,
                     std::unordered_map<AccessPoint, std::vector<uint32_t>>>
      Touchers;
  std::unordered_map<ObjectId, const AccessPointProvider *> Providers;
  const AccessPointProvider *DefaultProvider = nullptr;
  std::vector<AtomicityViolation> Violations;
  std::unordered_set<uint32_t> FlaggedBlocks;
  std::vector<AccessPoint> Scratch;
  size_t EventIndex = 0;
};

} // namespace crd

#endif // CRD_DETECT_ONLINEATOMICITY_H

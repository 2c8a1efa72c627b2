//===- graph/MsBfs.h - Bit-parallel multi-source BFS -----------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-parallel multi-source BFS over CSR adjacency: 512 sources advance
/// together, one bit lane per source. Each node carries MsBfsFusedWords
/// = 8 consecutive 64-bit seen / frontier words -- one full cache line
/// per node per bitmap -- so a line update does the work of up to 512
/// scalar BFS visits, which is what pushes exact all-pairs and fault
/// sweeps from k = 7 into k = 9/10 territory.
///
/// There is one engine, direction-optimizing (Beamer-style). Sparse levels
/// run a push pass over an explicit frontier worklist (no O(N) scans);
/// dense levels run a pull pass over the transpose: each not-yet-saturated
/// node ORs its in-neighbors' frontier words, early-exiting the moment
/// every lane it still lacks has been found, and nodes whose seen word
/// fills up are compacted out of the active list for the rest of the
/// batch. A frontier-density heuristic (pure function of worklist sizes,
/// so fully deterministic) switches direction per level.
///
/// The engine is detail::msBfsFusedImpl. Its library callers are
/// msAllPairsStats and the fault analyses (graph/Faults.h), both of which
/// pass a sink exposing a `level(Level, NewVisits)` member and so get one
/// per-level popcount tally instead of hundreds of millions of per-word
/// callbacks; a plain per-node visitor is what the differential tests
/// use to rebuild full distance rows.
///
/// Bitmap arrays and worklists come from per-thread reusable scratch
/// (support/Scratch.h) -- a 7k-group sweep at k = 10 would otherwise
/// malloc three multi-megabyte arrays per group.
///
/// Determinism: traversal is bit algebra over fixed node orders, so a
/// group's visit sequence is a pure function of (graph, source list).
/// Levels ascend; within a level the order is deterministic (worklist
/// order, not node order), and all in-tree sinks fold with
/// order-independent operations (integer sums / max / OR). The
/// independent oracles are scalar bfs() (graph/Bfs.h) and the
/// one-bfs()-per-source sweep in tests/ReferenceMetrics.h:
/// tests/MsBfsTest.cpp pins per-node rows and whole sweeps against them
/// byte for byte. msAllPairsStats reduces groups through the ThreadPool's
/// order-independent fold, so parallel runs are byte-identical to serial.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_MSBFS_H
#define SCG_GRAPH_MSBFS_H

#include "graph/Bfs.h"
#include "graph/Csr.h"
#include "graph/Metrics.h"
#include "support/Scratch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <span>
#include <vector>

namespace scg {

class MetricsRegistry;

/// Lane words per node: 8 words = one full 64-byte cache line per node,
/// so every random bitmap access during push scatter / pull gather uses
/// the whole line it faults in instead of one eighth of it. Sweep
/// statistics are sums / maxima over (source, node) pairs, so the group
/// size cannot change any result bit.
constexpr unsigned MsBfsFusedWords = 8;

/// Sources one engine run advances together: one bit lane per source.
constexpr unsigned MsBfsGroupLanes = 64 * MsBfsFusedWords;

/// Reusable per-group state. One group needs three 8N-word bitmap arrays
/// plus up-to-N-entry worklists; the engine assign()s/clear()s every field
/// it uses, so a warm scratch object is observationally identical to a
/// fresh one (support/Scratch.h contract). msAllPairsStats keeps one per
/// worker thread; callers invoking the engine directly may pass their own
/// or let it use the calling thread's.
struct MsBfsScratch {
  std::vector<uint64_t> Seen, Frontier, Next;
  std::vector<NodeId> CurList;  ///< nodes with a nonzero frontier word.
  std::vector<NodeId> NextList; ///< nodes touched while building the next level.
  std::vector<NodeId> Unseen;   ///< nodes whose seen word is not full.
  std::vector<NodeId> Sources;  ///< a sweep's group source staging.
  /// True when the last engine run completed, which leaves Frontier and
  /// Next all-zero (every dead word is zeroed on commit and the final
  /// level has no live ones) -- the next same-size run then skips two
  /// large memsets. The engine clears the flag on entry and sets it on exit.
  bool LaneWordsClean = false;
};

/// Work counters a traversal can report, one increment per word
/// read or written in a level pass. Order-independent integer sums, so
/// sweep-level aggregates are byte-identical at every thread count (on
/// connected graphs; the disconnected early-out may skip batches). These
/// are what the `distance.*` metrics and bench JSON expose to explain
/// where the sweep's work goes: words per direction, levels, switches.
struct MsBfsCounters {
  uint64_t Batches = 0;           ///< 64-source batch equivalents run.
  uint64_t PushLevels = 0;        ///< levels run top-down.
  uint64_t PullLevels = 0;        ///< levels run bottom-up.
  uint64_t PushWords = 0;         ///< words touched by push passes.
  uint64_t PullWords = 0;         ///< words touched by pull passes.
  uint64_t DirectionSwitches = 0; ///< level-to-level direction changes.

  MsBfsCounters &operator+=(const MsBfsCounters &O) {
    Batches += O.Batches;
    PushLevels += O.PushLevels;
    PullLevels += O.PullLevels;
    PushWords += O.PushWords;
    PullWords += O.PullWords;
    DirectionSwitches += O.DirectionSwitches;
    return *this;
  }
};

namespace detail {

/// Resets a lane-word array for a new run. Seen must be wiped, but
/// Frontier / Next are all-zero whenever the engine ran to completion on
/// them (the commit loops zero every dead word and the final level leaves
/// no live ones), so a correctly-sized warm buffer skips the memset --
/// worth ~20% of a small-k group. A resize from another graph size can
/// expose stale words, so only the size-match fast path may skip. First
/// growth of a buffer advises huge pages before the touching assign: the
/// big-k bitmaps are exactly the randomly-accessed multi-megabyte arrays
/// reserveHugePages is for.
inline void resetLaneWords(std::vector<uint64_t> &Buf, size_t Size,
                           bool KnownZero) {
  if (KnownZero && Buf.size() == Size) {
    // Asserts stay live in this project; a full verify loop would cost
    // what the fast path saves, so spot-check the invariant instead (the
    // differential tests exercise warm reuse exhaustively).
    assert((Buf.empty() ||
            (Buf.front() == 0 && Buf[Size / 2] == 0 && Buf.back() == 0)) &&
           "warm lane buffer must be all-zero");
    return;
  }
  reserveHugePages(Buf, Size);
  Buf.assign(Size, 0);
}

/// Direction heuristic. Unlike single-source BFS (where one found parent
/// ends a bottom-up row), a pull row only early-exits once *every* lane
/// the node still lacks has been gathered, so pulling pays off late: when
/// the frontier worklist has caught up with the shrinking unsaturated
/// list (measured profile on star(7): frontier reaches ~98% of nodes two
/// levels before saturation starts collapsing Unseen). A level therefore
/// pulls when |frontier| >= |unseen|, and otherwise pushes -- over a
/// worklist while the frontier is sparse (< 1/MsBfsDenseFraction of the
/// graph), with plain full-array scans once it is dense and the per-edge
/// worklist bookkeeping costs more than the scan it avoids. Both choices
/// are pure functions of worklist sizes: deterministic at every thread
/// count.
constexpr uint64_t MsBfsDenseFraction = 16;

/// Worklist lookahead (in nodes) for software prefetch of lane lines.
/// Dense levels chase random cache lines through L3 / DRAM; prefetching a
/// few nodes ahead keeps several misses in flight instead of serializing
/// on each one. Pure hint: no effect on results.
constexpr size_t MsBfsPrefetchAhead = 8;

/// The direction-optimizing engine over MsBfsFusedWords lane words per
/// node: one run advances up to MsBfsGroupLanes sources, and every random
/// bitmap access works on a full cache line (batch fusion, the key
/// memory-efficiency trick from the MS-BFS literature). \p Visit fires as
/// Visit(Node, WordIdx, NewMask, Level) once per (node, word) with newly
/// arrived lanes; lane WordIdx * 64 + bit is Sources[same index]. Level 0
/// covers the sources themselves (a duplicated source's lanes arrive
/// together). A sink with a `level(Level, NewVisits)` member gets one
/// call per level with arrivals instead. \p Counters is read only when
/// \p WithCounters. Inputs are the caller's invariants (asserted): at
/// most MsBfsGroupLanes sources, each a node of \p G, and \p GT =
/// G.transpose().
template <bool WithCounters, typename OnVisit>
void msBfsFusedImpl(const Csr &G, const Csr &GT,
                    std::span<const NodeId> Sources, OnVisit &&Visit,
                    MsBfsCounters *Counters, MsBfsScratch &S) {
  constexpr unsigned W = MsBfsFusedWords;
  const NodeId N = G.numNodes();
  assert(GT.numNodes() == N && GT.numEdges() == G.numEdges() &&
         "transpose must match the forward graph");
  assert(Sources.size() <= MsBfsGroupLanes && "too many lanes for one group");
  if (Sources.empty() || N == 0)
    return;
  // Per-word full masks; a short tail group leaves trailing words zero,
  // which makes their Remain vacuously empty everywhere below.
  uint64_t Full[W];
  for (unsigned Word = 0; Word != W; ++Word) {
    size_t Lanes = Sources.size() > size_t(Word) * 64
                       ? std::min<size_t>(64, Sources.size() - size_t(Word) * 64)
                       : 0;
    Full[Word] = Lanes == 64 ? ~uint64_t(0) : (uint64_t(1) << Lanes) - 1;
  }
  detail::resetLaneWords(S.Seen, size_t(N) * W, /*KnownZero=*/false);
  detail::resetLaneWords(S.Frontier, size_t(N) * W, S.LaneWordsClean);
  detail::resetLaneWords(S.Next, size_t(N) * W, S.LaneWordsClean);
  S.LaneWordsClean = false;
  S.CurList.clear();
  S.NextList.clear();
  S.Unseen.resize(N);
  std::iota(S.Unseen.begin(), S.Unseen.end(), NodeId(0));
  uint64_t *Seen = S.Seen.data();
  for (size_t Lane = 0; Lane != Sources.size(); ++Lane) {
    assert(Sources[Lane] < N && "source out of range");
    S.Frontier[size_t(Sources[Lane]) * W + Lane / 64] |= uint64_t(1)
                                                         << (Lane % 64);
  }
  // Statistics sinks only need the number of lanes arriving per level,
  // not which ones: when the sink exposes level(Level, NewVisits), the
  // commit loops accumulate branchless popcounts (one vector op per node)
  // and fire the sink once per level instead of once per nonzero
  // (node, word). Pure sum regrouping -- results are identical.
  constexpr bool PerLevel =
      requires { Visit.level(uint32_t(0), uint64_t(0)); };
  uint64_t LevelPop = 0;
  for (NodeId Src : Sources) {
    uint64_t Already = 0;
    for (unsigned Word = 0; Word != W; ++Word)
      Already |= Seen[size_t(Src) * W + Word];
    if (Already)
      continue; // duplicate source: lanes shared the first node's visits.
    S.CurList.push_back(Src);
    for (unsigned Word = 0; Word != W; ++Word) {
      uint64_t F = S.Frontier[size_t(Src) * W + Word];
      Seen[size_t(Src) * W + Word] = F;
      if constexpr (PerLevel)
        LevelPop += uint64_t(std::popcount(F));
      else if (F)
        Visit(Src, Word, F, uint32_t(0));
    }
  }
  if constexpr (PerLevel) {
    if (LevelPop)
      Visit.level(uint32_t(0), LevelPop);
    LevelPop = 0;
  }

  if constexpr (WithCounters)
    Counters->Batches += (Sources.size() + 63) / 64; // 64-lane equivalents.
  const NodeId *Adj = G.adjacencyData();
  const uint64_t *Off = G.offsetsData();
  const NodeId *RevAdj = GT.adjacencyData();
  const uint64_t *RevOff = GT.offsetsData();
  bool PrevPull = false;
  for (uint32_t Level = 1;; ++Level) {
    // Frontier / Next are double buffers: at the top of every level Next
    // is all-zero, Frontier's nonzero words are exactly CurList, and
    // Unseen (ascending, possibly stale-saturated between pull levels)
    // covers every node whose seen word might still grow.
    const bool Pull = S.CurList.size() >= S.Unseen.size();
    const bool Dense =
        !Pull && S.CurList.size() * MsBfsDenseFraction >= uint64_t(N);
    if constexpr (WithCounters) {
      if (Level > 1 && Pull != PrevPull)
        ++Counters->DirectionSwitches;
      ++(Pull ? Counters->PullLevels : Counters->PushLevels);
    }
    PrevPull = Pull;
    uint64_t Words = 0;
    const uint64_t *Frontier = S.Frontier.data();
    uint64_t *Next = S.Next.data();
    if (Pull) {
      // Bottom-up: each unsaturated node gathers its in-neighbors'
      // frontier words, stopping as soon as the lanes it still lacks are
      // all found; saturated nodes drop out of Unseen for good.
      size_t Live = 0;
      const NodeId *UnseenArr = S.Unseen.data();
      const size_t UnseenSize = S.Unseen.size();
      for (size_t I = 0; I != UnseenSize; ++I) {
        // The gather chases random lane lines through L3 / DRAM; issuing
        // the next few nodes' lines ahead keeps several misses in flight
        // instead of serializing on each one.
        if (I + MsBfsPrefetchAhead < UnseenSize) {
          NodeId VP = UnseenArr[I + MsBfsPrefetchAhead];
          __builtin_prefetch(Seen + size_t(VP) * W, 1);
          for (uint64_t E = RevOff[VP], End = RevOff[VP + 1]; E != End; ++E)
            __builtin_prefetch(Frontier + size_t(RevAdj[E]) * W, 0);
        }
        NodeId V = UnseenArr[I];
        uint64_t *SeenV = Seen + size_t(V) * W;
        uint64_t Remain[W], AnyRemain = 0;
        for (unsigned Word = 0; Word != W; ++Word) {
          Remain[Word] = Full[Word] & ~SeenV[Word];
          AnyRemain |= Remain[Word];
        }
        if (!AnyRemain) {
          if constexpr (WithCounters)
            Words += W;
          continue; // saturated since the last pull level: compact away.
        }
        uint64_t New[W] = {};
        uint64_t E = RevOff[V];
        for (uint64_t End = RevOff[V + 1]; E != End; ++E) {
          const uint64_t *FU = Frontier + size_t(RevAdj[E]) * W;
          uint64_t Missing = 0;
          for (unsigned Word = 0; Word != W; ++Word) {
            New[Word] |= FU[Word];
            Missing |= Remain[Word] & ~New[Word];
          }
          if (!Missing) {
            ++E; // count the line just read, then stop scanning:
            break; // every missing lane found; the rest can add nothing.
          }
        }
        if constexpr (WithCounters)
          Words += W * (1 + (E - RevOff[V]));
        uint64_t AnyNew = 0, Unsaturated = 0;
        for (unsigned Word = 0; Word != W; ++Word) {
          New[Word] &= Remain[Word];
          AnyNew |= New[Word];
          Unsaturated |= Remain[Word] & ~New[Word];
        }
        if (AnyNew) {
          uint64_t *NextV = Next + size_t(V) * W;
          for (unsigned Word = 0; Word != W; ++Word) {
            SeenV[Word] |= New[Word];
            NextV[Word] = New[Word];
            if constexpr (PerLevel)
              LevelPop += uint64_t(std::popcount(New[Word]));
            else if (New[Word])
              Visit(V, Word, New[Word], Level);
          }
          S.NextList.push_back(V);
          if (!Unsaturated)
            continue; // just saturated: compact away.
        }
        S.Unseen[Live++] = V;
      }
      S.Unseen.resize(Live);
    } else if (Dense) {
      // Dense top-down: scatter without per-edge worklist bookkeeping (the
      // next frontier will cover most of the graph anyway), then commit
      // with one ascending full-array scan that rebuilds the worklist.
      const NodeId *CurArr = S.CurList.data();
      const size_t CurSize = S.CurList.size();
      for (size_t I = 0; I != CurSize; ++I) {
        if (I + MsBfsPrefetchAhead < CurSize) {
          NodeId VP = CurArr[I + MsBfsPrefetchAhead];
          __builtin_prefetch(Frontier + size_t(VP) * W, 0);
          for (uint64_t E = Off[VP], End = Off[VP + 1]; E != End; ++E)
            __builtin_prefetch(Next + size_t(Adj[E]) * W, 1);
        }
        NodeId V = CurArr[I];
        const uint64_t *F = Frontier + size_t(V) * W;
        for (uint64_t E = Off[V], End = Off[V + 1]; E != End; ++E) {
          uint64_t *NextTo = Next + size_t(Adj[E]) * W;
          for (unsigned Word = 0; Word != W; ++Word)
            NextTo[Word] |= F[Word];
        }
        if constexpr (WithCounters)
          Words += W * (1 + (Off[V + 1] - Off[V]));
      }
      for (NodeId V = 0; V != N; ++V) {
        uint64_t *NextV = Next + size_t(V) * W;
        uint64_t *SeenV = Seen + size_t(V) * W;
        uint64_t New[W], AnyNew = 0;
        for (unsigned Word = 0; Word != W; ++Word) {
          New[Word] = NextV[Word] & ~SeenV[Word];
          AnyNew |= New[Word];
        }
        if (AnyNew) {
          for (unsigned Word = 0; Word != W; ++Word) {
            NextV[Word] = New[Word];
            SeenV[Word] |= New[Word];
            if constexpr (PerLevel)
              LevelPop += uint64_t(std::popcount(New[Word]));
            else if (New[Word])
              Visit(V, Word, New[Word], Level);
          }
          S.NextList.push_back(V);
        } else {
          for (unsigned Word = 0; Word != W; ++Word)
            NextV[Word] = 0;
        }
      }
      if constexpr (WithCounters)
        Words += 2 * uint64_t(N) * W;
    } else {
      // Sparse top-down over the worklist: never touches the other
      // N - |frontier| words.
      for (NodeId V : S.CurList) {
        const uint64_t *F = Frontier + size_t(V) * W;
        for (uint64_t E = Off[V], End = Off[V + 1]; E != End; ++E) {
          NodeId To = Adj[E];
          uint64_t *NextTo = Next + size_t(To) * W;
          uint64_t Old = 0;
          for (unsigned Word = 0; Word != W; ++Word)
            Old |= NextTo[Word];
          if (!Old)
            S.NextList.push_back(To);
          for (unsigned Word = 0; Word != W; ++Word)
            NextTo[Word] |= F[Word];
        }
        if constexpr (WithCounters)
          Words += W * (1 + (Off[V + 1] - Off[V]));
      }
      // Commit in place: survivors keep their masked word and stay on the
      // list (in discovery order -- deterministic), dead entries zero out.
      size_t Live = 0;
      for (NodeId To : S.NextList) {
        uint64_t *NextTo = Next + size_t(To) * W;
        uint64_t *SeenTo = Seen + size_t(To) * W;
        uint64_t New[W], AnyNew = 0;
        for (unsigned Word = 0; Word != W; ++Word) {
          New[Word] = NextTo[Word] & ~SeenTo[Word];
          AnyNew |= New[Word];
        }
        if constexpr (WithCounters)
          Words += 2 * W;
        if (AnyNew) {
          for (unsigned Word = 0; Word != W; ++Word) {
            NextTo[Word] = New[Word];
            SeenTo[Word] |= New[Word];
            if constexpr (PerLevel)
              LevelPop += uint64_t(std::popcount(New[Word]));
            else if (New[Word])
              Visit(To, Word, New[Word], Level);
          }
          S.NextList[Live++] = To;
        } else {
          for (unsigned Word = 0; Word != W; ++Word)
            NextTo[Word] = 0;
        }
      }
      S.NextList.resize(Live);
    }
    if constexpr (WithCounters)
      (Pull ? Counters->PullWords : Counters->PushWords) += Words;
    if constexpr (PerLevel) {
      if (LevelPop) {
        Visit.level(Level, LevelPop);
        LevelPop = 0;
      }
    }
    // Swap buffers: zero the old frontier words, then Next becomes
    // Frontier and NextList becomes CurList. CurList is exactly the
    // nonzero set; when it covers most of the graph a straight-line fill
    // beats the scattered stores.
    if (S.CurList.size() * 4 >= uint64_t(N)) {
      std::fill(S.Frontier.begin(), S.Frontier.end(), uint64_t(0));
    } else {
      for (NodeId V : S.CurList)
        for (unsigned Word = 0; Word != W; ++Word)
          S.Frontier[size_t(V) * W + Word] = 0;
    }
    S.Frontier.swap(S.Next);
    S.CurList.swap(S.NextList);
    S.NextList.clear();
    if (S.CurList.empty()) {
      S.LaneWordsClean = true;
      return;
    }
  }
}

} // namespace detail

/// Sweep configuration for msAllPairsStats.
struct MsSweepOptions {
  /// When non-null, the sweep publishes `distance.*` counters here: words
  /// touched per direction, direction switches, level and batch totals.
  /// On connected graphs the published values are byte-identical at every
  /// thread count.
  MetricsRegistry *Metrics = nullptr;
};

/// All-pairs distance statistics over \p G: sources fused MsBfsGroupLanes
/// per task, tasks spread over the global ThreadPool (SCG_THREADS=1
/// forces serial), results byte-identical at every thread count and to
/// one bfs() per source. This is the engine behind
/// allPairsStats(const Graph &); call it directly when a Csr is already at
/// hand (e.g. ExplicitScg::toCsr()). The sweep builds the transpose once
/// (O(V + E), noise next to the sweep).
DistanceStats msAllPairsStats(const Csr &G, const MsSweepOptions &Opts);
DistanceStats msAllPairsStats(const Csr &G);

} // namespace scg

#endif // SCG_GRAPH_MSBFS_H

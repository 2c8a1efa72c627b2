//===- graph/Metrics.h - Diameter and distance statistics ------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph-level metrics: connectivity, diameter, average internodal distance.
/// For vertex-transitive graphs (every Cayley graph is), the eccentricity
/// and distance distribution of a single node are those of every node, so
/// one BFS suffices; the general all-pairs form is provided for the guest
/// topologies (meshes, trees -- not vertex-transitive) and for
/// cross-checking the transitivity shortcut in tests and benches.
///
/// allPairsStats runs on the library's one multi-source BFS engine
/// (graph/MsBfs.h), direction-optimizing and bit-parallel: 512 sources
/// per fused task over CSR adjacency, push/pull switched per level, tasks
/// spread across the ThreadPool -- which is what makes exact sweeps at
/// k = 9 (362,880 nodes) routine and k = 10 (3.6M nodes) an hours-scale
/// run. The tests pin it byte for byte against an independent oracle
/// that shares no traversal code with it: one bfs() per source
/// (tests/ReferenceMetrics.h).
///
//===----------------------------------------------------------------------===//

#ifndef SCG_GRAPH_METRICS_H
#define SCG_GRAPH_METRICS_H

#include "graph/Graph.h"

namespace scg {

/// Summary distance statistics of a graph.
struct DistanceStats {
  bool Connected = false;
  uint32_t Diameter = 0;
  double AverageDistance = 0.0; ///< Over ordered pairs of distinct nodes.
};

/// All-pairs statistics via bit-parallel multi-source BFS (512 sources
/// per fused task), parallel over tasks on the global ThreadPool (SCG_THREADS=1
/// forces serial). Results are byte-identical at every thread count and
/// to one bfs() per source. For a disconnected graph, returns
/// Connected=false with zeroed Diameter/AverageDistance.
DistanceStats allPairsStats(const Graph &G);

/// Single-BFS statistics from \p Representative, valid for vertex-transitive
/// graphs; \p Representative defaults to node 0.
DistanceStats vertexTransitiveStats(const Graph &G, NodeId Representative = 0);

/// True if all nodes are reachable from node 0 (for undirected or strongly
/// regular directed graphs this implies connectivity of interest here).
/// Runs the lean reachability-only BFS (no parent/distance bookkeeping,
/// early exit once every node is reached), so connectivity probes inside
/// sweeps cost a fraction of a full BFS.
bool isConnectedFromZero(const Graph &G);

} // namespace scg

#endif // SCG_GRAPH_METRICS_H

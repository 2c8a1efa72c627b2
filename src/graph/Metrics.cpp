//===- graph/Metrics.cpp - Diameter and distance statistics --------------===//

#include "graph/Metrics.h"

#include "graph/Bfs.h"
#include "graph/MsBfs.h"

using namespace scg;

DistanceStats scg::allPairsStats(const Graph &G) {
  // Flattening to CSR is O(V + E), noise next to the sweep itself; the
  // bit-parallel engine then advances 512 sources per group.
  return msAllPairsStats(Csr(G));
}

DistanceStats scg::vertexTransitiveStats(const Graph &G,
                                         NodeId Representative) {
  DistanceStats Stats;
  if (G.numNodes() == 0)
    return Stats;
  BfsResult R = bfs(G, Representative);
  Stats.Connected = (R.NumReached == G.numNodes());
  Stats.Diameter = R.Eccentricity;
  Stats.AverageDistance = G.numNodes() > 1
                              ? double(R.DistanceSum) / (G.numNodes() - 1)
                              : 0.0;
  return Stats;
}

bool scg::isConnectedFromZero(const Graph &G) {
  if (G.numNodes() == 0)
    return true;
  return bfsReachableCount(G, 0) == G.numNodes();
}

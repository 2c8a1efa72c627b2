//===- tests/ReferenceMetrics.h - Scalar all-pairs oracle ------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scalar all-pairs sweep, kept as the oracle for the bit-parallel
/// distance engine (graph/MsBfs.h): one bfs() per source, parallel over
/// sources, sharing no traversal code with the MS-BFS groups. The MS-BFS
/// tests and the bench_network_properties / bench_degree_diameter smoke
/// gates hold allPairsStats and msAllPairsStats to it byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_TESTS_REFERENCEMETRICS_H
#define SCG_TESTS_REFERENCEMETRICS_H

#include "graph/Metrics.h"

namespace scg {

/// All-pairs statistics from one bfs() per source, spread over the
/// global ThreadPool. Byte-identical at every thread count (the fold is
/// integer AND / max / sum, divided once at the end). For a disconnected
/// graph, returns Connected=false with zeroed Diameter/AverageDistance.
DistanceStats scalarAllPairsStats(const Graph &G);

} // namespace scg

#endif // SCG_TESTS_REFERENCEMETRICS_H

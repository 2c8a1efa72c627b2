//===- tests/ReferenceMetrics.h - Scalar distance oracles ------*- C++ -*-===//
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
/// Also the plain single-source byte row over a Csr, the oracle for the
/// distance row TableStore::build fills in its own BFS.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_TESTS_REFERENCEMETRICS_H
#define SCG_TESTS_REFERENCEMETRICS_H

#include "graph/Csr.h"
#include "graph/Metrics.h"

#include <cstdint>
#include <vector>

namespace scg {

/// All-pairs statistics from one bfs() per source, spread over the
/// global ThreadPool. Byte-identical at every thread count (the fold is
/// integer AND / max / sum, divided once at the end). For a disconnected
/// graph, returns Connected=false with zeroed Diameter/AverageDistance.
DistanceStats scalarAllPairsStats(const Graph &G);

/// Sentinel byte for "no path" in compact one-byte distance rows.
constexpr uint8_t MsBfsUnreachableByte = 0xFF;

/// Compact single-source distance row: entry v is d(\p Source, v) as one
/// byte, MsBfsUnreachableByte where no path exists; byte-equal to
/// bfs(G, Source).Distance wherever that is finite. A plain flat-queue BFS
/// with the row as its visited mark. Throws std::invalid_argument when
/// \p Source is not a node of \p G, and std::length_error when a finite
/// distance reaches the sentinel.
std::vector<uint8_t> msBfsDistanceRow(const Csr &G, NodeId Source);

} // namespace scg

#endif // SCG_TESTS_REFERENCEMETRICS_H

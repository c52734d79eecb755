// Computational-graph (de)serialization and Graphviz export.
//
// PredictDDL's workflow (Fig. 7, step 1) receives "the path to the user's
// training code", from which the framework captures the DAG.  This module is
// the on-disk interchange for those DAGs: a compact binary format for
// round-tripping graphs between tools, and DOT export for visual inspection
// (the paper's Fig. 3-style drawings).
//
// Binary layout (io layer, little-endian):
//   magic "PDCG", u32 version, u32 name-length, name bytes,
//   u64 node count, then per node:
//     i32 op type, i32 c,h,w, i64 params, i64 flops,
//     i32 kernel, stride, groups, u32 label-length, label bytes,
//     u32 in-degree, i32 input ids...
//   version ≥ 2: u32 CRC-32 trailer over everything from the magic on.
// Version-1 files (pre-io-layer, no trailer) still load; corruption in a
// version-2 file fails the checksum with a clean error.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/comp_graph.hpp"

namespace pddl::graph {

void save_graph(std::ostream& os, const CompGraph& g);
CompGraph load_graph(std::istream& is);

// Replaces `path` crash-safely (io::write_file_atomic).
void save_graph_file(const std::string& path, const CompGraph& g);
CompGraph load_graph_file(const std::string& path);

// Graphviz DOT with op names, channel widths, and FLOP shares.
std::string to_dot(const CompGraph& g);

}  // namespace pddl::graph

// Crash-safe whole-file writes, shared by every save-to-path entry point
// (snapshots, GHN files, parameter files, graph files).
#pragma once

#include <string>

namespace pddl::io {

// Writes `bytes` to `<path>.tmp`, fsyncs it, renames it over `path` and
// fsyncs the directory, so a crash or failed write at any byte leaves either
// the previous file or the complete new one.  A failed write throws, leaves
// `path` untouched and removes the temp file.
void write_file_atomic(const std::string& path, const std::string& bytes);

}  // namespace pddl::io

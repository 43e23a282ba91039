#pragma once
/// \file common.hpp
/// \brief Shared output for the paper benches (bench_paper,
///        bench_model_validation): each table prints aligned on stdout and
///        is written as a CSV under bench_out/.

#include <filesystem>
#include <iostream>
#include <string>

#include "cacqr/support/table.hpp"

namespace cacqr::bench {

/// Output directory for CSV artifacts (created on demand).
inline std::string out_dir() {
  const std::string dir = "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Emits a finished table to stdout and CSV.
inline void emit(const std::string& name, const TextTable& table) {
  std::cout << "==== " << name << " ====\n" << table.str() << "\n";
  table.write_csv(out_dir() + "/" + name + ".csv");
}

}  // namespace cacqr::bench

#pragma once
/// \file table.hpp
/// \brief Aligned-table and CSV emission for the bench harnesses.
///
/// Every figure/table bench prints a human-readable aligned table to stdout
/// (the rows the paper reports) and can also append the same rows to a CSV
/// file for external plotting.

#include <fstream>
#include <string>
#include <vector>

namespace cacqr {

/// Accumulates rows of strings and renders them with aligned columns.
class TextTable {
 public:
  /// Sets the header row (also written as the CSV header).
  void header(std::vector<std::string> cells);

  /// Appends one data row; cell count should match the header.
  void row(std::vector<std::string> cells);

  /// Renders the aligned table (header, rule, rows).
  [[nodiscard]] std::string str() const;

  /// Writes header + rows as CSV to the given path (overwrites); a cell
  /// holding a comma, quote or line break is quoted (RFC 4180).
  void write_csv(const std::string& path) const;

  /// Formats a double with trailing-zero trimming, for table cells.
  static std::string num(double v, int precision = 4);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cacqr

#include "cacqr/support/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "cacqr/support/error.hpp"

namespace cacqr {

void TextTable::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  // Column widths over header + all rows.
  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& cells) {
    if (cells.size() > width.size()) width.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      width[i] = std::max(width[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(width[i]) + 2) << cells[i];
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void TextTable::write_csv(const std::string& path) const {
  std::ofstream out(path);
  ensure(out.good(), "TextTable::write_csv: cannot open ", path);
  // RFC 4180: a cell holding a separator, a quote or a line break is
  // quoted, with its own quotes doubled.
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out << ',';
      if (cells[i].find_first_of(",\"\r\n") == std::string::npos) {
        out << cells[i];
        continue;
      }
      out << '"';
      for (const char ch : cells[i]) {
        if (ch == '"') out << '"';
        out << ch;
      }
      out << '"';
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& r : rows_) emit(r);
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace cacqr

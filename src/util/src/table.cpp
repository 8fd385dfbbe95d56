#include "ccov/util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "ccov/util/json.hpp"

namespace ccov::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: empty header row");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table: row width mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

namespace {

std::string csv_cell(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << csv_cell(row[c]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

void Table::write_json(std::ostream& os) const {
  os << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << "  {";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c) os << ", ";
      os << json::escaped(headers_[c]) << ": " << json::escaped(rows_[r][c]);
    }
    os << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  os << "]\n";
}

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c];
      for (std::size_t k = row[c].size(); k < width[c]; ++k) os << ' ';
      os << " |";
    }
    os << '\n';
  };

  if (!title.empty()) os << "== " << title << " ==\n";
  emit_row(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    for (std::size_t k = 0; k < width[c] + 2; ++k) os << '-';
    os << "|";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
}

}  // namespace ccov::util

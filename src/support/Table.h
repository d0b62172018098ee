//===- Table.h - Column-aligned text tables ---------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal column-aligned table printer. Every benchmark binary that
/// regenerates a table or figure of the paper prints its rows through this
/// class so that the output format is uniform and diffable.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SUPPORT_TABLE_H
#define PARCAE_SUPPORT_TABLE_H

#include <cstdio>
#include <string>
#include <vector>

namespace parcae {

/// Collects rows of string cells and prints them with aligned columns.
class Table {
public:
  explicit Table(std::vector<std::string> Header);

  /// Appends a row; it may have fewer cells than the header.
  void addRow(std::vector<std::string> Cells);

  /// Formats the table into a string (header, separator, rows).
  std::string format() const;

  /// Prints the table to \p Out (stdout by default).
  void print(std::FILE *Out = stdout) const;

  /// Formats a double with \p Digits fractional digits.
  static std::string num(double V, int Digits = 2);
  /// Formats an integer.
  static std::string num(long long V);

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace parcae

#endif // PARCAE_SUPPORT_TABLE_H

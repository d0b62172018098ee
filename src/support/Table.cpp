//===- Table.cpp - Column-aligned text tables ------------------------------===//

#include "support/Table.h"

#include <algorithm>
#include <cassert>

using namespace parcae;

Table::Table(std::vector<std::string> Header) : Header(std::move(Header)) {}

void Table::addRow(std::vector<std::string> Cells) {
  assert(Cells.size() <= Header.size() && "row wider than header");
  Rows.push_back(std::move(Cells));
}

std::string Table::format() const {
  std::vector<std::size_t> Widths(Header.size(), 0);
  for (std::size_t I = 0; I < Header.size(); ++I)
    Widths[I] = Header[I].size();
  for (const auto &Row : Rows)
    for (std::size_t I = 0; I < Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());

  auto AppendRow = [&](std::string &Out, const std::vector<std::string> &Row) {
    for (std::size_t I = 0; I < Header.size(); ++I) {
      const std::string Cell = I < Row.size() ? Row[I] : std::string();
      Out += Cell;
      if (I + 1 != Header.size())
        Out.append(Widths[I] - Cell.size() + 2, ' ');
    }
    Out += '\n';
  };

  std::string Out;
  AppendRow(Out, Header);
  std::size_t Total = 0;
  for (std::size_t I = 0; I < Widths.size(); ++I)
    Total += Widths[I] + (I + 1 != Widths.size() ? 2 : 0);
  Out.append(Total, '-');
  Out += '\n';
  for (const auto &Row : Rows)
    AppendRow(Out, Row);
  return Out;
}

void Table::print(std::FILE *Out) const {
  std::string S = format();
  std::fwrite(S.data(), 1, S.size(), Out);
}

std::string Table::num(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  return Buf;
}

std::string Table::num(long long V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%lld", V);
  return Buf;
}

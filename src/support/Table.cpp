//===- support/Table.cpp - ASCII table rendering --------------------------===//

#include "support/Table.h"
#include "support/Contracts.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace ccsim;

Table::Table(std::vector<std::string> Header) : Header(std::move(Header)) {
  CCSIM_ASSERT(!this->Header.empty(), "table needs at least one column");
}

void Table::addRow(std::vector<std::string> Row) {
  CCSIM_ASSERT(Row.size() == Header.size(), "row width must match header");
  Rows.push_back(std::move(Row));
}

void Table::beginRow() {
  flushPending();
  RowOpen = true;
}

void Table::flushPending() {
  if (!RowOpen)
    return;
  addRow(std::move(Pending));
  Pending.clear();
  RowOpen = false;
}

void Table::cell(const std::string &Text) {
  CCSIM_ASSERT(RowOpen, "cell() outside beginRow()");
  Pending.push_back(Text);
}

void Table::cell(const char *Text) { cell(std::string(Text)); }

void Table::cell(double Value, int Decimals) {
  cell(formatDouble(Value, Decimals));
}

void Table::cell(uint64_t Value) { cell(formatWithCommas(Value)); }

void Table::cell(int64_t Value) {
  if (Value < 0)
    cell(std::string("-").append(
        formatWithCommas(0 - static_cast<uint64_t>(Value))));
  else
    cell(formatWithCommas(static_cast<uint64_t>(Value)));
}

static bool looksNumeric(const std::string &S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (!(C >= '0' && C <= '9') && C != '.' && C != '-' && C != '+' &&
        C != ',' && C != '%' && C != 'x' && C != 'e' && C != 'E')
      return false;
  return true;
}

std::string Table::render() const {
  // Rendering is logically const; finish any in-flight row first.
  const_cast<Table *>(this)->flushPending();

  std::vector<size_t> Widths(Header.size());
  for (size_t I = 0; I < Header.size(); ++I)
    Widths[I] = Header[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I < Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());

  std::string Out;
  auto EmitRow = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I < Row.size(); ++I) {
      if (I)
        Out += "  ";
      if (looksNumeric(Row[I]))
        Out += padLeft(Row[I], Widths[I]);
      else
        Out += padRight(Row[I], Widths[I]);
    }
    // Trim trailing spaces for clean diffs.
    while (!Out.empty() && Out.back() == ' ')
      Out.pop_back();
    Out += '\n';
  };

  EmitRow(Header);
  size_t TotalWidth = 0;
  for (size_t W : Widths)
    TotalWidth += W;
  TotalWidth += 2 * (Widths.size() - 1);
  Out += std::string(TotalWidth, '-');
  Out += '\n';
  for (const auto &Row : Rows)
    EmitRow(Row);
  return Out;
}

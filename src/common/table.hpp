// ASCII table / CSV renderer for the benchmark harness.
//
// Every bench binary reproduces a paper table or figure as rows of
// (series, x, y...) values; Table gives them a uniform, aligned rendering
// plus machine-readable CSV so results can be re-plotted.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sws {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Set the column headers. Must be called before add_row.
  void set_header(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with `precision` digits after the point.
  static std::string num(double v, int precision = 3);
  static std::string num(std::uint64_t v);
  static std::string num(std::int64_t v);

  /// Render an aligned ASCII table with a title banner.
  void print(std::ostream& os) const;
  /// Render RFC-4180-ish CSV (no quoting of embedded commas expected).
  void print_csv(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sws

// Figure-style reporting: renders sweep series the way the paper's figures
// present them (one row per x value, one column per series), fits the trend
// the paper fits (linear / logarithmic / exponential) and annotates the
// adjusted R², and optionally exports the raw series as CSV for re-plotting.

#pragma once

#include <array>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "stats/regression.h"

namespace esva {

struct Series {
  std::string label;
  std::vector<double> xs;
  std::vector<double> ys;
  /// Optional per-point spread (e.g. stderr over runs), printed as ±e.
  std::vector<double> errs;
};

struct FigureSpec {
  std::string title;       ///< e.g. "Fig. 2 — energy reduction ratio"
  std::string x_label;     ///< e.g. "mean inter-arrival time (min)"
  std::string y_label;     ///< e.g. "energy reduction ratio (%)"
  /// If set, each series is fitted with this model and the fit is printed
  /// (the paper annotates each figure with its fit + Adj.R²).
  std::optional<FitModel> fit;
  /// Render y values ×100 with a % suffix.
  bool y_as_percent = false;
};

/// Prints the figure as an aligned table followed by per-series fit lines.
void print_figure(std::ostream& out, const FigureSpec& spec,
                  const std::vector<Series>& series);

/// Writes "x,<label1>,<label1>_err,<label2>,..." rows; series must share xs.
/// Throws std::runtime_error naming the path if the file cannot be opened
/// or written.
void export_figure_csv(const std::string& path, const FigureSpec& spec,
                       const std::vector<Series>& series);

/// Writes the `header` row, then one "<label>,<x>,<y>" row per point of each
/// series in turn: the flat form for series that do not share xs. Throws
/// std::runtime_error naming the path if the file cannot be opened or
/// written.
void export_points_csv(const std::string& path,
                       const std::array<std::string, 3>& header,
                       const std::vector<Series>& series);

/// Shared bench-binary behaviour: print to stdout and, if csv_path is
/// non-empty, also export.
void emit_figure(const FigureSpec& spec, const std::vector<Series>& series,
                 const std::string& csv_path);

}  // namespace esva

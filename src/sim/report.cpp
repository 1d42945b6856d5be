#include "sim/report.h"

#include <cassert>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "util/csv.h"
#include "util/table.h"

namespace esva {

namespace {

Fit fit_series(FitModel model, const Series& series) {
  switch (model) {
    case FitModel::Linear: return fit_linear(series.xs, series.ys);
    case FitModel::Logarithmic: return fit_logarithmic(series.xs, series.ys);
    case FitModel::Exponential: return fit_exponential(series.xs, series.ys);
  }
  return {};
}

}  // namespace

void print_figure(std::ostream& out, const FigureSpec& spec,
                  const std::vector<Series>& series) {
  out << "== " << spec.title << " ==\n";
  out << "y: " << spec.y_label << '\n';

  TextTable table;
  std::vector<std::string> header{spec.x_label};
  for (const Series& s : series) header.push_back(s.label);
  table.set_header(std::move(header));

  // All series are expected to share the x grid (asserted), as in the paper's
  // figures.
  const std::vector<double>* xs = series.empty() ? nullptr : &series[0].xs;
  for (const Series& s : series) {
    assert(s.xs.size() == s.ys.size());
    assert(xs == nullptr || s.xs == *xs);
  }
  if (xs != nullptr) {
    for (std::size_t r = 0; r < xs->size(); ++r) {
      std::vector<std::string> row{fmt_double((*xs)[r], 2)};
      for (const Series& s : series) {
        std::string cell = spec.y_as_percent ? fmt_percent(s.ys[r])
                                             : fmt_double(s.ys[r], 4);
        if (r < s.errs.size()) {
          cell += " ±";
          cell += spec.y_as_percent ? fmt_percent(s.errs[r])
                                    : fmt_double(s.errs[r], 4);
        }
        row.push_back(std::move(cell));
      }
      table.add_row(std::move(row));
    }
  }
  out << table.render();

  if (spec.fit) {
    for (const Series& s : series) {
      const Fit fit = fit_series(*spec.fit, s);
      out << "fit[" << s.label << "]: " << fit.to_string() << '\n';
    }
  }
  out << '\n';
}

void export_figure_csv(const std::string& path, const FigureSpec& spec,
                       const std::vector<Series>& series) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open for writing: " + path);
  CsvWriter csv(file);

  std::vector<std::string> header{spec.x_label};
  for (const Series& s : series) {
    header.push_back(s.label);
    if (!s.errs.empty()) header.push_back(s.label + "_err");
  }
  csv.row(header);

  const std::size_t rows = series.empty() ? 0 : series[0].xs.size();
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row{CsvWriter::field_to_string(series[0].xs[r])};
    for (const Series& s : series) {
      row.push_back(CsvWriter::field_to_string(s.ys[r]));
      if (!s.errs.empty())
        row.push_back(CsvWriter::field_to_string(s.errs[r]));
    }
    csv.row(row);
  }
  if (!file.flush()) throw std::runtime_error("cannot write: " + path);
}

void export_points_csv(const std::string& path,
                       const std::array<std::string, 3>& header,
                       const std::vector<Series>& series) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open for writing: " + path);
  CsvWriter csv(file);
  csv.row({header.begin(), header.end()});
  for (const Series& s : series)
    for (std::size_t k = 0; k < s.xs.size(); ++k)
      csv.typed_row(s.label, s.xs[k], s.ys[k]);
  if (!file.flush()) throw std::runtime_error("cannot write: " + path);
}

void emit_figure(const FigureSpec& spec, const std::vector<Series>& series,
                 const std::string& csv_path) {
  print_figure(std::cout, spec, series);
  if (!csv_path.empty()) {
    export_figure_csv(csv_path, spec, series);
    std::cout << "(raw series written to " << csv_path << ")\n";
  }
}

}  // namespace esva

#include "util/cli.h"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/parse.h"

namespace esva {

CliParser::CliParser(std::string program_summary)
    : summary_(std::move(program_summary)) {}

void CliParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  Flag f;
  f.kind = Kind::Int;
  f.help = help;
  f.int_value = default_value;
  if (flags_.emplace(name, std::move(f)).second)
    declaration_order_.push_back(name);
}

void CliParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  Flag f;
  f.kind = Kind::Double;
  f.help = help;
  f.double_value = default_value;
  if (flags_.emplace(name, std::move(f)).second)
    declaration_order_.push_back(name);
}

void CliParser::add_string(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  Flag f;
  f.kind = Kind::String;
  f.help = help;
  f.string_value = default_value;
  if (flags_.emplace(name, std::move(f)).second)
    declaration_order_.push_back(name);
}

void CliParser::add_bool(const std::string& name, const std::string& help) {
  Flag f;
  f.kind = Kind::Bool;
  f.help = help;
  if (flags_.emplace(name, std::move(f)).second)
    declaration_order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name.resize(eq);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                   usage().c_str());
      parse_error_ = true;
      return false;
    }
    Flag& flag = it->second;
    if (flag.kind == Kind::Bool) {
      flag.bool_value = inline_value ? (*inline_value != "false") : true;
      continue;
    }
    std::string value;
    if (inline_value) {
      value = *inline_value;
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
      parse_error_ = true;
      return false;
    }
    // Numeric values must parse as a whole token: "5x" or "3.9" for an int
    // flag is a usage error, not 5 or 3.
    try {
      switch (flag.kind) {
        case Kind::Int:
          flag.int_value = parse_int_field(value, "flag --" + name);
          break;
        case Kind::Double:
          flag.double_value = parse_double_field(value, "flag --" + name);
          break;
        case Kind::String:
          flag.string_value = value;
          break;
        case Kind::Bool:
          break;  // handled above
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      parse_error_ = true;
      return false;
    }
  }
  return true;
}

const CliParser::Flag* CliParser::find(const std::string& name,
                                       Kind kind) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.kind != kind)
    throw std::logic_error("flag not declared with this type: --" + name);
  return &it->second;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return find(name, Kind::Int)->int_value;
}

double CliParser::get_double(const std::string& name) const {
  return find(name, Kind::Double)->double_value;
}

const std::string& CliParser::get_string(const std::string& name) const {
  return find(name, Kind::String)->string_value;
}

bool CliParser::get_bool(const std::string& name) const {
  return find(name, Kind::Bool)->bool_value;
}

std::string CliParser::usage() const {
  std::ostringstream out;
  out << summary_ << "\n\nflags:\n";
  for (const std::string& name : declaration_order_) {
    const Flag& f = flags_.at(name);
    out << "  --" << name;
    switch (f.kind) {
      case Kind::Int:
        out << " <int>      (default " << f.int_value << ")";
        break;
      case Kind::Double:
        out << " <float>    (default " << f.double_value << ")";
        break;
      case Kind::String:
        out << " <string>   (default \"" << f.string_value << "\")";
        break;
      case Kind::Bool:
        out << "            (switch)";
        break;
    }
    out << "\n      " << f.help << '\n';
  }
  out << "  --help\n      print this message\n";
  return out.str();
}

}  // namespace esva

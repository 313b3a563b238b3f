#include "common/flags.h"

#include <optional>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"

namespace sarn {
namespace {

std::string Expects(const char* type, const std::string& value) {
  return std::string("expects a ") + type + ", got '" + value + "'";
}

}  // namespace

FlagSet::FlagSet(std::string command, std::string summary)
    : command_(std::move(command)), summary_(std::move(summary)) {}

FlagSet& FlagSet::Add(Flag flag) {
  SARN_CHECK(Find(flag.name) == nullptr) << "duplicate flag --" << flag.name;
  flags_.push_back(std::move(flag));
  return *this;
}

FlagSet& FlagSet::String(const std::string& name, std::string* target,
                         const std::string& help, bool required) {
  return Add({name, "string", *target, help, required,
              [target](const std::string& value) {
                *target = value;
                return std::string();
              }});
}

FlagSet& FlagSet::BindInt(const std::string& name, int64_t default_value,
                          const std::string& help, int64_t min, int64_t max,
                          std::function<void(int64_t)> write) {
  return Add({name, "int", std::to_string(default_value), help, false,
              [min, max, write = std::move(write)](const std::string& value) {
                std::optional<int64_t> parsed = ParseInt(value);
                if (!parsed.has_value()) return Expects("int", value);
                if (*parsed < min || *parsed > max) {
                  return Expects("int", value) + " (out of range [" +
                         std::to_string(min) + ", " + std::to_string(max) + "])";
                }
                write(*parsed);
                return std::string();
              }});
}

FlagSet& FlagSet::Double(const std::string& name, double* target,
                         const std::string& help) {
  std::ostringstream text;
  text << *target;
  return Add({name, "float", text.str(), help, false,
              [target](const std::string& value) {
                std::optional<double> parsed = ParseDouble(value);
                if (!parsed.has_value()) return Expects("float", value);
                *target = *parsed;
                return std::string();
              }});
}

FlagSet& FlagSet::Bool(const std::string& name, bool* target, const std::string& help) {
  return Add({name, "bool", *target ? "true" : "false", help, false,
              [target](const std::string& value) {
                if (value == "true" || value == "1") {
                  *target = true;
                } else if (value == "false" || value == "0") {
                  *target = false;
                } else {
                  return Expects("bool", value);
                }
                return std::string();
              }});
}

bool FlagSet::Parse(int argc, char** argv, int first, std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (!StartsWith(arg, "--")) return fail("expected --flag, got '" + arg + "'");
    std::string name = arg.substr(2);
    Flag* flag = Find(name);
    if (flag == nullptr) {
      return fail("unknown flag --" + name + " for '" + command_ + "' (try: sarn " +
                  command_ + " --help)");
    }
    if (i + 1 >= argc) return fail("flag --" + name + " needs a value");
    std::string problem = flag->set(argv[++i]);
    if (!problem.empty()) return fail("flag --" + name + " " + problem);
    flag->seen = true;
  }
  for (const Flag& flag : flags_) {
    if (flag.required && !flag.seen) {
      return fail(command_ + ": --" + flag.name + " is required");
    }
  }
  return true;
}

FlagSet::Flag* FlagSet::Find(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

std::string FlagSet::Usage() const {
  std::ostringstream out;
  out << "usage: sarn " << command_ << " [--flag value ...]\n";
  if (!summary_.empty()) out << "  " << summary_ << "\n";
  // Required flags first, in declaration order.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Flag& flag : flags_) {
      if (flag.required != (pass == 0)) continue;
      out << "  --" << flag.name << " <" << flag.type << ">";
      if (flag.required) {
        out << "  (required)";
      } else {
        out << "  (default: " << (flag.default_text.empty() ? "\"\"" : flag.default_text)
            << ")";
      }
      out << "\n      " << flag.help << "\n";
    }
  }
  return out.str();
}

}  // namespace sarn

// Declarative command-line flags for the sarn CLI.
//
// Each CLI command binds its flags to the fields of one options struct —
// name, field, help — and gets uniform "--name value" parsing, type
// validation, required-flag checking, and a generated usage text
// (`sarn <command> --help`) for free:
//
//   struct TrainArgs {
//     std::string network;
//     int epochs = 40;
//     void Bind(FlagSet& flags) {
//       flags.String("network", &network, "network CSV", /*required=*/true)
//           .Int("epochs", &epochs, "training epochs");
//     }
//   };
//
// A flag's default is its field's value when it is bound, so the usage text
// shows exactly what the code will use. Parse checks each value once and
// writes it straight into the field; the fields must outlive the FlagSet.
//
// Conventions: every flag takes exactly one value ("--lines true", never a
// bare "--lines"), a repeated flag keeps its last value, unknown flags are
// errors, and "--help" / "-h" anywhere requests the usage text.

#ifndef SARN_COMMON_FLAGS_H_
#define SARN_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace sarn {

class FlagSet {
 public:
  /// `command` and `summary` head the generated usage text.
  FlagSet(std::string command, std::string summary);

  /// Binds a flag to `*target`; fluent so commands read declaratively.
  /// Names must be unique within the set (checked).
  FlagSet& String(const std::string& name, std::string* target, const std::string& help,
                  bool required = false);
  FlagSet& Double(const std::string& name, double* target, const std::string& help);
  FlagSet& Bool(const std::string& name, bool* target, const std::string& help);

  /// Any integral field (int, int64_t, size_t, ...). A value the field cannot
  /// hold is a parse error, not a silent narrowing.
  template <typename T>
  FlagSet& Int(const std::string& name, T* target, const std::string& help) {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    using Limits = std::numeric_limits<T>;
    constexpr int64_t kMax = std::in_range<int64_t>(Limits::max())
                                 ? static_cast<int64_t>(Limits::max())
                                 : std::numeric_limits<int64_t>::max();
    return BindInt(name, static_cast<int64_t>(*target), help,
                   static_cast<int64_t>(Limits::min()), kMax,
                   [target](int64_t value) { *target = static_cast<T>(value); });
  }

  /// Parses "--name value" pairs from argv[first..argc) into the bound
  /// fields. False on unknown flag, missing value, type mismatch, an integer
  /// its field cannot hold, or missing required flag, with the problem
  /// described in *error. "--help" / "-h" anywhere sets help_requested() and
  /// returns true without further validation.
  bool Parse(int argc, char** argv, int first, std::string* error);

  bool help_requested() const { return help_requested_; }

  /// Generated per-command usage: one line per flag with type, default and
  /// help, required flags first.
  std::string Usage() const;

 private:
  // Parses one command-line value into the bound field; returns "" or what
  // is wrong with the value ("expects a int, got 'x'").
  using Setter = std::function<std::string(const std::string& value)>;

  struct Flag {
    std::string name;          // Without the leading "--".
    const char* type;          // As shown in usage and errors: "int", ...
    std::string default_text;  // The field's value when bound.
    std::string help;
    bool required = false;     // Required flags have no meaningful default.
    Setter set;
    bool seen = false;         // Given on the command line.
  };

  FlagSet& Add(Flag flag);
  FlagSet& BindInt(const std::string& name, int64_t default_value,
                   const std::string& help, int64_t min, int64_t max,
                   std::function<void(int64_t)> write);
  Flag* Find(const std::string& name);

  std::string command_;
  std::string summary_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace sarn

#endif  // SARN_COMMON_FLAGS_H_

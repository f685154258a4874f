// Tiny key=value configuration store with typed getters.
//
// Used by the examples and benches so that simulator parameters (Table I and
// the architecture knobs) can be overridden from the command line without a
// heavyweight flags library:  ./quickstart cb_entries=64 fi=30
//
// Misconfiguration safety: from_args reports malformed tokens (e.g. "=8")
// to stderr, every getter parses the whole value and throws ConfigError on
// anything else, and every getter marks its key as consumed, so a front end
// can call unused_keys() after dispatch and fail loudly on a typo like
// `thread=8` instead of silently running with defaults.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace unsync {

/// A malformed or out-of-range configuration value: the invocation is wrong
/// (unsync_sim exits 2 on it).
struct ConfigError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class Config {
 public:
  Config() = default;

  /// Parses "key=value" tokens (e.g. argv). Unrecognised tokens without '='
  /// are returned as positional arguments. Malformed tokens with an empty
  /// key ("=value") are reported on stderr and treated as positional.
  static Config from_args(int argc, const char* const* argv,
                          std::vector<std::string>* positional = nullptr);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  /// Typed getters: `fallback` when the key is absent, otherwise the whole
  /// value parsed, or ConfigError.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// An unsigned knob stored in a field of type T: a whole-string integer
  /// in [min, largest T]. Negatives and values that do not fit T throw
  /// ConfigError instead of wrapping.
  template <typename T>
  T get_unsigned(const std::string& key, T fallback, T min = 0) const {
    const auto v = find(key);
    if (!v) return fallback;
    return parse_unsigned<T>("config key '" + key + "'", *v, min);
  }

  /// The parsers behind get_unsigned and get_double, for values that do
  /// not come from one key (sweep points); `what` names the value in the
  /// ConfigError.
  template <typename T>
  static T parse_unsigned(const std::string& what, const std::string& text,
                          T min = 0) {
    return static_cast<T>(
        parse_u64(what, text, static_cast<std::uint64_t>(min),
                  static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
  }
  static double parse_double(const std::string& what,
                             const std::string& text);

  /// All keys in insertion order (for help / echo output).
  std::vector<std::string> keys() const;

  /// Keys that were set but never consulted by any getter (including
  /// has()), in insertion order — the misspelled-knob detector.
  std::vector<std::string> unused_keys() const;

  /// Every key any getter (or has()) asked about, in first-consulted order
  /// — the vocabulary the command actually understands, whether or not the
  /// key was supplied. report_unused() matches unused keys against it to
  /// suggest the intended spelling.
  std::vector<std::string> known_keys() const;

  /// If any key went unused, prints one stderr line naming them (prefixed
  /// with `context`) and returns true. Keys within a small edit distance of
  /// a known key get a "did you mean" suggestion. Front ends treat the
  /// return as an error; long-form demos may choose to warn only.
  bool report_unused(const std::string& context) const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    mutable bool accessed = false;
  };

  std::optional<std::string> find(const std::string& key) const;
  static std::uint64_t parse_u64(const std::string& what,
                                 const std::string& text, std::uint64_t min,
                                 std::uint64_t max);
  std::vector<Entry> entries_;
  /// Keys consulted through find(), deduplicated, in first-asked order.
  mutable std::vector<std::string> consulted_;
};

/// Prints `what` as an error and exits with status 2.
[[noreturn]] void exit_bad_knob(const char* what);

/// Front-end guard for the examples and benches: returns parse(), or, when
/// it throws std::invalid_argument (a ConfigError, or a value a simulator
/// check rejects), prints the message to stderr and exits with status 2 —
/// the unsync_sim convention — instead of terminating.
template <typename Parse>
auto knobs_or_exit(Parse&& parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    exit_bad_knob(e.what());
  }
}

}  // namespace unsync

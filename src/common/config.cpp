#include "common/config.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <sstream>

#include "common/log.hpp"

namespace unsync {

Config Config::from_args(int argc, const char* const* argv,
                         std::vector<std::string>* positional) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (eq == 0) {
        Log::warn("malformed argument '" + arg + "' (empty key before '=')");
      }
      if (positional) positional->push_back(arg);
      continue;
    }
    cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  for (auto& e : entries_) {
    if (e.key == key) {
      e.value = value;
      return;
    }
  }
  entries_.push_back({key, value, false});
}

bool Config::has(const std::string& key) const { return find(key).has_value(); }

std::optional<std::string> Config::find(const std::string& key) const {
  if (std::find(consulted_.begin(), consulted_.end(), key) ==
      consulted_.end()) {
    consulted_.push_back(key);
  }
  for (const auto& e : entries_) {
    if (e.key == key) {
      e.accessed = true;
      return e.value;
    }
  }
  return std::nullopt;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return find(key).value_or(fallback);
}

namespace {

/// std::from_chars over the whole of `text`: false on an empty string,
/// trailing characters or overflow.
template <typename T>
bool parse_whole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  std::int64_t out = 0;
  if (!parse_whole(*v, &out)) {
    throw ConfigError("config key '" + key + "' is not an integer: " + *v);
  }
  return out;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  return parse_double("config key '" + key + "'", *v);
}

std::uint64_t Config::parse_u64(const std::string& what,
                                const std::string& text, std::uint64_t min,
                                std::uint64_t max) {
  // from_chars into an unsigned type rejects a sign, so "-1" cannot wrap.
  std::uint64_t out = 0;
  if (!parse_whole(text, &out) || out < min || out > max) {
    throw ConfigError(what + " must be an integer in [" +
                      std::to_string(min) + ", " + std::to_string(max) +
                      "]: " + text);
  }
  return out;
}

double Config::parse_double(const std::string& what,
                            const std::string& text) {
  double out = 0.0;
  if (!parse_whole(text, &out)) {
    throw ConfigError(what + " is not a number: " + text);
  }
  return out;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(), ::tolower);
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw ConfigError("config key '" + key + "' is not a boolean: " + *v);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.key);
  return out;
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    if (!e.accessed) out.push_back(e.key);
  }
  return out;
}

std::vector<std::string> Config::known_keys() const { return consulted_; }

namespace {

/// Plain Levenshtein distance — the key vocabulary is tiny, so the O(n*m)
/// table is irrelevant.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  return row[b.size()];
}

}  // namespace

bool Config::report_unused(const std::string& context) const {
  const auto unused = unused_keys();
  if (unused.empty()) return false;
  std::ostringstream msg;
  msg << context << ": unrecognized option";
  if (unused.size() > 1) msg << 's';
  for (const auto& k : unused) {
    msg << " '" << k << "'";
    // Suggest the closest key the command actually consulted, but only
    // when the typo is plausibly a typo (distance <= 2 and strictly
    // shorter than the key — "x" must never suggest "ser").
    std::size_t best = k.size();
    const std::string* hit = nullptr;
    for (const auto& known : consulted_) {
      const std::size_t d = edit_distance(k, known);
      if (d < best && d <= 2) {
        best = d;
        hit = &known;
      }
    }
    if (hit) msg << " (did you mean '" << *hit << "'?)";
  }
  msg << " (options are key=value; see usage)";
  Log::error(msg.str());
  return true;
}

void exit_bad_knob(const char* what) {
  Log::error(what);
  std::exit(2);
}

}  // namespace unsync

#include "ckpt/journal.hpp"

#include "ckpt/serializer.hpp"

namespace unsync::ckpt {

namespace {

// obs::JsonWriter lives above this library in the dependency order, so the
// journal renders its two line shapes by hand. Labels are the only field
// that can need escaping; the escape table mirrors obs::json_quote so the
// bytes match what the observability layer would emit.
std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string hex_encode(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xF]);
  }
  return out;
}

std::optional<std::string> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]), lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

std::optional<std::uint64_t> find_u64(const std::string& line,
                                      std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  std::uint64_t v = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    const auto digit = static_cast<std::uint64_t>(line[i] - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;  // overflows
    v = v * 10 + digit;
    ++i;
  }
  return v;
}

std::optional<std::string> find_plain_str(const std::string& line,
                                          std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const auto start = at + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(start, end - start);
}

std::string JournalHeader::to_line() const {
  std::string out = "{\"schema\":";
  out += json_quote(kCampaignJournalSchema);
  out += ",\"campaign_seed\":" + std::to_string(campaign_seed);
  out += ",\"jobs\":" + std::to_string(jobs);
  out += ",\"grid_crc\":" + std::to_string(grid_crc);
  out += ",\"collect_metrics\":";
  out += collect_metrics ? "true" : "false";
  if (shard) out += ",\"shard\":" + std::to_string(*shard);
  if (workers) out += ",\"workers\":" + std::to_string(*workers);
  out += "}";
  return out;
}

std::optional<JournalHeader> JournalHeader::parse(const std::string& line) {
  const auto schema = find_plain_str(line, "schema");
  if (!schema || *schema != kCampaignJournalSchema) return std::nullopt;
  const auto seed = find_u64(line, "campaign_seed");
  const auto jobs = find_u64(line, "jobs");
  const auto crc = find_u64(line, "grid_crc");
  if (!seed || !jobs || !crc) return std::nullopt;
  JournalHeader h;
  h.campaign_seed = *seed;
  h.jobs = *jobs;
  h.grid_crc = static_cast<std::uint32_t>(*crc);
  h.collect_metrics =
      line.find("\"collect_metrics\":true") != std::string::npos;
  h.shard = find_u64(line, "shard");
  h.workers = find_u64(line, "workers");
  return h;
}

void JournalHeader::require_match(const JournalHeader& expect,
                                  const std::string& path) const {
  auto fail = [&](std::string_view what) {
    throw CkptError("campaign journal '" + path + "': " + std::string(what) +
                    " does not match this campaign");
  };
  if (campaign_seed != expect.campaign_seed) fail("campaign_seed");
  if (jobs != expect.jobs) fail("jobs");
  if (grid_crc != expect.grid_crc) fail("grid_crc");
  if (collect_metrics != expect.collect_metrics) fail("collect_metrics");
  if (expect.workers && workers && *workers != *expect.workers) {
    fail("workers");
  }
}

std::string journal_entry_prefix(std::uint64_t index, std::string_view label,
                                 std::uint64_t seed) {
  std::string out = "{\"index\":" + std::to_string(index);
  out += ",\"label\":" + json_quote(label);
  out += ",\"seed\":" + std::to_string(seed) + ",";
  return out;
}

std::string journal_entry_line(std::uint64_t index, std::string_view label,
                               std::uint64_t seed, std::string_view blob) {
  std::string out = journal_entry_prefix(index, label, seed);
  out += "\"crc\":" + std::to_string(crc32(blob));
  out += ",\"blob\":\"" + hex_encode(blob) + "\"}";
  return out;
}

std::optional<ParsedEntry> parse_entry_line(const std::string& line,
                                            std::uint64_t max_jobs) {
  const auto index = find_u64(line, "index");
  const auto crc = find_u64(line, "crc");
  const auto hex = find_plain_str(line, "blob");
  if (!index || !crc || !hex || *index >= max_jobs) return std::nullopt;
  auto blob = hex_decode(*hex);
  if (!blob || crc32(*blob) != *crc) return std::nullopt;
  ParsedEntry e;
  e.index = *index;
  e.blob = std::move(*blob);
  return e;
}

std::string journal_stats_line(std::string_view blob) {
  std::string out = "{\"crc\":" + std::to_string(crc32(blob));
  out += ",\"stats\":\"" + hex_encode(blob) + "\"}";
  return out;
}

std::optional<std::string> parse_stats_line(const std::string& line) {
  const auto crc = find_u64(line, "crc");
  const auto hex = find_plain_str(line, "stats");
  if (!crc || !hex) return std::nullopt;
  auto blob = hex_decode(*hex);
  if (!blob || crc32(*blob) != *crc) return std::nullopt;
  return blob;
}

}  // namespace unsync::ckpt

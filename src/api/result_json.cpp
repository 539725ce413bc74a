#include "api/result_json.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "sim/fault.hpp"

namespace domset::api {

namespace {

void fold_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;  // FNV-1a prime
  }
}

// escape/fmt_double: terse local names for the public json_escape /
// json_number helpers defined below.
std::string escape(std::string_view s) { return json_escape(s); }
std::string fmt_double(double v) { return json_number(v); }

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  // JSON has no inf/nan; the record never should either, but emit null
  // rather than invalid output if an algorithm ever produces one.
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr)
    return "null";
  return buf;
}

std::uint64_t solution_digest(const solve_result& result) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  fold_bytes(h, result.in_set.data(), result.in_set.size());
  // Separator so {in_set:[0], x:[]} and {in_set:[], x matching byte 0}
  // cannot collide trivially.
  const unsigned char sep = 0xFF;
  fold_bytes(h, &sep, 1);
  for (const double v : result.x) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    fold_bytes(h, &bits, sizeof bits);
  }
  return h;
}

std::string digest_hex(const solve_result& result) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, solution_digest(result));
  return buf;
}

void append_record_json(std::string& out, const run_record& record,
                        std::string_view indent) {
  char buf[128];
  const auto num = [&buf](auto value) -> std::string {
    std::snprintf(buf, sizeof buf, "%" PRIu64,
                  static_cast<std::uint64_t>(value));
    return buf;
  };
  const std::string in1 = std::string(indent) + "  ";
  const std::string in2 = in1 + "  ";

  out += "{\n" + in1 + "\"schema\": \"domset-run/1\",\n";
  out += in1 + "\"alg\": \"" + escape(record.alg) + "\",\n";
  out += in1 + "\"graph\": {\n";
  out += in2 + "\"family\": \"" + escape(record.graph_family) + "\",\n";
  out += in2 + "\"nodes\": " + num(record.nodes) + ",\n";
  out += in2 + "\"edges\": " + num(record.edges) + ",\n";
  out += in2 + "\"max_degree\": " + num(record.max_degree);
  if (record.source.has_value()) {
    const std::string in3 = in2 + "  ";
    out += ",\n" + in2 + "\"source\": {\n";
    out += in3 + "\"path\": \"" + escape(record.source->path) + "\",\n";
    out += in3 + "\"format\": \"" + escape(record.source->format) + "\",\n";
    out += in3 + "\"load_ms\": " + fmt_double(record.source->load_ms) + "\n" +
           in2 + "}";
  }
  out += "\n" + in1 + "},\n";
  out += in1 + "\"exec\": {\n";
  out += in2 + "\"seed\": " + num(record.exec.seed) + ",\n";
  out += in2 + "\"threads\": " + num(record.exec.threads) + ",\n";
  out += in2 + "\"drop_probability\": " +
         fmt_double(record.exec.drop_probability) + ",\n";
  out += in2 + "\"faults\": \"" +
         escape(record.exec.faults ? sim::to_string(*record.exec.faults)
                                   : std::string("none")) +
         "\",\n";
  out += in2 + "\"congest_bit_limit\": " + num(record.exec.congest_bit_limit) +
         "\n" + in1 + "},\n";
  out += in1 + "\"params\": {";
  bool first = true;
  for (const auto& [key, value] : record.params.entries()) {
    out += first ? "\n" : ",\n";
    out += in2 + "\"" + escape(key) + "\": \"" + escape(value) + "\"";
    first = false;
  }
  out += first ? "},\n" : "\n" + in1 + "},\n";
  out += in1 + "\"result\": {\n";
  out += in2 + "\"integral\": ";
  out += record.result.integral() ? "true" : "false";
  out += ",\n";
  out += in2 + "\"size\": " + num(record.result.size) + ",\n";
  out += in2 + "\"objective\": " + fmt_double(record.result.objective) + ",\n";
  out += in2 + "\"ratio_bound\": " + fmt_double(record.result.ratio_bound) +
         ",\n";
  out += in2 + "\"valid\": ";
  out += record.valid ? "true" : "false";
  out += ",\n";
  out += in2 + "\"digest\": \"" + digest_hex(record.result) + "\"";
  if (record.result.repair.attempted) {
    const repair_summary& r = record.result.repair;
    const std::string in3 = in2 + "  ";
    out += ",\n" + in2 + "\"repair\": {\n";
    out += in3 + "\"mode\": \"" + escape(r.mode) + "\",\n";
    out += in3 + "\"radius\": " + num(r.radius) + ",\n";
    out += in3 + "\"holes_before\": " + num(r.holes_before) + ",\n";
    out += in3 + "\"holes_after\": " + num(r.holes_after) + ",\n";
    out += in3 + "\"added\": " + num(r.added) + ",\n";
    out += in3 + "\"touched_nodes\": " + num(r.touched_nodes) + "\n" + in2 +
           "}";
  }
  if (record.result.selection.attempted) {
    const selection_summary& s = record.result.selection;
    const std::string in3 = in2 + "  ";
    out += ",\n" + in2 + "\"selection\": {\n";
    out += in3 + "\"selected_solver\": \"" + escape(s.selected_solver) +
           "\",\n";
    out += in3 + "\"degeneracy\": " + num(s.degeneracy) + ",\n";
    out += in3 + "\"arboricity_lower\": " + fmt_double(s.arboricity_lower) +
           ",\n";
    out += in3 + "\"triangle_density\": " + fmt_double(s.triangle_density) +
           ",\n";
    out += in3 + "\"degree_skew\": " + fmt_double(s.degree_skew) + ",\n";
    out += in3 + "\"avg_degree\": " + fmt_double(s.avg_degree) + "\n" + in2 +
           "}";
  }
  out += "\n" + in1 + "},\n";
  const sim::run_metrics& m = record.result.metrics;
  out += in1 + "\"metrics\": {\n";
  out += in2 + "\"rounds\": " + num(m.rounds) + ",\n";
  out += in2 + "\"messages_sent\": " + num(m.messages_sent) + ",\n";
  out += in2 + "\"bits_sent\": " + num(m.bits_sent) + ",\n";
  out += in2 + "\"max_message_bits\": " + num(m.max_message_bits) + ",\n";
  out += in2 + "\"max_messages_per_node\": " + num(m.max_messages_per_node) +
         ",\n";
  out += in2 + "\"messages_dropped\": " + num(m.messages_dropped) + ",\n";
  out += in2 + "\"messages_lost_to_faults\": " +
         num(m.messages_lost_to_faults) + ",\n";
  out += in2 + "\"messages_duplicated\": " + num(m.messages_duplicated) +
         ",\n";
  out += in2 + "\"node_rounds_down\": " + num(m.node_rounds_down) + ",\n";
  out += in2 + "\"nodes_crashed\": " + num(m.nodes_crashed) + ",\n";
  out += in2 + "\"congest_violation\": ";
  out += m.congest_violation ? "true" : "false";
  out += ",\n" + in2 + "\"hit_round_limit\": ";
  out += m.hit_round_limit ? "true" : "false";
  out += "\n" + in1 + "},\n";
  if (record.coverage.has_value()) {
    const verify::coverage_report& c = *record.coverage;
    const std::string in3 = in2 + "  ";
    out += in1 + "\"coverage\": {\n";
    out += in2 + "\"nodes\": " + num(c.nodes) + ",\n";
    out += in2 + "\"holes\": " + num(c.holes()) + ",\n";
    out += in2 + "\"covered_fraction\": " + fmt_double(c.covered_fraction) +
           ",\n";
    out += in2 + "\"max_hole_radius\": " + num(c.max_hole_radius) + ",\n";
    out += in2 + "\"fully_covered\": ";
    out += c.fully_covered() ? "true" : "false";
    out += ",\n" + in2 + "\"attribution\": [";
    bool first_fault = true;
    for (const verify::fault_attribution& a : c.attribution) {
      out += first_fault ? "\n" : ",\n";
      out += in3 + "{\"fault\": \"" + escape(a.fault) +
             "\", \"holes\": " + num(a.holes) + "}";
      first_fault = false;
    }
    out += first_fault ? "]\n" : "\n" + in2 + "]\n";
    out += in1 + "},\n";
  }
  out += in1 + "\"elapsed_ms\": " + fmt_double(record.elapsed_ms) + "\n" +
         std::string(indent) + "}";
}

std::string to_json(const run_record& record) {
  std::string out;
  out.reserve(1024);
  append_record_json(out, record, "");
  out += '\n';
  return out;
}

}  // namespace domset::api

#include "obs/record_schema.hpp"

#include <algorithm>

namespace tridsolve::obs {

namespace {

std::string rule_text(const Field& f) {
  switch (f.rule) {
    case Rule::number: return "a number";
    case Rule::non_negative: return "a number >= 0";
    case Rule::positive: return "a number > 0";
    case Rule::at_least_one: return "a number >= 1";
    case Rule::flag: return "0 or 1";
    case Rule::unit: return "a number in [0, 1]";
    case Rule::text: return "a non-empty string";
    case Rule::name: break;
  }
  std::string text = "one of ";
  for (const std::string_view name : f.names) {
    if (name != f.names.front()) text += '|';
    text += name;
  }
  return text;
}

bool obeys(const Field& f, const JsonValue& v) {
  if (f.rule == Rule::text || f.rule == Rule::name) {
    if (!v.is_string() || v.as_string().empty()) return false;
    return f.rule == Rule::text ||
           std::find(f.names.begin(), f.names.end(), v.as_string()) !=
               f.names.end();
  }
  if (!v.is_number()) return false;
  const double x = v.as_number();
  switch (f.rule) {
    case Rule::non_negative: return !(x < 0);
    case Rule::positive: return !(x <= 0);
    case Rule::at_least_one: return !(x < 1);
    case Rule::flag: return x == 0 || x == 1;
    case Rule::unit: return !(x < 0 || x > 1);
    default: return true;
  }
}

std::optional<std::string> check_group(const JsonValue& obj, const Group& g) {
  const bool any = std::any_of(
      g.fields.begin(), g.fields.end(),
      [&obj](const Field& f) { return obj.find(f.key) != nullptr; });
  if (!g.required && !any) return std::nullopt;
  for (const Field& f : g.fields) {
    const JsonValue* v = obj.find(f.key);
    if (!v) {
      if (g.required) return "missing key " + json_quote(f.key);
      return "partial " + std::string(g.name) + " group: missing " +
             json_quote(f.key);
    }
    if (!obeys(f, *v)) return json_quote(f.key) + " is not " + rule_text(f);
  }
  for (const Order& o : g.orders) {
    if (obj.find(o.lo)->as_number() > obj.find(o.hi)->as_number()) {
      return json_quote(o.lo) + " > " + json_quote(o.hi);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> check_record(const JsonValue& rec) {
  for (const Group& g : record_groups) {
    if (auto err = check_group(rec, g)) return err;
  }
  if (rec.find("frac_bandwidth")) {
    if (auto err = check_group(rec, roofline_block)) return err;
  }
  if (const JsonValue* roof = rec.find("roofline")) {
    if (!roof->is_object()) return "roofline is not an object";
    for (const auto& [phase, attr] : roof->as_object()) {
      const std::string where = "roofline[" + json_quote(phase) + "]";
      if (!attr.is_object()) return where + " is not an object";
      if (auto err = check_group(attr, roofline_block)) {
        return where + ": " + *err;
      }
    }
  }
  if (const JsonValue* hist = rec.find("hist_launch_us")) {
    if (!hist->is_object()) return "hist_launch_us is not an object";
    if (auto err = check_group(*hist, hist_launch_block)) {
      return "hist_launch_us: " + *err;
    }
  }
  return std::nullopt;
}

}  // namespace tridsolve::obs

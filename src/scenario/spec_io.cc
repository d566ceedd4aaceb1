#include "scenario/spec_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "scenario/topo_registry.h"
#include "traffic/workload.h"
#include "util/error.h"
#include "util/exit_codes.h"
#include "util/json.h"

namespace topo::scenario {
namespace {

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  out += "]";
  return out;
}

[[noreturn]] void fail_key(const std::string& key, const std::string& why) {
  throw InvalidArgument("spec key \"" + key + "\": " + why);
}

// ---- The evaluation knobs. Every reserved sweep-axis name is one row of
// ---- knob_table(): its scalar spec key (if it has one), the one rule its
// ---- values obey, the spec condition under which it means anything, and
// ---- where it binds in EvalOptions. is_eval_axis, bind_axis, the JSON
// ---- parser and validate_spec all walk this table, so a knob's name,
// ---- range and gate are written once. (spec_to_json and
// ---- cell_identity_json stay hand-written: their bytes are the cache's
// ---- frozen addresses.)

// The values a knob admits.
struct ValueRule {
  double lo = 0.0;
  double hi = 1.0;
  bool lo_open = false;
  bool hi_open = false;
  bool integer = false;
  bool nonzero = false;
  std::string want;  // the range as error messages state it

  // Written positively, so NaN fails every rule.
  [[nodiscard]] bool admits(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi) &&
           (!integer || v == std::floor(v)) && (!nonzero || v != 0.0);
  }
};

// Where a knob means anything. An axis whose gate fails would sweep a
// no-op, and a scalar key whose gate fails would be silently carried.
struct Gate {
  bool (*holds)(const ScenarioSpec&) = nullptr;  // nullptr: everywhere
  const char* needs = "";  // ends "requires ..." and "only valid with ..."
  // Gates only the axis: the scalar key is emitted for every spec.
  bool axis_only = false;
};

// A numeric knob's storage in EvalOptions. Integer knobs only ever
// receive values their rule has already checked.
struct Field {
  Field(double& value) : real(&value) {}
  Field(int& value) : integer(&value) {}

  [[nodiscard]] double get() const {
    return real != nullptr ? *real : *integer;
  }
  void set(double value) const {
    if (real != nullptr) {
      *real = value;
    } else {
      *integer = static_cast<int>(std::llround(value));
    }
  }

  double* real = nullptr;
  int* integer = nullptr;
};

struct Knob {
  std::string name;            // axis name; the per-class row's is a prefix
  const char* path = nullptr;  // scalar spec key; nullptr: axis only
  ValueRule rule;
  Gate gate = {};
  // The knob's storage. Knobs stored as something other than a number
  // (cdf, solver_mode) bind instead; the per-class row has neither, as
  // the axis name's suffix picks its target.
  Field (*field)(EvalOptions&) = nullptr;
  void (*bind)(EvalOptions&, double) = nullptr;
};

bool is_chunky(const ScenarioSpec& s) {
  return s.traffic == TrafficKind::kChunky;
}
bool is_hotspot(const ScenarioSpec& s) {
  return s.traffic == TrafficKind::kHotspot;
}
bool is_stride(const ScenarioSpec& s) {
  return s.traffic == TrafficKind::kStride;
}
bool has_workload(const ScenarioSpec& s) { return s.packet_sim.fct.enabled; }
bool incast(const ScenarioSpec& s) {
  return has_workload(s) && s.packet_sim.fct.pattern == "incast";
}
bool registry_cdf(const ScenarioSpec& s) {
  return has_workload(s) && s.packet_sim.fct.custom_cdf.empty();
}

const std::vector<Knob>& knob_table() {
  static const std::vector<Knob> table = [] {
    const ValueRule fraction{.want = "[0, 1]"};
    const ValueRule positive_fraction{.lo_open = true, .want = "(0, 1]"};
    return std::vector<Knob>{
        {.name = "link_failure_fraction",
         .path = "failure.link_failure_fraction",
         .rule = fraction,
         .field = [](EvalOptions& o) -> Field {
           return o.failure.uniform.link_fraction;
         }},
        {.name = "switch_failure_fraction",
         .path = "failure.switch_failure_fraction",
         .rule = fraction,
         .field = [](EvalOptions& o) -> Field {
           return o.failure.uniform.switch_fraction;
         }},
        {.name = "blast_switch_fraction",
         .path = "failure.blast_switch_fraction",
         .rule = fraction,
         .field = [](EvalOptions& o) -> Field {
           return o.failure.correlated.epicenter_fraction;
         }},
        {.name = "blast_probability",
         .path = "failure.blast_probability",
         .rule = fraction,
         .field = [](EvalOptions& o) -> Field {
           return o.failure.correlated.peer_probability;
         }},
        // "class_failure_fraction:<class>"; the scalar form is an object
        // of class -> rate.
        {.name = kClassAxisPrefix,
         .path = "failure.class_failure_fraction",
         .rule = fraction},
        {.name = "targeted_link_cuts",
         .path = "failure.targeted_link_cuts",
         .rule = {.hi = 1e9, .integer = true, .want = "integers in 0..1e9"},
         .field = [](EvalOptions& o) -> Field {
           return o.failure.targeted.link_cuts;
         }},
        {.name = "capacity_factor",
         .path = "failure.capacity_factor",
         .rule = positive_fraction,
         .field = [](EvalOptions& o) -> Field {
           return o.failure.capacity_factor;
         }},
        {.name = "chunky_fraction",
         .path = "chunky_fraction",
         .rule = fraction,
         .gate = {is_chunky, "chunky traffic", /*axis_only=*/true},
         .field = [](EvalOptions& o) -> Field { return o.chunky_fraction; }},
        {.name = "hot_fraction",
         .path = "hot_fraction",
         .rule = fraction,
         .gate = {is_hotspot, "hotspot traffic"},
         .field = [](EvalOptions& o) -> Field { return o.hot_fraction; }},
        {.name = "hot_multiplier",
         .path = "hot_multiplier",
         .rule = {.lo = 1.0, .hi = 1e6, .want = "[1, 1e6]"},
         .gate = {is_hotspot, "hotspot traffic"},
         .field = [](EvalOptions& o) -> Field { return o.hot_multiplier; }},
        {.name = "stride",
         .path = "stride",
         .rule = {.lo = -1e9, .hi = 1e9, .integer = true, .nonzero = true,
                  .want = "non-zero integers in -1e9..1e9"},
         .gate = {is_stride, "stride traffic"},
         .field = [](EvalOptions& o) -> Field { return o.stride; }},
        {.name = "load",
         .path = "packet_sim.workload.load",
         .rule = positive_fraction,
         .gate = {has_workload, "a packet_sim.workload block"},
         .field = [](EvalOptions& o) -> Field {
           return o.packet_sim.fct.load;
         }},
        {.name = "fan_in",
         .path = "packet_sim.workload.fan_in",
         .rule = {.lo = 2.0, .hi = 1e6, .integer = true,
                  .want = "integers in 2..1e6"},
         .gate = {incast,
                  "a packet_sim.workload block with \"pattern\": \"incast\""},
         .field = [](EvalOptions& o) -> Field {
           return o.packet_sim.fct.fan_in;
         }},
        // An integer index into flow_size_cdfs(), so its upper bound is
        // the registry's size. A custom table has no index there.
        {.name = "cdf",
         .rule = {.hi = static_cast<double>(flow_size_cdfs().size()) - 1.0,
                  .integer = true,
                  .want = "integer indexes into the registered CDFs: " +
                          flow_size_cdf_names()},
         .gate = {registry_cdf,
                  "a packet_sim.workload block naming a registered cdf "
                  "(not a custom cdf_file / cdf_table)"},
         .bind = [](EvalOptions& o, double v) {
           o.packet_sim.fct.cdf =
               flow_size_cdfs()[static_cast<std::size_t>(v)].name;
         }},
        {.name = "epsilon",
         .rule = {.lo_open = true, .hi_open = true, .want = "(0, 1)"},
         .field = [](EvalOptions& o) -> Field { return o.flow.epsilon; }},
        {.name = "solver_mode",
         .rule = {.integer = true, .want = "0 = exact or 1 = approx"},
         .bind = [](EvalOptions& o, double v) {
           o.flow.mode = v == 1.0 ? SolverMode::kApprox : SolverMode::kExact;
         }},
    };
  }();
  return table;
}

bool is_class_knob(const Knob& knob) { return knob.name == kClassAxisPrefix; }

const Knob* find_knob(const std::string& param) {
  for (const Knob& knob : knob_table()) {
    if (param == knob.name ||
        (is_class_knob(knob) && param.rfind(knob.name, 0) == 0)) {
      return &knob;
    }
  }
  return nullptr;
}

// A scalar value outside its rule fails naming `key`, with the same
// words from the parser and from validate_spec.
void check_rule(const ValueRule& rule, const std::string& key, double value) {
  if (rule.admits(value)) return;
  fail_key(key, rule.integer && value != std::floor(value)
                    ? "must be an integer"
                    : "out of range (want " + rule.want + ")");
}

// ---- The bounds of the spec's other numeric scalars (packet_sim,
// ---- search, run counts), one row per key. The parser and validate_spec
// ---- both check through check_bounded, so a spec that validates also
// ---- survives its own dump -> parse round trip.

ValueRule integer_range(double lo, double hi) {
  return {.lo = lo, .hi = hi, .integer = true,
          .want = json_number(lo) + ".." + json_number(hi)};
}

const std::vector<std::pair<std::string, ValueRule>>& bounds_table() {
  static const std::vector<std::pair<std::string, ValueRule>> table = [] {
    const ValueRule weight{.hi = 1e9, .want = "[0, 1e9]"};
    return std::vector<std::pair<std::string, ValueRule>>{
        {"packet_sim.subflows", integer_range(1, 64)},
        {"packet_sim.queue_packets", integer_range(1, 1e6)},
        {"packet_sim.packet_bytes", integer_range(64, 65535)},
        {"packet_sim.duration_ns", integer_range(1, 1e12)},
        {"packet_sim.warmup_ns", integer_range(0, 1e12)},
        {"packet_sim.start_jitter_ns", integer_range(0, 1e12)},
        {"packet_sim.link_delay_ns", integer_range(1, 4e9)},
        {"packet_sim.server_rate_gbps",
         {.hi = 1e6, .lo_open = true, .want = "(0, 1e6]"}},
        {"search.budget", integer_range(0, 1e6)},
        {"search.restarts", integer_range(1, 1e4)},
        {"search.population", integer_range(1, 1e4)},
        {"search.temperature", {.hi = 1e6, .want = "[0, 1e6]"}},
        {"search.cost.port", weight},
        {"search.cost.cable", weight},
        {"search.cost.switch", weight},
        {"search.cost.class", weight},  // each class's "search.cost.class.<c>"
        {"search.cost.floor_columns", integer_range(1, 1e6)},
        {"quick_runs", integer_range(1, 1e6)},
        {"full_runs", integer_range(1, 1e6)},
    };
  }();
  return table;
}

// Checks `value` against the row of `key` ("search.cost.class.<c>" reads
// the "search.cost.class" row).
void check_bounded(const std::string& key, double value) {
  const std::string row = key.rfind("search.cost.class.", 0) == 0
                              ? std::string("search.cost.class")
                              : key;
  for (const auto& [name, rule] : bounds_table()) {
    if (name == row) return check_rule(rule, key, value);
  }
  throw InvalidArgument("no bounds declared for spec key \"" + key + "\"");
}

// ScenarioSpec and EvalOptions name the evaluation fields they share
// alike; this one list copies them in either direction.
template <typename To, typename From>
void copy_shared_knobs(To& to, const From& from) {
  to.traffic = from.traffic;
  to.chunky_fraction = from.chunky_fraction;
  to.hot_fraction = from.hot_fraction;
  to.hot_multiplier = from.hot_multiplier;
  to.stride = from.stride;
  to.failure = from.failure;
  to.packet_sim = from.packet_sim;
}

// ---- Strict extraction helpers. Every message names the offending key so
// ---- a typo'd spec file points at its own mistake.

// Allows `allowed` plus every knob key directly under `where`.
void require_only_keys(const JsonValue& object, const std::string& where,
                       std::vector<std::string> allowed) {
  for (const Knob& knob : knob_table()) {
    if (knob.path == nullptr) continue;
    const std::string path = knob.path;
    if (path.rfind(where, 0) == 0 &&
        path.find('.', where.size()) == std::string::npos) {
      allowed.push_back(path.substr(where.size()));
    }
  }
  for (const auto& [key, value] : object.members) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::string known;
      for (const std::string& name : allowed) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      throw InvalidArgument("spec: unknown key \"" + where + key +
                            "\" (known keys: " + known + ")");
    }
  }
}

// The member at dotted `path` below `root`, or nullptr.
const JsonValue* find_path(const JsonValue& root, const std::string& path) {
  const JsonValue* node = &root;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t dot = path.find('.', begin);
    node = node->find(path.substr(begin, dot - begin));
    if (node == nullptr || dot == std::string::npos) return node;
    if (!node->is_object()) return nullptr;
    begin = dot + 1;
  }
}

const JsonValue& member_of_kind(const JsonValue& object,
                                const std::string& key,
                                JsonValue::Kind kind, const char* kind_name) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) fail_key(key, "missing (required)");
  if (value->kind != kind) fail_key(key, std::string("must be ") + kind_name);
  return *value;
}

std::string get_string(const JsonValue& object, const std::string& key) {
  return member_of_kind(object, key, JsonValue::Kind::kString, "a string")
      .text;
}

// The number at `where` + `key` below `object`, checked against its
// bounds_table() row; `fallback` when the key is absent.
double get_bounded(const JsonValue& object, const std::string& where,
                   const char* key, double fallback) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return fallback;
  const std::string path = where + key;
  if (!value->is_number()) fail_key(path, "must be a number");
  check_bounded(path, value->number);
  return value->number;
}

std::vector<double> get_number_list(const JsonValue& object,
                                    const std::string& key) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return {};
  if (value->kind != JsonValue::Kind::kArray) {
    fail_key(key, "must be an array of numbers");
  }
  std::vector<double> out;
  out.reserve(value->items.size());
  for (const JsonValue& item : value->items) {
    if (item.kind != JsonValue::Kind::kNumber) {
      fail_key(key, "must be an array of numbers");
    }
    out.push_back(item.number);
  }
  return out;
}

}  // namespace

bool is_eval_axis(const std::string& param) {
  return find_knob(param) != nullptr;
}

void bind_axis(const std::string& name, double value, ParamMap& params,
               EvalOptions& options) {
  const Knob* knob = find_knob(name);
  if (knob == nullptr) {
    params[name] = value;
  } else if (is_class_knob(*knob)) {
    options.failure.per_class
        .switch_fraction[name.substr(kClassAxisPrefix.size())] = value;
  } else if (knob->field != nullptr) {
    knob->field(options).set(value);
  } else {
    knob->bind(options, value);
  }
}

EvalOptions eval_options_for(const ScenarioSpec& spec) {
  EvalOptions options;
  copy_shared_knobs(options, spec);
  options.flow.mode = spec.solver;
  return options;
}

void validate_spec(const ScenarioSpec& spec) {
  require(!spec.name.empty(), "spec key \"name\": must be non-empty");
  const FamilyInfo* family = find_family(spec.topology.family);
  if (family == nullptr) {
    std::string known;
    for (const FamilyInfo& f : topology_families()) {
      if (!known.empty()) known += ", ";
      known += f.name;
    }
    fail_key("topology.family", "unknown family \"" + spec.topology.family +
                                    "\" (known: " + known + ")");
  }
  const auto known_param = [&](const std::string& name) {
    return std::find(family->params.begin(), family->params.end(), name) !=
           family->params.end();
  };
  for (const auto& [name, value] : spec.topology.params) {
    (void)value;
    if (!known_param(name)) {
      fail_key("topology.params." + name,
               "unknown " + family->name + " parameter");
    }
  }
  // Every scalar knob against its one rule, so programmatic specs get the
  // same loud errors as files and a spec that validates also survives its
  // own dump -> parse round trip.
  EvalOptions knobs = eval_options_for(spec);
  for (const Knob& knob : knob_table()) {
    if (is_class_knob(knob)) {
      for (const auto& [klass, fraction] :
           spec.failure.per_class.switch_fraction) {
        if (klass.empty()) fail_key(knob.path, "class name must be non-empty");
        check_rule(knob.rule, std::string(knob.path) + "." + klass,
                   fraction);
      }
    } else if (knob.path != nullptr) {
      check_rule(knob.rule, knob.path, knob.field(knobs).get());
    }
  }
  if (spec.packet_sim.enabled) {
    const sim::SimParams& p = spec.packet_sim.params;
    if (spec.packet_sim.fct.enabled) {
      if (!spec.packet_sim.fct.custom_cdf.empty()) {
        validate_flow_size_cdf(spec.packet_sim.fct.custom_cdf,
                               "packet_sim.workload.cdf_table");
      } else if (find_flow_size_cdf(spec.packet_sim.fct.cdf) == nullptr) {
        fail_key("packet_sim.workload.cdf",
                 "unknown flow-size CDF \"" + spec.packet_sim.fct.cdf +
                     "\" (known: " + flow_size_cdf_names() + ")");
      }
      if (spec.packet_sim.fct.pattern != "uniform" &&
          spec.packet_sim.fct.pattern != "incast") {
        fail_key("packet_sim.workload.pattern",
                 "unknown workload pattern \"" + spec.packet_sim.fct.pattern +
                     "\" (known: uniform, incast)");
      }
    } else if (spec.traffic != TrafficKind::kPermutation &&
               spec.traffic != TrafficKind::kStride) {
      fail_key("packet_sim",
               "requires permutation or stride traffic (the simulator models "
               "server-to-server unit-demand bulk flows) unless a workload "
               "block selects the finite-flow FCT mode");
    }
    check_bounded("packet_sim.subflows", p.subflows);
    check_bounded("packet_sim.queue_packets", p.queue_packets);
    check_bounded("packet_sim.packet_bytes", p.packet_bytes);
    check_bounded("packet_sim.duration_ns",
                  static_cast<double>(p.duration_ns));
    check_bounded("packet_sim.warmup_ns", static_cast<double>(p.warmup_ns));
    check_bounded("packet_sim.start_jitter_ns",
                  static_cast<double>(p.start_jitter_ns));
    check_bounded("packet_sim.link_delay_ns",
                  static_cast<double>(p.link_delay_ns));
    check_bounded("packet_sim.server_rate_gbps", p.server_rate_gbps);
    if (p.warmup_ns >= p.duration_ns) {
      fail_key("packet_sim.warmup_ns", "must be below duration_ns");
    }
  }
  if (spec.search.enabled) {
    // A spec either sweeps or searches: axes bind sweep points, while the
    // search block explores a design space at fixed parameters — letting
    // both through would silently ignore one of them.
    if (!spec.axes.empty()) {
      fail_key("search", "incompatible with sweep axes (a spec either "
                         "sweeps or searches)");
    }
    if (spec.search.objective != "throughput_per_cost" &&
        spec.search.objective != "throughput") {
      fail_key("search.objective",
               "unknown objective \"" + spec.search.objective +
                   "\" (known: throughput_per_cost, throughput)");
    }
    check_bounded("search.budget", spec.search.budget);
    check_bounded("search.restarts", spec.search.restarts);
    check_bounded("search.population", spec.search.population);
    check_bounded("search.temperature", spec.search.temperature);
    if (spec.search.moves.empty()) {
      fail_key("search.moves", "must be non-empty");
    }
    for (const std::string& move : spec.search.moves) {
      if (move != "rewire" && move != "server_shift") {
        fail_key("search.moves", "unknown move \"" + move +
                                     "\" (known: rewire, server_shift)");
      }
    }
    check_bounded("search.cost.port", spec.search.port_cost);
    check_bounded("search.cost.cable", spec.search.cable_cost);
    check_bounded("search.cost.switch", spec.search.switch_cost);
    for (const auto& [klass, value] : spec.search.class_cost) {
      if (klass.empty()) {
        fail_key("search.cost.class", "class name must be non-empty");
      }
      check_bounded("search.cost.class." + klass, value);
    }
    check_bounded("search.cost.floor_columns", spec.search.floor_columns);
  }
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const SweepAxis& axis = spec.axes[a];
    const std::string where = "axes[" + std::to_string(a) + "].";
    if (axis.param.empty()) fail_key(where + "param", "must be non-empty");
    if (axis.param == kClassAxisPrefix) {
      fail_key(where + "param",
               "class axis needs a class name after \"" + kClassAxisPrefix +
                   "\" (e.g. " + kClassAxisPrefix + "tor)");
    }
    const Knob* knob = find_knob(axis.param);
    if (knob == nullptr && !known_param(axis.param)) {
      fail_key(where + "param", "unknown sweep axis \"" + axis.param +
                                    "\" for family " + family->name);
    }
    if (knob != nullptr && knob->gate.holds != nullptr &&
        !knob->gate.holds(spec)) {
      fail_key(where + "param", "axis \"" + axis.param + "\" requires " +
                                    knob->gate.needs);
    }
    // A repeated axis would silently run a different experiment: axes
    // bind in order, so the later one overwrites the earlier while the
    // output table still prints the earlier's values as a column.
    for (std::size_t b = 0; b < a; ++b) {
      if (spec.axes[b].param == axis.param) {
        fail_key(where + "param", "duplicate axis \"" + axis.param +
                                      "\" (also axes[" + std::to_string(b) +
                                      "])");
      }
    }
    if (axis.values.empty()) fail_key(where + "values", "must be non-empty");
    if (knob == nullptr) continue;  // a topology parameter
    // Evaluation-side axis values obey their knob's rule, so a bad value
    // names its key here instead of erroring mid-sweep (after cache
    // writes) downstream.
    const auto check_values = [&](const std::vector<double>& values,
                                  const char* list_key) {
      for (const double v : values) {
        if (!knob->rule.admits(v)) {
          fail_key(where + list_key, "value " + json_number(v) +
                                         " invalid for " + axis.param +
                                         " (want " + knob->rule.want + ")");
        }
      }
    };
    check_values(axis.values, "values");
    check_values(axis.full_values, "full_values");
  }
  check_bounded("quick_runs", spec.quick_runs);
  check_bounded("full_runs", spec.full_runs);
}

const char* traffic_kind_name(TrafficKind kind) {
  switch (kind) {
    case TrafficKind::kPermutation: return "permutation";
    case TrafficKind::kAllToAll: return "all_to_all";
    case TrafficKind::kChunky: return "chunky";
    case TrafficKind::kHotspot: return "hotspot";
    case TrafficKind::kStride: return "stride";
  }
  throw InvalidArgument("unhandled TrafficKind");
}

TrafficKind traffic_kind_from_name(const std::string& name) {
  if (name == "permutation") return TrafficKind::kPermutation;
  if (name == "all_to_all") return TrafficKind::kAllToAll;
  if (name == "chunky") return TrafficKind::kChunky;
  if (name == "hotspot") return TrafficKind::kHotspot;
  if (name == "stride") return TrafficKind::kStride;
  throw InvalidArgument(
      "spec key \"traffic\": unknown traffic kind \"" + name +
      "\" (known: permutation, all_to_all, chunky, hotspot, stride)");
}

const char* route_mode_name(sim::RouteMode mode) {
  switch (mode) {
    case sim::RouteMode::kSampledPaths: return "sampled";
    case sim::RouteMode::kEcmpHash: return "ecmp_hash";
  }
  throw InvalidArgument("unhandled RouteMode");
}

sim::RouteMode route_mode_from_name(const std::string& name) {
  if (name == "sampled") return sim::RouteMode::kSampledPaths;
  if (name == "ecmp_hash") return sim::RouteMode::kEcmpHash;
  throw InvalidArgument("spec key \"packet_sim.route_mode\": unknown route "
                        "mode \"" + name + "\" (known: sampled, ecmp_hash)");
}

const char* solver_mode_name(SolverMode mode) {
  switch (mode) {
    case SolverMode::kExact: return "exact";
    case SolverMode::kApprox: return "approx";
  }
  throw InvalidArgument("unhandled SolverMode");
}

SolverMode solver_mode_from_name(const std::string& name) {
  if (name == "exact") return SolverMode::kExact;
  if (name == "approx") return SolverMode::kApprox;
  throw InvalidArgument("spec key \"solver\": unknown solver mode \"" + name +
                        "\" (known: exact, approx)");
}

std::string spec_to_json(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": " << json_string(spec.name) << ",\n";
  out << "  \"description\": " << json_string(spec.description) << ",\n";
  out << "  \"topology\": {\n";
  out << "    \"family\": " << json_string(spec.topology.family) << ",\n";
  out << "    \"params\": {";
  bool first = true;
  for (const auto& [key, value] : spec.topology.params) {  // map: sorted
    if (!first) out << ", ";
    first = false;
    out << json_string(key) << ": " << json_number(value);
  }
  out << "}\n  },\n";
  out << "  \"traffic\": " << json_string(traffic_kind_name(spec.traffic))
      << ",\n";
  out << "  \"chunky_fraction\": " << json_number(spec.chunky_fraction)
      << ",\n";
  // Traffic-kind-specific knobs are emitted only for their kind (and
  // rejected by the parser otherwise), keeping legacy spec files
  // byte-identical and dump -> parse -> dump byte-stable.
  if (spec.traffic == TrafficKind::kHotspot) {
    out << "  \"hot_fraction\": " << json_number(spec.hot_fraction) << ",\n";
    out << "  \"hot_multiplier\": " << json_number(spec.hot_multiplier)
        << ",\n";
  }
  if (spec.traffic == TrafficKind::kStride) {
    out << "  \"stride\": " << spec.stride << ",\n";
  }
  // Emitted only in approx mode, so every exact-mode spec file — i.e.
  // every file written before solver modes existed — round-trips
  // byte-identically (and keeps its spec hash).
  if (spec.solver == SolverMode::kApprox) {
    out << "  \"solver\": " << json_string(solver_mode_name(spec.solver))
        << ",\n";
  }
  // The three legacy keys are always emitted (pre-component spec files
  // stay byte-identical); the newer component keys appear only when they
  // differ from their inactive defaults, so dump -> parse -> dump is
  // byte-stable in both directions.
  out << "  \"failure\": {\"link_failure_fraction\": "
      << json_number(spec.failure.uniform.link_fraction)
      << ", \"switch_failure_fraction\": "
      << json_number(spec.failure.uniform.switch_fraction)
      << ", \"capacity_factor\": " << json_number(spec.failure.capacity_factor);
  if (spec.failure.correlated.epicenter_fraction != 0.0) {
    out << ", \"blast_switch_fraction\": "
        << json_number(spec.failure.correlated.epicenter_fraction);
  }
  if (spec.failure.correlated.peer_probability != 0.0) {
    out << ", \"blast_probability\": "
        << json_number(spec.failure.correlated.peer_probability);
  }
  if (!spec.failure.per_class.switch_fraction.empty()) {
    out << ", \"class_failure_fraction\": {";
    bool first_class = true;
    for (const auto& [klass, fraction] :
         spec.failure.per_class.switch_fraction) {  // map: sorted
      if (!first_class) out << ", ";
      first_class = false;
      out << json_string(klass) << ": " << json_number(fraction);
    }
    out << "}";
  }
  if (spec.failure.targeted.link_cuts != 0) {
    out << ", \"targeted_link_cuts\": " << spec.failure.targeted.link_cuts;
  }
  out << "},\n";
  // Emitted only when enabled: pre-packet-sim spec files round-trip
  // byte-identically, and any packet knob perturbs the spec hash.
  if (spec.packet_sim.enabled) {
    const sim::SimParams& p = spec.packet_sim.params;
    out << "  \"packet_sim\": {\"subflows\": " << p.subflows
        << ", \"queue_packets\": " << p.queue_packets
        << ", \"packet_bytes\": " << p.packet_bytes
        << ", \"duration_ns\": " << p.duration_ns
        << ", \"warmup_ns\": " << p.warmup_ns
        << ", \"start_jitter_ns\": " << p.start_jitter_ns
        << ", \"link_delay_ns\": " << p.link_delay_ns
        << ", \"server_rate_gbps\": " << json_number(p.server_rate_gbps)
        << ", \"ewtcp_coupling\": " << (p.ewtcp_coupling ? "true" : "false")
        << ", \"route_mode\": " << json_string(route_mode_name(p.route_mode));
    // The finite-flow workload block appears only when enabled, so
    // pre-FCT packet specs stay byte-identical.
    if (spec.packet_sim.fct.enabled) {
      out << ", \"workload\": {";
      // A custom table serializes as the PARSED points ("cdf_table") and
      // drops both the registry name and any originating file path, so
      // dump -> parse -> dump is byte-stable and the canonical form —
      // which doubles as spec-hash material — depends on the table's
      // contents, never on where it came from.
      if (!spec.packet_sim.fct.custom_cdf.empty()) {
        out << "\"cdf_table\": [";
        bool first_point = true;
        for (const CdfPoint& p : spec.packet_sim.fct.custom_cdf) {
          if (!first_point) out << ", ";
          first_point = false;
          out << "[" << json_number(p.bytes) << ", "
              << json_number(p.cum_prob) << "]";
        }
        out << "]";
      } else {
        out << "\"cdf\": " << json_string(spec.packet_sim.fct.cdf);
      }
      out << ", \"load\": " << json_number(spec.packet_sim.fct.load);
      // The arrival pattern is emitted only when it differs from the
      // uniform default, so pre-incast workload specs stay byte-identical.
      if (spec.packet_sim.fct.pattern == "incast") {
        out << ", \"pattern\": " << json_string(spec.packet_sim.fct.pattern)
            << ", \"fan_in\": " << spec.packet_sim.fct.fan_in;
      }
      out << "}";
    }
    out << "},\n";
  }
  // Emitted only when enabled: pre-search spec files round-trip
  // byte-identically and keep their spec hash.
  if (spec.search.enabled) {
    out << "  \"search\": {\"objective\": "
        << json_string(spec.search.objective)
        << ", \"budget\": " << spec.search.budget
        << ", \"restarts\": " << spec.search.restarts
        << ", \"population\": " << spec.search.population
        << ", \"temperature\": " << json_number(spec.search.temperature)
        << ", \"moves\": [";
    for (std::size_t m = 0; m < spec.search.moves.size(); ++m) {
      if (m > 0) out << ", ";
      out << json_string(spec.search.moves[m]);
    }
    out << "], \"cost\": {\"port\": " << json_number(spec.search.port_cost)
        << ", \"cable\": " << json_number(spec.search.cable_cost)
        << ", \"switch\": " << json_number(spec.search.switch_cost);
    if (!spec.search.class_cost.empty()) {
      out << ", \"class\": {";
      bool first_class = true;
      for (const auto& [klass, value] : spec.search.class_cost) {  // map: sorted
        if (!first_class) out << ", ";
        first_class = false;
        out << json_string(klass) << ": " << json_number(value);
      }
      out << "}";
    }
    out << ", \"floor_columns\": " << spec.search.floor_columns << "}},\n";
  }
  out << "  \"axes\": [";
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const SweepAxis& axis = spec.axes[a];
    if (a > 0) out << ",";
    out << "\n    {\"param\": " << json_string(axis.param)
        << ", \"values\": " << number_list(axis.values);
    if (!axis.full_values.empty()) {
      out << ", \"full_values\": " << number_list(axis.full_values);
    }
    out << "}";
  }
  out << (spec.axes.empty() ? "]" : "\n  ]") << ",\n";
  out << "  \"quick_runs\": " << spec.quick_runs << ",\n";
  out << "  \"full_runs\": " << spec.full_runs << ",\n";
  out << "  \"reuse_topology\": " << (spec.reuse_topology ? "true" : "false")
      << "\n";
  out << "}\n";
  return out.str();
}

ScenarioSpec spec_from_json(const std::string& text) {
  const JsonValue root = parse_json(text);
  require(root.is_object(), "spec: top level must be a JSON object");
  require_only_keys(root, "",
                    {"name", "description", "topology", "traffic",
                     "solver", "failure", "packet_sim", "search", "axes",
                     "quick_runs", "full_runs", "reuse_topology"});

  ScenarioSpec spec;
  spec.name = get_string(root, "name");
  if (spec.name.empty()) fail_key("name", "must be non-empty");
  if (root.find("description") != nullptr) {
    spec.description = get_string(root, "description");
  }

  const JsonValue& topology =
      member_of_kind(root, "topology", JsonValue::Kind::kObject, "an object");
  require_only_keys(topology, "topology.", {"family", "params"});
  spec.topology.family = get_string(topology, "family");
  if (const JsonValue* params = topology.find("params"); params != nullptr) {
    if (!params->is_object()) fail_key("topology.params", "must be an object");
    for (const auto& [key, value] : params->members) {
      if (!value.is_number()) {
        fail_key("topology.params." + key, "must be a number");
      }
      spec.topology.params[key] = value.number;
    }
  }

  if (root.find("traffic") != nullptr) {
    spec.traffic = traffic_kind_from_name(get_string(root, "traffic"));
  }
  if (root.find("solver") != nullptr) {
    spec.solver = solver_mode_from_name(get_string(root, "solver"));
  }
  if (const JsonValue* failure = root.find("failure"); failure != nullptr) {
    if (!failure->is_object()) fail_key("failure", "must be an object");
    require_only_keys(*failure, "failure.", {});
  }

  if (const JsonValue* packet = root.find("packet_sim"); packet != nullptr) {
    if (!packet->is_object()) fail_key("packet_sim", "must be an object");
    require_only_keys(*packet, "packet_sim.",
                      {"subflows", "queue_packets", "packet_bytes",
                       "duration_ns", "warmup_ns", "start_jitter_ns",
                       "link_delay_ns", "server_rate_gbps", "ewtcp_coupling",
                       "route_mode", "workload"});
    spec.packet_sim.enabled = true;
    sim::SimParams& p = spec.packet_sim.params;
    // Each numeric key is optional and falls back to the SimParams default.
    const auto get_number = [&](const char* key, double fallback) {
      return get_bounded(*packet, "packet_sim.", key, fallback);
    };
    p.subflows = static_cast<int>(get_number("subflows", p.subflows));
    p.queue_packets =
        static_cast<int>(get_number("queue_packets", p.queue_packets));
    p.packet_bytes =
        static_cast<int>(get_number("packet_bytes", p.packet_bytes));
    p.duration_ns = static_cast<sim::SimTime>(
        get_number("duration_ns", static_cast<double>(p.duration_ns)));
    p.warmup_ns = static_cast<sim::SimTime>(
        get_number("warmup_ns", static_cast<double>(p.warmup_ns)));
    p.start_jitter_ns = static_cast<sim::SimTime>(get_number(
        "start_jitter_ns", static_cast<double>(p.start_jitter_ns)));
    p.link_delay_ns = static_cast<sim::SimTime>(
        get_number("link_delay_ns", static_cast<double>(p.link_delay_ns)));
    p.server_rate_gbps = get_number("server_rate_gbps", p.server_rate_gbps);
    if (const JsonValue* coupling = packet->find("ewtcp_coupling");
        coupling != nullptr) {
      if (!coupling->is_bool()) {
        fail_key("packet_sim.ewtcp_coupling", "must be a boolean");
      }
      p.ewtcp_coupling = coupling->boolean;
    }
    if (packet->find("route_mode") != nullptr) {
      p.route_mode = route_mode_from_name(get_string(*packet, "route_mode"));
    }
    if (const JsonValue* workload = packet->find("workload");
        workload != nullptr) {
      if (!workload->is_object()) {
        fail_key("packet_sim.workload", "must be an object");
      }
      require_only_keys(*workload, "packet_sim.workload.",
                        {"cdf", "cdf_file", "cdf_table", "pattern"});
      spec.packet_sim.fct.enabled = true;
      // Three ways to pick the flow-size distribution, mutually
      // exclusive: a registry name ("cdf"), a table file ("cdf_file"),
      // or an inline table ("cdf_table"). The file is read HERE, at
      // parse time — downstream (validation, hashing, evaluation) only
      // ever sees the parsed points, never the path.
      const JsonValue* cdf_file = workload->find("cdf_file");
      const JsonValue* cdf_table = workload->find("cdf_table");
      if (cdf_file != nullptr && cdf_table != nullptr) {
        fail_key("packet_sim.workload.cdf_file",
                 "mutually exclusive with cdf_table");
      }
      if ((cdf_file != nullptr || cdf_table != nullptr) &&
          workload->find("cdf") != nullptr) {
        fail_key("packet_sim.workload.cdf",
                 "mutually exclusive with cdf_file / cdf_table");
      }
      if (workload->find("cdf") != nullptr) {
        spec.packet_sim.fct.cdf = get_string(*workload, "cdf");
      }
      if (cdf_file != nullptr) {
        if (!cdf_file->is_string()) {
          fail_key("packet_sim.workload.cdf_file", "must be a string");
        }
        const FlowSizeCdf table = load_flow_size_cdf_file(cdf_file->text);
        spec.packet_sim.fct.cdf = table.name;  // "custom"
        spec.packet_sim.fct.custom_cdf = table.points;
      }
      if (cdf_table != nullptr) {
        if (!cdf_table->is_array()) {
          fail_key("packet_sim.workload.cdf_table",
                   "must be an array of [bytes, cum_prob] pairs");
        }
        for (const JsonValue& item : cdf_table->items) {
          if (!item.is_array() || item.items.size() != 2 ||
              !item.items[0].is_number() || !item.items[1].is_number()) {
            fail_key("packet_sim.workload.cdf_table",
                     "must be an array of [bytes, cum_prob] pairs");
          }
          spec.packet_sim.fct.custom_cdf.push_back(
              CdfPoint{item.items[0].number, item.items[1].number});
        }
        spec.packet_sim.fct.cdf = "custom";
      }
      if (const JsonValue* pattern = workload->find("pattern");
          pattern != nullptr) {
        if (pattern->kind != JsonValue::Kind::kString) {
          fail_key("packet_sim.workload.pattern", "must be a string");
        }
        spec.packet_sim.fct.pattern = pattern->text;
      }
    }
  }

  // The evaluation knobs' scalar keys: one walk over the knob table,
  // after the blocks their gates read (traffic kind, workload pattern).
  // Each value is checked against its rule before it is bound, so no
  // out-of-range or fractional number reaches an integer field.
  EvalOptions knobs = eval_options_for(spec);
  for (const Knob& knob : knob_table()) {
    if (knob.path == nullptr) continue;
    const JsonValue* value = find_path(root, knob.path);
    if (value == nullptr) continue;
    if (knob.gate.holds != nullptr && !knob.gate.axis_only &&
        !knob.gate.holds(spec)) {
      fail_key(knob.path, std::string("only valid with ") + knob.gate.needs);
    }
    if (is_class_knob(knob)) {
      if (!value->is_object()) fail_key(knob.path, "must be an object");
      for (const auto& [klass, rate] : value->members) {
        const std::string where = std::string(knob.path) + "." + klass;
        if (klass.empty()) fail_key(where, "class name must be non-empty");
        if (!rate.is_number()) fail_key(where, "must be a number");
        check_rule(knob.rule, where, rate.number);
        knobs.failure.per_class.switch_fraction[klass] = rate.number;
      }
      continue;
    }
    if (!value->is_number()) fail_key(knob.path, "must be a number");
    check_rule(knob.rule, knob.path, value->number);
    knob.field(knobs).set(value->number);
  }
  copy_shared_knobs(spec, knobs);

  if (const JsonValue* search = root.find("search"); search != nullptr) {
    if (!search->is_object()) fail_key("search", "must be an object");
    require_only_keys(*search, "search.",
                      {"objective", "budget", "restarts", "population",
                       "temperature", "moves", "cost"});
    spec.search.enabled = true;
    if (search->find("objective") != nullptr) {
      spec.search.objective = get_string(*search, "objective");
    }
    const auto get_number = [&](const char* key, double fallback) {
      return get_bounded(*search, "search.", key, fallback);
    };
    spec.search.budget =
        static_cast<int>(get_number("budget", spec.search.budget));
    spec.search.restarts =
        static_cast<int>(get_number("restarts", spec.search.restarts));
    spec.search.population =
        static_cast<int>(get_number("population", spec.search.population));
    spec.search.temperature =
        get_number("temperature", spec.search.temperature);
    if (const JsonValue* moves = search->find("moves"); moves != nullptr) {
      if (!moves->is_array()) {
        fail_key("search.moves", "must be an array of move names");
      }
      spec.search.moves.clear();
      for (const JsonValue& item : moves->items) {
        if (item.kind != JsonValue::Kind::kString) {
          fail_key("search.moves", "must be an array of move names");
        }
        spec.search.moves.push_back(item.text);
      }
    }
    if (const JsonValue* cost = search->find("cost"); cost != nullptr) {
      if (!cost->is_object()) fail_key("search.cost", "must be an object");
      require_only_keys(*cost, "search.cost.",
                        {"port", "cable", "switch", "class", "floor_columns"});
      const auto get_cost = [&](const char* key, double fallback) {
        return get_bounded(*cost, "search.cost.", key, fallback);
      };
      spec.search.port_cost = get_cost("port", spec.search.port_cost);
      spec.search.cable_cost = get_cost("cable", spec.search.cable_cost);
      spec.search.switch_cost = get_cost("switch", spec.search.switch_cost);
      if (const JsonValue* classes = cost->find("class"); classes != nullptr) {
        if (!classes->is_object()) {
          fail_key("search.cost.class", "must be an object");
        }
        for (const auto& [klass, value] : classes->members) {
          const std::string where = "search.cost.class." + klass;
          if (klass.empty()) fail_key(where, "class name must be non-empty");
          if (!value.is_number()) fail_key(where, "must be a number");
          check_bounded(where, value.number);
          spec.search.class_cost[klass] = value.number;
        }
      }
      spec.search.floor_columns = static_cast<int>(
          get_cost("floor_columns", spec.search.floor_columns));
    }
  }

  if (const JsonValue* axes = root.find("axes"); axes != nullptr) {
    if (!axes->is_array()) fail_key("axes", "must be an array");
    for (std::size_t a = 0; a < axes->items.size(); ++a) {
      const JsonValue& entry = axes->items[a];
      const std::string where = "axes[" + std::to_string(a) + "].";
      if (!entry.is_object()) {
        fail_key("axes[" + std::to_string(a) + "]", "must be an object");
      }
      require_only_keys(entry, where, {"param", "values", "full_values"});
      SweepAxis axis;
      axis.param = get_string(entry, "param");
      axis.values = get_number_list(entry, "values");
      if (axis.values.empty()) fail_key(where + "values", "must be non-empty");
      axis.full_values = get_number_list(entry, "full_values");
      spec.axes.push_back(std::move(axis));
    }
  }

  spec.quick_runs =
      static_cast<int>(get_bounded(root, "", "quick_runs", spec.quick_runs));
  spec.full_runs =
      static_cast<int>(get_bounded(root, "", "full_runs", spec.full_runs));
  if (const JsonValue* reuse = root.find("reuse_topology"); reuse != nullptr) {
    if (!reuse->is_bool()) fail_key("reuse_topology", "must be a boolean");
    spec.reuse_topology = reuse->boolean;
  }

  validate_spec(spec);
  return spec;
}

ScenarioSpec load_spec_file(const std::string& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in), "cannot read spec file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    return spec_from_json(buffer.str());
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(path + ": " + e.what());
  }
}

int spec_file_main(const std::string& path, int argc,
                   const char* const* argv) {
  register_builtin_scenarios();
  try {
    const ScenarioSpec spec = load_spec_file(path);
    const ScenarioOptions options = parse_scenario_options(argc, argv);
    ScenarioRun run(options, std::cout);
    run_spec_scenario(spec, run);
    if (!options.out_path.empty()) {
      std::ofstream out(options.out_path);
      if (!out) {
        std::cerr << "cannot write " << options.out_path << "\n";
        return kExitInternal;
      }
      write_scenario_json(out, spec.name, options, run.tables());
    }
    return kExitOk;
  } catch (const InvalidArgument& e) {
    std::cerr << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return kExitInternal;
  }
}

int dump_spec_main(const std::string& name, const std::string& out_path) {
  register_builtin_scenarios();
  const ScenarioInfo* info = find_scenario(name);
  if (info == nullptr) {
    std::cerr << "unknown scenario: " << name
              << " (topobench --list shows all names)\n";
    return kExitUsage;
  }
  const ScenarioSpec* spec = find_spec_scenario(info->name);
  if (spec == nullptr) {
    std::cerr << "scenario " << info->name
              << " is not spec-backed (figure scenarios cannot be dumped; "
                 "sweep_* scenarios can)\n";
    return kExitUsage;
  }
  const std::string json = spec_to_json(*spec);
  if (out_path.empty()) {
    std::cout << json;
    return kExitOk;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return kExitInternal;
  }
  out << json;
  return kExitOk;
}

}  // namespace topo::scenario

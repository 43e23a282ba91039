#include "cacqr/tune/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "cacqr/lin/parallel.hpp"

#ifdef __linux__
#include <unistd.h>
#endif

namespace cacqr::tune {

namespace {

/// A fitted coefficient must be a positive finite number to be usable as
/// a cost-model parameter.
bool usable(double v) noexcept { return std::isfinite(v) && v > 0.0; }

std::string cpu_model() {
#ifdef __linux__
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      std::string v = line.substr(colon + 1);
      const auto b = v.find_first_not_of(" \t");
      return b == std::string::npos ? std::string("unknown") : v.substr(b);
    }
  }
#endif
  return "unknown";
}

std::string hostname() {
#ifdef __linux__
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') {
    return buf;
  }
#endif
  return "unknown-host";
}

}  // namespace

std::string fnv1a_hex(std::string_view text) {
  u64 h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string host_fingerprint() {
  return "host:" + hostname() + "|cpu:" + cpu_model() +
         "|hw:" + std::to_string(lin::parallel::hardware_threads());
}

double MachineProfile::thread_speedup(int threads) const noexcept {
  double best = 1.0;
  for (const ThreadScaling& s : scaling) {
    if (s.threads <= threads && usable(s.speedup)) best = s.speedup;
    if (s.threads > threads) break;  // sorted by threads
  }
  return best;
}

model::Machine MachineProfile::machine_at(int threads) const {
  model::Machine m = machine;
  m.gamma_s /= thread_speedup(std::max(1, threads));
  return m;
}

model::Machine MachineProfile::machine_for(std::string_view variant,
                                           int threads,
                                           Precision precision) const {
  auto entry = [&](std::string_view name) -> const VariantCalibration* {
    for (const VariantCalibration& v : variants) {
      if (v.variant == name && usable(v.gamma_s)) return &v;
    }
    return nullptr;
  };
  // An unlisted variant takes the profile's own pick's entry (whose rates
  // back the headline machine) at the requested precision.
  const VariantCalibration* v = entry(variant);
  if (v == nullptr) v = entry(kernel_variant);
  if (v == nullptr) return machine_at(threads);
  const bool f32 = precision != Precision::fp64;
  model::Machine m = machine;
  // An unmeasured fp32 lane (gamma32_s == 0, e.g. a hand-built or pre-v3
  // in-memory profile) conservatively reuses the fp64 rate.
  m.gamma_s = f32 && usable(v->gamma32_s) ? v->gamma32_s : v->gamma_s;
  if (f32 && usable(v->peak_gflops32)) {
    m.peak_gflops_node = v->peak_gflops32;
  } else if (usable(v->peak_gflops)) {
    m.peak_gflops_node = v->peak_gflops;
  }
  double speedup = 1.0;
  for (const ThreadScaling& s : v->scaling) {
    if (s.threads <= threads && usable(s.speedup)) speedup = s.speedup;
    if (s.threads > threads) break;  // sorted by threads
  }
  m.gamma_s /= speedup;
  return m;
}

std::string MachineProfile::fingerprint() const {
  // Digest every parameter that influences planning, so two profiles
  // that would ever score a candidate differently get distinct keys.
  std::string params;
  char buf[128];
  std::snprintf(buf, sizeof buf, "a=%.17g|b=%.17g|g=%.17g", machine.alpha_s,
                machine.beta_s, machine.gamma_s);
  params += buf;
  for (const ThreadScaling& s : scaling) {
    std::snprintf(buf, sizeof buf, "|t%d=%.17g", s.threads, s.speedup);
    params += buf;
  }
  for (const VariantCalibration& v : variants) {
    params += "|kv:" + v.variant;
    std::snprintf(buf, sizeof buf, "=%.17g,g32=%.17g", v.gamma_s,
                  v.gamma32_s);
    params += buf;
    for (const ThreadScaling& s : v.scaling) {
      std::snprintf(buf, sizeof buf, ",t%d=%.17g", s.threads, s.speedup);
      params += buf;
    }
  }
  if (!kernel_variant.empty()) params += "|sel:" + kernel_variant;
  return host + "|prof:" + fnv1a_hex(params);
}

support::Json MachineProfile::to_json() const {
  support::Json j = support::Json::object();
  j.set("schema", kSchemaVersion);
  j.set("kind", "cacqr-machine-profile");
  j.set("host", host);
  j.set("calibrated", calibrated);
  j.set("name", machine.name);
  j.set("alpha_s", machine.alpha_s);
  j.set("beta_s", machine.beta_s);
  j.set("gamma_s", machine.gamma_s);
  j.set("kernel_variant", kernel_variant);
  support::Json ks = support::Json::array();
  for (const KernelSample& s : kernels) {
    support::Json e = support::Json::object();
    e.set("kernel", s.kernel);
    e.set("variant", s.variant);
    e.set("m", s.m);
    e.set("n", s.n);
    e.set("k", s.k);
    e.set("gflops", s.gflops);
    ks.push_back(std::move(e));
  }
  j.set("kernels", std::move(ks));
  support::Json sc = support::Json::array();
  for (const ThreadScaling& s : scaling) {
    support::Json e = support::Json::object();
    e.set("threads", s.threads);
    e.set("speedup", s.speedup);
    sc.push_back(std::move(e));
  }
  j.set("scaling", std::move(sc));
  support::Json vs = support::Json::array();
  for (const VariantCalibration& v : variants) {
    support::Json e = support::Json::object();
    e.set("variant", v.variant);
    e.set("gamma_s", v.gamma_s);
    e.set("peak_gflops", v.peak_gflops);
    e.set("gamma32_s", v.gamma32_s);
    e.set("peak_gflops32", v.peak_gflops32);
    support::Json vsc = support::Json::array();
    for (const ThreadScaling& s : v.scaling) {
      support::Json t = support::Json::object();
      t.set("threads", s.threads);
      t.set("speedup", s.speedup);
      vsc.push_back(std::move(t));
    }
    e.set("scaling", std::move(vsc));
    vs.push_back(std::move(e));
  }
  j.set("variants", std::move(vs));
  return j;
}

std::optional<MachineProfile> MachineProfile::from_json(
    const support::Json& j) {
  if (!j.is_object() || j["schema"].as_int(-1) != kSchemaVersion) {
    return std::nullopt;
  }
  MachineProfile p;
  p.host = j["host"].as_string();
  p.calibrated = j["calibrated"].as_string();
  p.machine.name = j["name"].as_string();
  p.machine.alpha_s = j["alpha_s"].as_number();
  p.machine.beta_s = j["beta_s"].as_number();
  p.machine.gamma_s = j["gamma_s"].as_number();
  if (!usable(p.machine.alpha_s) || !usable(p.machine.beta_s) ||
      !usable(p.machine.gamma_s) || p.host.empty()) {
    return std::nullopt;
  }
  p.kernel_variant = j["kernel_variant"].as_string();
  const support::Json& ks = j["kernels"];
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const support::Json& e = ks.at(i);
    p.kernels.push_back({e["kernel"].as_string(), e["m"].as_int(),
                         e["n"].as_int(), e["k"].as_int(),
                         e["gflops"].as_number(),
                         e["variant"].as_string()});
  }
  const support::Json& sc = j["scaling"];
  for (std::size_t i = 0; i < sc.size(); ++i) {
    const support::Json& e = sc.at(i);
    const int t = static_cast<int>(e["threads"].as_int());
    const double s = e["speedup"].as_number();
    if (t < 1 || !usable(s)) return std::nullopt;
    p.scaling.push_back({t, s});
  }
  std::sort(p.scaling.begin(), p.scaling.end(),
            [](const ThreadScaling& a, const ThreadScaling& b) {
              return a.threads < b.threads;
            });
  const support::Json& vs = j["variants"];
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const support::Json& e = vs.at(i);
    VariantCalibration v;
    v.variant = e["variant"].as_string();
    v.gamma_s = e["gamma_s"].as_number();
    v.peak_gflops = e["peak_gflops"].as_number();
    // 0 is a legal "never measured" marker for the fp32 lane; only the
    // fp64 gamma is mandatory.
    v.gamma32_s = e["gamma32_s"].as_number();
    v.peak_gflops32 = e["peak_gflops32"].as_number();
    if (v.variant.empty() || !usable(v.gamma_s)) return std::nullopt;
    const support::Json& vsc = e["scaling"];
    for (std::size_t q = 0; q < vsc.size(); ++q) {
      const support::Json& t = vsc.at(q);
      const int th = static_cast<int>(t["threads"].as_int());
      const double sp = t["speedup"].as_number();
      if (th < 1 || !usable(sp)) return std::nullopt;
      v.scaling.push_back({th, sp});
    }
    std::sort(v.scaling.begin(), v.scaling.end(),
              [](const ThreadScaling& a, const ThreadScaling& b) {
                return a.threads < b.threads;
              });
    p.variants.push_back(std::move(v));
  }
  return p;
}

MachineProfile generic_profile() {
  MachineProfile p;
  p.host = host_fingerprint();
  p.calibrated = "generic";
  p.machine.name = "generic (uncalibrated)";
  // Nominal laptop/CI-container-class constants: ~5 sustained GF/s per
  // rank, ~5 GB/s effective shared-memory bandwidth, ~2 us per message.
  // Only the RATIOS steer planning; calibrate() replaces all three with
  // measurements.
  p.machine.ranks_per_node = 1;
  p.machine.peak_gflops_node = 5.0;
  p.machine.gamma_s = 1.0 / 5e9;
  p.machine.beta_s = 8.0 / 5e9;
  p.machine.alpha_s = 2.0e-6;
  p.scaling = {{1, 1.0}};
  // Nominal single-variant table: the fallback has measured nothing, so
  // every variant the planner might ask about resolves to this "generic"
  // entry, the profile's own pick, at either precision (machine_for's
  // fallback).  The nominal fp32 lane assumes the textbook 2x rate (twice
  // the SIMD lanes per register) -- calibrate() replaces it with a
  // measurement.
  p.kernel_variant = "generic";
  p.variants = {{"generic", p.machine.gamma_s, p.machine.peak_gflops_node,
                 p.machine.gamma_s / 2.0, 2.0 * p.machine.peak_gflops_node,
                 {{1, 1.0}}}};
  return p;
}

}  // namespace cacqr::tune

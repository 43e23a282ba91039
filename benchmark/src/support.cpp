#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace bench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Dot product of two contiguous columns with eight independent partial
/// sums, which the compiler can vectorize without reassociating a sum.
double dot(const double* x, const double* y, i64 n) {
  double acc[8] = {};
  i64 i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) acc[l] += x[i + l] * y[i + l];
  }
  double s = 0.0;
  for (; i < n; ++i) s += x[i] * y[i];
  for (const double p : acc) s += p;
  return s;
}

/// Nearest-rank percentile `pct` of `v`, with the number of samples that
/// lie beyond it (the tail metric needs at least ten).
struct Tail {
  double value = 0.0;
  std::size_t beyond = 0;
};

Tail tail(std::vector<double> v, double pct) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  t.value = v[rank - 1];
  t.beyond = v.size() - rank;
  return t;
}

}  // namespace

cacqr::lin::Matrix random_matrix(std::uint64_t seed, std::uint64_t stream,
                                 i64 m, i64 n) {
  std::uint64_t state = seed * 0xd1342543de82ef95ULL + stream;
  (void)splitmix64(state);
  cacqr::lin::Matrix a = cacqr::lin::Matrix::uninit(m, n);
  double* p = a.data();
  for (i64 k = 0; k < m * n; ++k) {
    p[k] = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-52 - 1.0;
  }
  return a;
}

Check check_factors(cacqr::lin::ConstMatrixView a,
                    cacqr::lin::ConstMatrixView q,
                    cacqr::lin::ConstMatrixView r) {
  Check out;
  const i64 m = a.rows;
  const i64 n = a.cols;
  out.shape_ok = q.rows == m && q.cols == n && r.rows == n && r.cols == n;
  if (!out.shape_ok) {
    out.orth = out.resid = INFINITY;
    return out;
  }
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = j + 1; i < n; ++i) {
      if (r(i, j) != 0.0) out.shape_ok = false;
    }
  }

  // ||Q^T Q - I||_F over the upper triangle, off-diagonal terms doubled.
  double orth2 = 0.0;
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i <= j; ++i) {
      const double g =
          dot(&q(0, i), &q(0, j), m) - (i == j ? 1.0 : 0.0);
      orth2 += (i == j ? 1.0 : 2.0) * g * g;
    }
  }
  out.orth = std::sqrt(orth2);

  // ||A - Q R||_F / ||A||_F, one column at a time (R upper triangular).
  std::vector<double> col(static_cast<std::size_t>(m));
  double res2 = 0.0;
  double a2 = 0.0;
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i < m; ++i) col[i] = a(i, j);
    a2 += dot(col.data(), col.data(), m);
    for (i64 k = 0; k <= j; ++k) {
      const double rkj = r(k, j);
      const double* qk = &q(0, k);
      for (i64 i = 0; i < m; ++i) col[i] -= qk[i] * rkj;
    }
    res2 += dot(col.data(), col.data(), m);
  }
  out.resid = a2 > 0.0 ? std::sqrt(res2 / a2) : std::sqrt(res2);
  return out;
}

void CheckTally::add(const Check& c) {
  ++checked;
  if (!c.ok()) ++failed;
  // NaN compares false: record it so the worst case cannot hide it.
  if (!(c.orth <= worst_orth)) worst_orth = c.orth;
  if (!(c.resid <= worst_resid)) worst_resid = c.resid;
}

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 50); }

double quantile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (h - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

WindowedRun::WindowedRun(double tail_pct, int windows, double seconds)
    : tail_pct_(tail_pct),
      width_s_(seconds / windows),
      latency_s_(static_cast<std::size_t>(windows)) {}

void WindowedRun::add_job(double t_end, double latency_s) {
  const auto w = static_cast<std::size_t>(t_end / width_s_);
  if (t_end >= 0.0 && w < latency_s_.size()) latency_s_[w].push_back(latency_s);
}

void WindowedRun::report(Outcome& out, const CheckTally& tally) const {
  std::vector<double> jobs_per_s;
  std::vector<double> p50_s;
  std::vector<double> tail_s;
  std::size_t min_beyond = SIZE_MAX;
  std::string windows;
  for (const std::vector<double>& lat : latency_s_) {
    jobs_per_s.push_back(static_cast<double>(lat.size()) / width_s_);
    if (!lat.empty()) {
      const Tail t = tail(lat, tail_pct_);
      p50_s.push_back(median(lat));
      tail_s.push_back(t.value);
      min_beyond = std::min(min_beyond, t.beyond);
    }
    windows += std::string(windows.empty() ? "" : ", ") + "{\"n\": " +
               std::to_string(lat.size());
    for (const double pct : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
      char key[32];
      std::snprintf(key, sizeof key, "p%g_ms", pct);
      windows += ", \"" + std::string(key) +
                 "\": " + json_number(tail(lat, pct).value * 1e3);
    }
    windows += "}";
  }
  out.set("jobs_per_s", quantile(jobs_per_s, 90));
  out.set("latency_ms_p50", quantile(p50_s, 10) * 1e3);
  out.set("latency_ms_tail", quantile(tail_s, 10) * 1e3);
  out.set("setup_s", median(setup_s_));
  out.set("peak_rss_mb", usage_now().max_rss_mb);
  out.set("ok_share", static_cast<double>(out.attempted - out.failed) /
                          static_cast<double>(out.attempted));
  out.set("orth_digits", -std::log10(std::max(tally.worst_orth, 1e-300)));
  out.set("resid_digits", -std::log10(std::max(tally.worst_resid, 1e-300)));
  out.detail("tail", "{\"percentile\": " + json_number(tail_pct_) +
                         ", \"min_samples_beyond\": " +
                         std::to_string(min_beyond) + "}");
  out.detail("window_s", json_number(width_s_));
  out.detail("windows", "[" + windows + "]");
  std::string setups;
  for (const double s : setup_s_) {
    setups += (setups.empty() ? "" : ", ") + json_number(s);
  }
  out.detail("setups_s", "[" + setups + "]");
  out.detail("checked", std::to_string(tally.checked));
  out.detail("worst_orth", json_number(tally.worst_orth));
  out.detail("worst_resid", json_number(tally.worst_resid));
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.minor_faults = ru.ru_minflt;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

}  // namespace bench

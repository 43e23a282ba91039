#include "cacqr/tune/planner.hpp"

#include <algorithm>
#include <iterator>

#include "cacqr/grid/grid.hpp"
#include "cacqr/model/costs.hpp"
#include "cacqr/model/sweep.hpp"
#include "cacqr/support/error.hpp"

namespace cacqr::tune {

std::string ProblemKey::text() const {
  return "m" + std::to_string(m) + "_n" + std::to_string(n) + "_p" +
         std::to_string(p) + "_t" + std::to_string(threads) + "_" +
         precision_name(precision);
}

namespace {

constexpr const char* kAlgoNames[] = {"cqr_1d", "ca_cqr2", "pgeqrf_2d"};
constexpr const char* kSourceNames[] = {"model", "measured", "cache",
                                        "heuristic"};
static_assert(std::size(kAlgoNames) ==
              static_cast<std::size_t>(Algo::pgeqrf_2d) + 1);
static_assert(std::size(kSourceNames) ==
              static_cast<std::size_t>(PlanSource::heuristic) + 1);

/// The enumerator of E (values 0 .. count - 1) that `name` spells, or
/// nullopt.
template <class E>
std::optional<E> parse_name(const std::string& s, std::size_t count,
                            const char* (*name)(E) noexcept) {
  for (std::size_t i = 0; i < count; ++i) {
    if (s == name(static_cast<E>(i))) return static_cast<E>(i);
  }
  return std::nullopt;
}

}  // namespace

const char* algo_name(Algo a) noexcept {
  return kAlgoNames[static_cast<std::size_t>(a)];
}

const char* source_name(PlanSource s) noexcept {
  return kSourceNames[static_cast<std::size_t>(s)];
}

bool Plan::fits(const ProblemKey& key) const noexcept {
  if (algo == Algo::cqr_1d) return d == key.p;
  if (algo == Algo::ca_cqr2) {
    return grid::TunableGrid::valid_shape(key.p, c, d) &&
           static_cast<i64>(c) * c <= key.n && d <= key.m;
  }
  // pgeqrf_2d: one block per process row, at most n columns wide; a larger
  // block only pads (a corrupt 2^20 block would ask for 2^21 x 2^21).
  return pr >= 1 && pc >= 1 && block >= 1 &&
         static_cast<i64>(pr) * pc == key.p && block <= key.n &&
         pr <= key.m / block;
}

std::string Plan::grid() const {
  if (algo == Algo::cqr_1d) return "p" + std::to_string(d);
  if (algo == Algo::ca_cqr2) {
    return "c" + std::to_string(c) + "d" + std::to_string(d);
  }
  return std::to_string(pr) + "x" + std::to_string(pc) + "b" +
         std::to_string(block);
}

support::Json Plan::to_json() const {
  support::Json j = support::Json::object();
  j.set("schema", kSchemaVersion);
  j.set("algo", algo_name(algo));
  j.set("c", c);
  j.set("d", d);
  j.set("pr", pr);
  j.set("pc", pc);
  j.set("block", block);
  j.set("predicted_seconds", predicted_seconds);
  j.set("measured_seconds", measured_seconds);
  j.set("source", source_name(source));
  j.set("kernel_variant", lin::kernel::variant_name(kernel_variant));
  j.set("precision", precision_name(precision));
  return j;
}

std::optional<Plan> Plan::from_json(const support::Json& j) {
  if (!j.is_object() || j["schema"].as_int(-1) != kSchemaVersion) {
    return std::nullopt;
  }
  const auto algo =
      parse_name(j["algo"].as_string(), std::size(kAlgoNames), algo_name);
  const auto source = parse_name(j["source"].as_string(),
                                 std::size(kSourceNames), source_name);
  const auto variant =
      parse_name(j["kernel_variant"].as_string(),
                 std::size(lin::kernel::kVariants), lin::kernel::variant_name);
  const auto prec = parse_precision(j["precision"].as_string());
  if (!algo || !source || !variant || !prec) return std::nullopt;
  // A grid field outside int is corruption, not a value to narrow.
  const auto int_field = [&j](const char* name, int& out) {
    out = static_cast<int>(j[name].as_int());
    return out == j[name].as_int();
  };
  Plan p;
  p.algo = *algo;
  if (!int_field("c", p.c) || !int_field("d", p.d) ||
      !int_field("pr", p.pr) || !int_field("pc", p.pc)) {
    return std::nullopt;
  }
  p.block = j["block"].as_int();
  p.predicted_seconds = j["predicted_seconds"].as_number();
  p.measured_seconds = j["measured_seconds"].as_number();
  p.source = *source;
  p.kernel_variant = *variant;
  p.precision = *prec;
  // A cached plan must name a sane configuration; anything else is
  // treated as corruption (ignored by the loader).
  if (p.algo == Algo::cqr_1d) {
    if (p.d < 1) return std::nullopt;
  } else if (p.algo == Algo::ca_cqr2) {
    if (p.c < 1 || p.d < 1 || p.d % p.c != 0) return std::nullopt;
  } else if (p.pr < 1 || p.pc < 1 || p.block < 1) {
    return std::nullopt;
  }
  return p;
}

Planner::Planner(MachineProfile profile) : profile_(std::move(profile)) {}

std::vector<Plan> Planner::candidates(const ProblemKey& key) const {
  ensure(key.m >= key.n && key.n >= 1, "Planner: requires m >= n >= 1");
  ensure(key.p >= 1 && key.threads >= 1,
         "Planner: ranks and threads must be positive");
  // Score with the gamma of the micro-kernel the driver will actually
  // dispatch to: the planner's flop rate must describe the engine that
  // runs the plan, not whichever variant calibrated fastest.
  const lin::kernel::Variant kv = lin::kernel::active_variant();
  const model::Machine mach =
      profile_.machine_for(lin::kernel::variant_name(kv), key.threads);
  const double m = static_cast<double>(key.m);
  const double n = static_cast<double>(key.n);
  // The precision axis: how many of CholeskyQR2's two passes run their
  // Gram stage in fp32 under this key, mirroring factorize exactly --
  // `mixed` confines it to the first pass, `fp32` keeps it for both.  For
  // each affected pass the re-scored Gram stage keeps its alpha, ships
  // half the beta words (fp32 pairs riding whole 8-byte wire words), and
  // charges its flops at the variant's measured fp32-lane gamma.
  const double f32_passes = key.precision == Precision::fp64    ? 0.0
                            : key.precision == Precision::mixed ? 1.0
                                                                : 2.0;
  const model::Machine mach32 = profile_.machine_for(
      lin::kernel::variant_name(kv), key.threads, Precision::fp32);
  const auto precision_adjust = [&](double c, double d) {
    if (f32_passes == 0.0) return 0.0;
    const model::Cost gram = model::cost_gram_stage(m, n, c, d);
    const model::Cost gram32{gram.alpha, gram.beta * 0.5, gram.gamma,
                             gram.mem};
    return f32_passes * (gram32.time(mach32) - gram.time(mach));
  };
  std::vector<Plan> out;

  // Variant 1: 1D-CQR2 on all P ranks (always valid; the driver pads m
  // up to a multiple of P).
  {
    Plan p;
    p.algo = Algo::cqr_1d;
    p.d = key.p;
    p.predicted_seconds =
        model::cost_cqr2_1d(m, n, static_cast<double>(key.p)).time(mach) +
        precision_adjust(1.0, static_cast<double>(key.p));
    out.push_back(p);
  }

  // Variant 2: CA-CQR2 on every valid (c, d) tunable grid with c > 1
  // (c = 1 runs variant 1's sweep, so it would only repeat that
  // candidate).  Grids needing more column classes than there are
  // columns (or whose CFR3D base case n >= c^2 fails even after padding)
  // are skipped; the driver pads, but a grid with c > n can never be
  // sensible.
  for (const auto& [c, d] : model::valid_grids(key.p)) {
    if (c == 1 || static_cast<i64>(c) * c > key.n ||
        static_cast<i64>(d) > key.m) {
      continue;
    }
    Plan p;
    p.algo = Algo::ca_cqr2;
    p.c = static_cast<int>(c);
    p.d = static_cast<int>(d);
    p.predicted_seconds =
        model::eval_cacqr2(m, n, c, d, mach).seconds +
        precision_adjust(static_cast<double>(c), static_cast<double>(d));
    out.push_back(p);
  }

  // Variant 3: the ScaLAPACK-style baseline, the paper's tuning sweep:
  // power-of-two pr and blocks {16, 32, 64}.  The driver pads up to
  // block-cycle multiples, so only require one block per process.
  for (i64 pr = 1; pr <= key.p; pr *= 2) {
    if (key.p % pr != 0) continue;
    const i64 pc = key.p / pr;
    for (const i64 b : {i64{16}, i64{32}, i64{64}}) {
      if (pr * b > key.m || pc * b > key.n) continue;
      Plan p;
      p.algo = Algo::pgeqrf_2d;
      p.pr = static_cast<int>(pr);
      p.pc = static_cast<int>(pc);
      p.block = b;
      p.predicted_seconds =
          model::eval_pgeqrf(m, n, pr, pc, b, mach).seconds;
      out.push_back(p);
    }
  }

  // Every plan records the precision it was scored under (pgeqrf_2d has
  // no fp32 lane and its score is precision-independent, but the tag
  // still gates cache reuse uniformly).
  for (Plan& p : out) {
    p.kernel_variant = kv;
    p.precision = key.precision;
  }

  // Deterministic order: predicted time ascending; ties broken by the
  // enumeration order above (stable sort), which is itself fixed.
  std::stable_sort(out.begin(), out.end(), [](const Plan& a, const Plan& b) {
    return a.predicted_seconds < b.predicted_seconds;
  });
  return out;
}

Plan Planner::plan(const ProblemKey& key) const {
  std::vector<Plan> all = candidates(key);
  ensure(!all.empty(), "Planner: no valid candidate for ", key.text());
  return all.front();
}

}  // namespace cacqr::tune

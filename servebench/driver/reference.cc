#include "reference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace servebench {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kDeg = kPi / 180.0;

/// Half-width, in cosine units, of the band around a cone edge inside
/// which the served verdict may legitimately differ from a
/// double-precision test. The tag partition stores positions as floats:
/// each component moves by at most 2^-24 of itself, so the normalized
/// position moves by < 6e-8 rad, which shifts dot(center, p) at the edge
/// by < 6e-8 * sin(radius). Twice that, plus a floor for the engine
/// computing the center and cos(radius) its own way.
double EdgeBand(double radius_deg) {
  return 1.2e-7 * std::sin(radius_deg * kDeg) + 1e-12;
}

/// Largest edge set whose subsets the checker enumerates. Each object in
/// the band doubles the work; more than this in one cone is treated as a
/// mismatch rather than guessed at.
constexpr size_t kMaxEdgeObjects = 16;

/// Relative tolerance on AVG: the engine sums per container and per
/// shard, the reference sums in index order.
constexpr double kAvgTolerance = 1e-9;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* ClassSql(int c) {
  switch (static_cast<sdss::catalog::ObjClass>(c)) {
    case sdss::catalog::ObjClass::kStar:
      return "'STAR'";
    case sdss::catalog::ObjClass::kGalaxy:
      return "'GALAXY'";
    case sdss::catalog::ObjClass::kQuasar:
      return "'QSO'";
    default:
      return "'UNKNOWN'";
  }
}

std::string WhereSql(const Predicate& p) {
  std::vector<std::string> terms;
  if (p.cone) {
    terms.push_back("CIRCLE(" + Num(p.cone->ra) + ", " + Num(p.cone->dec) +
                    ", " + Num(p.cone->radius) + ")");
  }
  if (p.r_below) terms.push_back("r < " + Num(*p.r_below));
  if (p.color_below) terms.push_back("g - r < " + Num(*p.color_below));
  if (p.color_above) terms.push_back("g - r > " + Num(*p.color_above));
  if (p.obj_class >= 0) {
    terms.push_back(std::string("class = ") + ClassSql(p.obj_class));
  }
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    out += (i == 0 ? " WHERE " : " AND ") + terms[i];
  }
  return out;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kRows:
      return "rows";
    case Op::kCount:
      return "count";
    case Op::kTopN:
      return "top_n";
    case Op::kAvg:
      return "avg";
    case Op::kMin:
      return "min";
    case Op::kMax:
      return "max";
    case Op::kInto:
      return "into";
  }
  return "?";
}

std::string Statement::Sql() const {
  const std::string from =
      reads_mydb() ? " FROM mydb." + table : std::string(" FROM photo");
  const std::string where = WhereSql(this->where);
  switch (op) {
    case Op::kRows:
      return "SELECT obj_id, r, g" + from + where;
    case Op::kCount:
      return "SELECT COUNT(*)" + from + where;
    case Op::kTopN:
      return "SELECT obj_id, r" + from + where + " ORDER BY r ASC LIMIT " +
             std::to_string(limit);
    case Op::kAvg:
      return "SELECT AVG(" + agg_attr + ")" + from + where;
    case Op::kMin:
      return "SELECT MIN(" + agg_attr + ")" + from + where;
    case Op::kMax:
      return "SELECT MAX(" + agg_attr + ")" + from + where;
    case Op::kInto:
      return "SELECT * INTO mydb." + table + " FROM photo" + where;
  }
  return "";
}

uint64_t RowHash(uint64_t obj_id, const std::vector<double>& values) {
  uint64_t h = Mix(obj_id);
  for (double v : values) h = Mix(h ^ std::bit_cast<uint64_t>(v));
  return h;
}

void Answer::Add(uint64_t obj_id, const std::vector<double>& values) {
  const uint64_t h = RowHash(obj_id, values);
  ++rows;
  set_hash += h;
  seq_hash = Mix(seq_hash ^ h);
  if (!values.empty()) value = values[0];
}

Reference::Reference(const std::vector<sdss::catalog::PhotoObj>& sky) {
  const size_t n = sky.size();
  // Objects are kept in z order, so a cone's declination strip is one
  // contiguous run of every array.
  sky_index_.resize(n);
  std::iota(sky_index_.begin(), sky_index_.end(), 0u);
  std::sort(sky_index_.begin(), sky_index_.end(), [&sky](uint32_t a, uint32_t b) {
    return sky[a].pos.z < sky[b].pos.z;
  });
  id_.resize(n);
  x_.resize(n);
  y_.resize(n);
  z_.resize(n);
  u_.resize(n);
  g_.resize(n);
  r_.resize(n);
  cls_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& o = sky[sky_index_[i]];
    id_[i] = o.obj_id;
    x_[i] = o.pos.x;
    y_[i] = o.pos.y;
    z_[i] = o.pos.z;
    u_[i] = o.mag[sdss::catalog::kU];
    g_[i] = o.mag[sdss::catalog::kG];
    r_[i] = o.mag[sdss::catalog::kR];
    cls_[i] = static_cast<uint8_t>(o.obj_class);
  }
  by_id_.resize(n);
  for (size_t i = 0; i < n; ++i) by_id_[i] = {id_[i], uint32_t(i)};
  std::sort(by_id_.begin(), by_id_.end());
  sorted_r_ = r_;
  std::sort(sorted_r_.begin(), sorted_r_.end());
}

bool Reference::IndicesOf(const std::vector<uint64_t>& ids,
                          std::vector<size_t>* out) const {
  out->clear();
  for (uint64_t id : ids) {
    auto it = std::lower_bound(by_id_.begin(), by_id_.end(),
                               std::make_pair(id, uint32_t(0)));
    if (it == by_id_.end() || it->first != id) return false;
    out->push_back(it->second);
  }
  std::sort(out->begin(), out->end());
  return true;
}

double Reference::RthSmallestR(size_t k) const {
  return sorted_r_[std::min(k, sorted_r_.size() - 1)];
}

double Reference::RaDeg(size_t i) const {
  double ra = std::atan2(y_[i], x_[i]) / kDeg;
  return ra < 0 ? ra + 360.0 : ra;
}

double Reference::DecDeg(size_t i) const {
  return std::asin(std::clamp(z_[i], -1.0, 1.0)) / kDeg;
}

double Reference::Attr(size_t i, const std::string& attr) const {
  if (attr == "u") return u_[i];
  if (attr == "g") return g_[i];
  return r_[i];
}

bool Reference::PassesCuts(const Predicate& p, size_t i) const {
  const double r = r_[i], g = g_[i];
  if (p.r_below && !(r < *p.r_below)) return false;
  if (p.color_below && !(g - r < *p.color_below)) return false;
  if (p.color_above && !(g - r > *p.color_above)) return false;
  if (p.obj_class >= 0 && cls_[i] != p.obj_class) return false;
  return true;
}

void Reference::Select(const Predicate& where,
                       const std::vector<size_t>* among,
                       std::vector<size_t>* sure,
                       std::vector<size_t>* edge) const {
  sure->clear();
  edge->clear();
  auto consider = [&](size_t i, int cone_verdict) {
    if (!PassesCuts(where, i)) return;
    if (cone_verdict > 0) {
      sure->push_back(i);
    } else if (cone_verdict == 0) {
      edge->push_back(i);
    }
  };
  if (among != nullptr) {
    // The workloads give statements over a MyDB table no cone, so the
    // table's objects are decided by the cuts alone.
    for (size_t i : *among) consider(i, 1);
    return;
  }
  if (!where.cone) {
    for (size_t i = 0; i < id_.size(); ++i) consider(i, 1);
    return;
  }
  const Cone& c = *where.cone;
  const double ra = c.ra * kDeg, dec = c.dec * kDeg;
  const double cx = std::cos(dec) * std::cos(ra);
  const double cy = std::cos(dec) * std::sin(ra);
  const double cz = std::sin(dec);
  const double cos_r = std::cos(c.radius * kDeg);
  const double band = EdgeBand(c.radius);
  // Every point within the radius has a declination inside
  // [dec - radius, dec + radius]; sin is monotone there.
  const double lo_dec = std::max(-90.0, c.dec - c.radius) * kDeg;
  const double hi_dec = std::min(90.0, c.dec + c.radius) * kDeg;
  const double lo_z = std::sin(lo_dec) - 1e-9, hi_z = std::sin(hi_dec) + 1e-9;
  const size_t first =
      std::lower_bound(z_.begin(), z_.end(), lo_z) - z_.begin();
  const size_t last = std::upper_bound(z_.begin(), z_.end(), hi_z) - z_.begin();
  std::vector<std::pair<size_t, int>> hits;
  for (size_t i = first; i < last; ++i) {
    const double d = cx * x_[i] + cy * y_[i] + cz * z_[i] - cos_r;
    if (d < -band) continue;
    hits.emplace_back(i, d > band ? 1 : 0);
  }
  for (const auto& [i, verdict] : hits) consider(i, verdict);
}

Answer Reference::Digest(const Statement& stmt, std::vector<size_t> in) const {
  Answer a;
  switch (stmt.op) {
    case Op::kRows:
      for (size_t i : in) {
        a.Add(id_[i], {double(id_[i]), double(r_[i]), double(g_[i])});
      }
      break;
    case Op::kTopN: {
      std::sort(in.begin(), in.end(), [this](size_t p, size_t q) {
        if (r_[p] != r_[q]) return r_[p] < r_[q];
        return id_[p] < id_[q];
      });
      const size_t n = std::min(in.size(), static_cast<size_t>(stmt.limit));
      for (size_t k = 0; k < n; ++k) {
        const size_t i = in[k];
        a.Add(id_[i], {double(id_[i]), double(r_[i])});
      }
      break;
    }
    case Op::kCount:
      a.Add(0, {static_cast<double>(in.size())});
      break;
    case Op::kAvg:
    case Op::kMin:
    case Op::kMax: {
      double v = 0.0;
      if (!in.empty()) {
        double sum = 0.0, lo = Attr(in[0], stmt.agg_attr), hi = lo;
        for (size_t i : in) {
          const double x = Attr(i, stmt.agg_attr);
          sum += x;
          lo = std::min(lo, x);
          hi = std::max(hi, x);
        }
        v = stmt.op == Op::kAvg ? sum / static_cast<double>(in.size())
                                : (stmt.op == Op::kMin ? lo : hi);
      }
      a.Add(0, {v});
      break;
    }
    case Op::kInto:
      a.rows = in.size();
      break;
  }
  return a;
}

Verdict Reference::Check(const Statement& stmt, const Answer& answer,
                         const std::vector<size_t>* among) const {
  Verdict v;
  std::vector<size_t> sure, edge;
  Select(stmt.where, among, &sure, &edge);
  if (edge.size() > kMaxEdgeObjects) {
    v.why = std::to_string(edge.size()) + " objects on the cone edge";
    return v;
  }
  // The double-precision verdict on each edge object, as a bit mask.
  uint32_t exact_mask = 0;
  if (!edge.empty()) {
    const Cone& c = *stmt.where.cone;
    const double ra = c.ra * kDeg, dec = c.dec * kDeg;
    const double cos_r = std::cos(c.radius * kDeg);
    for (size_t k = 0; k < edge.size(); ++k) {
      const size_t i = edge[k];
      const double d = std::cos(dec) * std::cos(ra) * x_[i] +
                       std::cos(dec) * std::sin(ra) * y_[i] +
                       std::sin(dec) * z_[i];
      if (d >= cos_r) exact_mask |= 1u << k;
    }
  }
  auto matches = [&](const Answer& want) {
    switch (stmt.op) {
      case Op::kRows:
        return want.rows == answer.rows && want.set_hash == answer.set_hash;
      case Op::kTopN:
        return want.rows == answer.rows && want.seq_hash == answer.seq_hash;
      case Op::kCount:
      case Op::kMin:
      case Op::kMax:
        return answer.rows == 1 && want.value == answer.value;
      case Op::kAvg:
        return answer.rows == 1 &&
               std::fabs(want.value - answer.value) <=
                   kAvgTolerance * std::max(1.0, std::fabs(want.value));
      case Op::kInto:
        return want.rows == answer.rows;
    }
    return false;
  };
  int best = -1;
  Answer exact_want;
  for (uint32_t mask = 0; mask < (1u << edge.size()); ++mask) {
    std::vector<size_t> in = sure;
    for (size_t k = 0; k < edge.size(); ++k) {
      if (mask & (1u << k)) in.push_back(edge[k]);
    }
    std::sort(in.begin(), in.end());
    const Answer want = Digest(stmt, std::move(in));
    if (mask == exact_mask) exact_want = want;
    if (!matches(want)) continue;
    const int flips = std::popcount(mask ^ exact_mask);
    if (best < 0 || flips < best) best = flips;
  }
  if (best < 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "served %llu rows (value %.17g), expected %llu rows "
                  "(value %.17g)",
                  static_cast<unsigned long long>(answer.rows), answer.value,
                  static_cast<unsigned long long>(exact_want.rows),
                  exact_want.value);
    v.why = buf;
    return v;
  }
  v.ok = true;
  v.boundary_flips = best;
  return v;
}

}  // namespace servebench

// The benchmark's statement model and its independent answer checker.
//
// Every statement the benchmark sends is built from a Statement: a
// conjunctive predicate (cone, magnitude and color cuts, class) plus an
// operation (row select, COUNT, top-N, AVG/MIN/MAX, INTO). Statement::Sql
// renders it into the archive's dialect; Reference evaluates the same
// statement by brute force over the generated catalog, with its own
// angular-distance test on unit vectors, its own cut evaluation and its
// own top-N sort. Nothing here calls into the engine.
//
// Served answers are reduced to an Answer digest while they stream in
// (row count, an order-free and an order-sensitive row hash, the
// aggregate value), so the timed phase stores a few words per statement
// and the comparison runs after the clock stops.

#ifndef SERVEBENCH_REFERENCE_H_
#define SERVEBENCH_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/photo_obj.h"

namespace servebench {

/// A cone on the sky, equatorial degrees.
struct Cone {
  double ra = 0.0;
  double dec = 0.0;
  double radius = 0.0;
};

/// A conjunction of the predicate atoms the workloads use.
struct Predicate {
  std::optional<Cone> cone;
  std::optional<double> r_below;      ///< r < x
  std::optional<double> color_below;  ///< g - r < x
  std::optional<double> color_above;  ///< g - r > x
  int obj_class = -1;                 ///< class = ... (-1: any)
};

enum class Op { kRows, kCount, kTopN, kAvg, kMin, kMax, kInto };

const char* OpName(Op op);

struct Statement {
  Op op = Op::kRows;
  Predicate where;
  std::string agg_attr = "r";  ///< kAvg / kMin / kMax.
  int limit = 0;               ///< kTopN.
  /// FROM mydb.<table> when non-empty, else FROM photo. For kInto, the
  /// target table.
  std::string table;

  bool reads_mydb() const { return op != Op::kInto && !table.empty(); }
  std::string Sql() const;
};

/// What the client kept of one served answer.
struct Answer {
  uint64_t rows = 0;
  uint64_t set_hash = 0;  ///< Sum of row hashes: the row set.
  uint64_t seq_hash = 0;  ///< Chained row hashes: the row sequence.
  double value = 0.0;     ///< values[0] of the last row (aggregates).

  /// Folds one received row into the digest.
  void Add(uint64_t obj_id, const std::vector<double>& values);
};

/// Hash of one result row: its object id and the bits of its values.
uint64_t RowHash(uint64_t obj_id, const std::vector<double>& values);

/// Verdict of one comparison.
struct Verdict {
  bool ok = false;
  /// Objects within float-rounding distance of a cone edge whose served
  /// verdict differs from the double-precision one. Accepted (see
  /// README, "Correctness"), but counted.
  int boundary_flips = 0;
  std::string why;  ///< Set when !ok.
};

/// The generated catalog as the checker sees it: positions as double
/// unit vectors and the magnitudes and class the statements test, held
/// in z order so a cone's candidates are one declination strip. Object
/// indices are positions in that order.
class Reference {
 public:
  explicit Reference(const std::vector<sdss::catalog::PhotoObj>& sky);

  size_t size() const { return id_.size(); }
  /// Position of object i in the vector the reference was built from.
  size_t sky_index(size_t i) const { return sky_index_[i]; }
  /// Right ascension / declination of object i, degrees (from its
  /// unit vector).
  double RaDeg(size_t i) const;
  double DecDeg(size_t i) const;

  /// Objects certainly matching `where` (in index order) and those
  /// within float-rounding distance of a cone edge. `among`, when set,
  /// restricts the pass to those objects (a MyDB table's content, as
  /// sorted indices).
  void Select(const Predicate& where, const std::vector<size_t>* among,
              std::vector<size_t>* sure, std::vector<size_t>* edge) const;

  /// Compares a served answer with the brute-force answer. `among` is
  /// the verified content of the MyDB table a statement reads (null for
  /// fleet statements). For kInto, `answer.rows` is the DONE row count.
  Verdict Check(const Statement& stmt, const Answer& answer,
                const std::vector<size_t>* among) const;

  /// Sorted catalog indices of `ids`; false if any id is not in the
  /// catalog.
  bool IndicesOf(const std::vector<uint64_t>& ids,
                 std::vector<size_t>* out) const;

  /// The k-th smallest r magnitude of the catalog (0-based, clamped).
  double RthSmallestR(size_t k) const;

  /// Values of attribute `attr` ("r", "g", "u") for object i.
  double Attr(size_t i, const std::string& attr) const;

 private:
  bool PassesCuts(const Predicate& p, size_t i) const;
  /// Digest of `stmt` over the matching set `in` (unsorted).
  Answer Digest(const Statement& stmt, std::vector<size_t> in) const;

  std::vector<uint64_t> id_;
  std::vector<double> x_, y_, z_;
  std::vector<float> u_, g_, r_;
  std::vector<uint8_t> cls_;
  std::vector<uint32_t> sky_index_;
  std::vector<std::pair<uint64_t, uint32_t>> by_id_;  ///< (id, index).
  std::vector<float> sorted_r_;
};

}  // namespace servebench

#endif  // SERVEBENCH_REFERENCE_H_
